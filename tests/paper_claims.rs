//! The paper's claims, one `#[test]` per row of DESIGN §3's experiment
//! index, named by its ID. Each calls the claim's function, which asserts
//! the row's shape and panics naming the claim and the cell; the test
//! prints the tables it returns. To reproduce one EXPERIMENTS table:
//!
//! ```text
//! cargo test --release --test paper_claims -- --nocapture --exact e8
//! ```
//!
//! E15 (a wall-clock ratio) and E17 (over a minute in a debug build) are
//! ignored unless asked for with `--include-ignored`, as CI does in
//! release.

use xdp_bench::claims as bench;
use xdp_bench::Table;
use xdp_serve::{replay, ReplayConfig};
use xdp_verify::claims as verify;

fn print(tables: Vec<Table>) {
    tables.iter().for_each(Table::print);
}

#[test]
fn f1() {
    print(bench::f1());
}

#[test]
fn f2() {
    print(bench::f2());
}

#[test]
fn f3() {
    print(bench::f3());
}

#[test]
fn f4() {
    print(bench::f4());
}

#[test]
fn e1() {
    print(bench::e1());
}

#[test]
fn e2() {
    print(bench::e2());
}

#[test]
fn e3() {
    print(bench::e3());
}

#[test]
fn e4() {
    print(bench::e4());
}

#[test]
fn e5() {
    print(bench::e5());
}

#[test]
fn e6() {
    print(bench::e6());
}

#[test]
fn e7() {
    print(bench::e7());
}

#[test]
fn e8() {
    print(bench::e8());
}

#[test]
fn e9() {
    print(bench::e9());
}

#[test]
fn e10() {
    print(bench::e10());
}

#[test]
fn e11() {
    print(bench::e11());
}

#[test]
fn e12() {
    print(verify::e12());
}

/// `xdpd bench`'s replay at CI's 300 requests keeps the serving contract.
#[test]
fn e13() {
    let cfg = ReplayConfig {
        requests: 300,
        programs_dir: concat!(env!("CARGO_MANIFEST_DIR"), "/xdp-programs").into(),
        ..ReplayConfig::default()
    };
    let (report, _) = replay(&cfg).expect("E13: the replay runs");
    print(report.tables());
    let violations = report.contract_violations();
    assert!(violations.is_empty(), "E13: {violations:?}");
}

#[test]
fn e14() {
    print(xdp_serve::claims::e14());
}

#[test]
#[ignore = "a wall-clock ratio; CI runs it in release"]
fn e15() {
    print(verify::e15());
}

#[test]
fn e16() {
    print(verify::e16());
}

#[test]
#[ignore = "over a minute in a debug build; CI runs it in release"]
fn e17() {
    print(verify::e17());
}
