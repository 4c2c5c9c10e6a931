//! E1 — the §2.2 running example `A[i] = A[i] + B[i]` across alignment
//! regimes and optimization variants: with aligned distributions,
//! same-owner elision removes all communication; misaligned,
//! vectorization collapses n per-element messages into one section
//! message per processor pair; binding sheds name headers; migration
//! converts value traffic into one-time ownership traffic.

use super::{run_running_example, running_example};
use crate::table::{j, Table};
use xdp_compiler::passes::{BindCommunication, MigrateOwnership};
use xdp_compiler::{Pass, PassManager};
use xdp_ir::{DimDist, Program};

/// Every variant computes the same A; the full pipeline sends (a) no
/// message when B is aligned with A and (b) exactly P(P−1) section
/// messages when it is not, at every n.
pub fn e1() -> Vec<Table> {
    let nprocs = 4;
    let sections = (nprocs * (nprocs - 1)) as u64;
    let mut t = Table::new(
        "E1: A[i] = A[i] + B[i] — variants x alignment (all verified)",
        &[
            "n",
            "B dist",
            "variant",
            "messages",
            "wire bytes",
            "time",
            "speedup",
        ],
    );
    for &n in &[16i64, 64, 256] {
        for (bdname, bd) in [
            ("BLOCK (aligned)", DimDist::Block),
            ("CYCLIC (misaligned)", DimDist::Cyclic),
        ] {
            let (naive, a, bb) = running_example(n, nprocs, bd);
            let mut base = None;
            let mut add = |label: &str, p: &Program, t: &mut Table| {
                let r = run_running_example(p, (a, bb), nprocs, 100.0, 101.0);
                let b0 = *base.get_or_insert(r.virtual_time);
                t.row(&[
                    j::i(n),
                    j::s(bdname),
                    j::s(label),
                    j::u(r.net.messages),
                    j::u(r.net.wire_bytes),
                    j::f(r.virtual_time),
                    j::s(&format!("{:.2}x", b0 / r.virtual_time)),
                ]);
                r.net.messages
            };
            add("naive owner-computes", &naive, &mut t);
            let bound = BindCommunication.run(&naive).program;
            add("bound (delayed binding)", &bound, &mut t);
            let (opt, _) = PassManager::paper_pipeline().run(&naive);
            let sent = add("full pipeline", &opt, &mut t);
            match bd {
                DimDist::Block => assert_eq!(
                    sent, 0,
                    "E1(a): BLOCK n={n} full pipeline sent {sent} messages, claimed 0"
                ),
                _ => assert_eq!(
                    sent, sections,
                    "E1(b): CYCLIC n={n} full pipeline sent {sent} messages, claimed P(P−1) = {sections}"
                ),
            }
            let mig = MigrateOwnership::default().run(&naive).program;
            add("ownership migration", &mig, &mut t);
        }
    }
    vec![t]
}
