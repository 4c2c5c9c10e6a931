//! E12 — differential fuzzing of executors and passes.
//!
//! Part one sweeps generated executable programs through the oracle
//! stack one stage at a time — simulator vs lockstep, plus the compiled
//! VM, plus the task machine, plus per-pass prefix equivalence, plus
//! chaos (faulty vs lossless) — and reports the per-program cost of each
//! oracle. Every
//! row is a conformance statement: zero failures expected, and the
//! binary exits nonzero otherwise.
//!
//! Part two validates the harness itself end to end: a deliberately
//! miscompiling pass ("sabotage", nudges float literals by +0.25) is
//! appended to the real pipeline; the driver must name it — not a clean
//! pass — as the culprit, and the shrinker must reduce the divergence to
//! a minimal `.xdp` repro (the acceptance bar is ≤ 15 statements).
//!
//! Expected shape: failures 0 across the sweep; oracle cost grows from
//! the two-executor baseline (the task machine pays worker spawn + real
//! message latency, chaos pays a second faulty run per program);
//! the planted bug shrinks from a few dozen statements to a handful.

use std::time::Instant;
use xdp_bench::table::j;
use xdp_bench::Table;
use xdp_compiler::{Pass, PassResult};
use xdp_ir::walk::{self, NodeMut};
use xdp_ir::{ElemExpr, Program};
use xdp_verify::diff::check_passes_only;
use xdp_verify::fuzz::run_fuzz;
use xdp_verify::gen::executable_program;
use xdp_verify::shrink::{shrink, stmt_count};
use xdp_verify::{CheckConfig, FuzzConfig, TestProgram};

/// Programs per oracle row. Bounded so `make e12` stays a smoke-scale
/// run; `xdpc fuzz --count N` is the open-ended entry point.
const COUNT: usize = 100;
const SEED: u64 = 7;

/// The deliberate miscompile: every float literal in an assignment
/// right-hand side drifts by +0.25. Subtly wrong, never crashing —
/// exactly the failure mode the differential oracle exists for.
struct NudgeLiterals;

impl Pass for NudgeLiterals {
    fn name(&self) -> &'static str {
        "sabotage"
    }
    fn run(&self, p: &Program) -> PassResult {
        let mut out = p.clone();
        walk::map(NodeMut::Block(&mut out.body), &mut |n| {
            if let NodeMut::Elem(ElemExpr::LitF(c)) = n {
                *c += 0.25;
            }
        });
        PassResult {
            program: out,
            changed: true,
            notes: vec!["nudged float literals".into()],
        }
    }
}

fn sabotaged_pipeline() -> Vec<(&'static str, Box<dyn Pass>)> {
    let mut passes = xdp_verify::default_passes();
    passes.push(("sabotage", Box::new(NudgeLiterals)));
    passes
}

fn main() {
    // Divergences are reported through the oracle, not the panic hook —
    // keep expected catch_unwind noise off stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let mut failures = 0usize;

    // Average generated-program size, for scale.
    let avg_stmts = (0..COUNT as u64)
        .map(|k| stmt_count(&executable_program(SEED.wrapping_add(k)).program.body))
        .sum::<usize>() as f64
        / COUNT as f64;

    // Each stage switches one more oracle on.
    let mut check = CheckConfig {
        async_exec: false,
        vm: false,
        chaos: false,
        faults: None,
        passes: false,
        mem_budget: None,
    };
    let mut stages = vec![("sim+lockstep", check.clone())];
    check.vm = true;
    stages.push(("+vm", check.clone()));
    check.async_exec = true;
    stages.push(("+async", check.clone()));
    check.passes = true;
    stages.push(("+passes", check.clone()));
    check.chaos = true;
    stages.push(("+chaos", check));

    let mut t = Table::new(
        "E12: differential fuzz sweep (generated programs, 4 procs)",
        &[
            "oracles",
            "programs",
            "avg-stmts",
            "failures",
            "ms",
            "ms/prog",
        ],
    );
    for (label, check) in stages {
        let cfg = FuzzConfig {
            check,
            max_failures: 0,
            ..FuzzConfig::new(COUNT, SEED)
        };
        let t0 = Instant::now();
        let report = run_fuzz(&cfg, &mut |_, _| {});
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        for f in &report.failures {
            eprintln!("e12: seed {} diverged [{}]: {}", f.seed, f.key, f.detail);
        }
        failures += report.failures.len();
        t.row(&[
            j::s(label),
            j::u(report.checked as u64),
            j::f(avg_stmts),
            j::u(report.failures.len() as u64),
            j::f(ms),
            j::f(ms / report.checked.max(1) as f64),
        ]);
    }
    t.print();

    // Part two: the harness must catch and minimize a planted miscompile.
    let mut t2 = Table::new(
        "E12: planted miscompile ('sabotage' nudges float literals by +0.25)",
        &[
            "seed",
            "culprit",
            "stmts-before",
            "stmts-after",
            "evals",
            "repro<=15",
        ],
    );
    let seed = (0..50)
        .find(|&s| check_passes_only(&executable_program(s), &sabotaged_pipeline()).is_some());
    match seed {
        None => {
            eprintln!("e12: no seed in 0..50 exposes the planted miscompile");
            failures += 1;
        }
        Some(seed) => {
            let tp = executable_program(seed);
            let d = check_passes_only(&tp, &sabotaged_pipeline()).expect("seed was vulnerable");
            let culprit = d.key();
            if culprit != "pass:sabotage" {
                eprintln!("e12: wrong culprit: {culprit} (expected pass:sabotage)");
                failures += 1;
            }
            let still_fails = |t: &TestProgram| {
                check_passes_only(t, &sabotaged_pipeline())
                    .map(|d2| d2.key() == "pass:sabotage")
                    .unwrap_or(false)
            };
            let before = stmt_count(&tp.program.body);
            let out = shrink(&tp, 400, &still_fails);
            let small = out.stmts <= 15;
            if !small || !still_fails(&out.program) {
                eprintln!(
                    "e12: shrink failed: {} statements, started at {before}",
                    out.stmts
                );
                failures += 1;
            }
            t2.row(&[
                j::u(seed),
                j::s(&culprit),
                j::u(before as u64),
                j::u(out.stmts as u64),
                j::u(out.evals as u64),
                j::s(if small { "yes" } else { "NO" }),
            ]);
            t2.print();
            println!("-- minimized repro --");
            print!(
                "{}",
                xdp_verify::render_repro(&out.program, "key=pass:sabotage")
            );
        }
    }

    if failures > 0 {
        let _ = std::panic::take_hook();
        eprintln!("e12: {failures} failure(s)");
        std::process::exit(1);
    }
}
