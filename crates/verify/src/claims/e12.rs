//! E12 — differential fuzzing of executors and passes.
//!
//! Part one sweeps generated executable programs through the oracle
//! stack one stage at a time — simulator vs lockstep, plus the compiled
//! VM, plus the task machine, plus per-pass prefix equivalence, plus
//! chaos (faulty vs lossless) — and reports the per-program cost of each
//! oracle. Every row is a conformance statement: zero failures.
//!
//! Part two validates the harness itself end to end: a deliberately
//! miscompiling pass ("sabotage", nudges float literals by +0.25) is
//! appended to the real pipeline; the driver must name it — not a clean
//! pass — as the culprit, and the shrinker must reduce the divergence to
//! a minimal `.xdp` repro (the acceptance bar is ≤ 15 statements).
//!
//! Oracle cost grows from the two-executor baseline (the task machine
//! pays worker spawn + real message latency, chaos pays a second faulty
//! run per program); the planted bug shrinks from a few dozen statements
//! to a handful.

use crate::diff::check_passes_only;
use crate::fuzz::run_fuzz;
use crate::gen::executable_program;
use crate::shrink::{shrink, stmt_count};
use crate::{CheckConfig, FuzzConfig, TestProgram};
use std::time::Instant;
use xdp_bench::table::{j, Table};
use xdp_compiler::{Pass, PassResult};
use xdp_ir::walk::{self, NodeMut};
use xdp_ir::{ElemExpr, Program};

/// Programs per oracle row. Bounded so the claim stays a smoke-scale
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
    let mut passes = crate::default_passes();
    passes.push(("sabotage", Box::new(NudgeLiterals)));
    passes
}

/// Zero divergences at every oracle stage; the planted miscompile is
/// blamed on `pass:sabotage` and shrunk to at most 15 statements.
pub fn e12() -> Vec<Table> {
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
        if let Some(f) = report.failures.first() {
            panic!(
                "E12: {label}: seed {} diverged [{}]: {}",
                f.seed, f.key, f.detail
            );
        }
        t.row(&[
            j::s(label),
            j::u(report.checked as u64),
            j::f(avg_stmts),
            j::u(report.failures.len() as u64),
            j::f(ms),
            j::f(ms / report.checked.max(1) as f64),
        ]);
    }

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
        .find(|&s| check_passes_only(&executable_program(s), &sabotaged_pipeline()).is_some())
        .expect("E12: no seed in 0..50 exposes the planted miscompile");
    let tp = executable_program(seed);
    let d = check_passes_only(&tp, &sabotaged_pipeline()).expect("seed was vulnerable");
    let culprit = d.key();
    assert_eq!(culprit, "pass:sabotage", "E12: seed {seed}: wrong culprit");
    let still_fails = |t: &TestProgram| {
        check_passes_only(t, &sabotaged_pipeline())
            .map(|d2| d2.key() == "pass:sabotage")
            .unwrap_or(false)
    };
    let before = stmt_count(&tp.program.body);
    let out = shrink(&tp, 400, &still_fails);
    assert!(
        out.stmts <= 15 && still_fails(&out.program),
        "E12: shrink failed: {} statements, started at {before}",
        out.stmts
    );
    t2.row(&[
        j::u(seed),
        j::s(&culprit),
        j::u(before as u64),
        j::u(out.stmts as u64),
        j::u(out.evals as u64),
        j::s("yes"),
    ]);
    t2.note(&format!(
        "-- minimized repro --\n{}",
        crate::render_repro(&out.program, "key=pass:sabotage")
    ));
    vec![t, t2]
}
