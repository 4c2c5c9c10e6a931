//! End-to-end validation of the harness itself: plant a deliberate
//! miscompile in a pass pipeline and check that (a) the differential
//! driver names the sabotaged pass as the culprit, and (b) the shrinker
//! reduces the failure to a small `.xdp` repro.

use xdp_compiler::{Pass, PassResult};
use xdp_ir::walk::{self, NodeMut};
use xdp_ir::{ElemExpr, Program};
use xdp_verify::diff::check_passes_only;
use xdp_verify::fuzz::{check_and_shrink, narrowed};
use xdp_verify::gen::executable_program;
use xdp_verify::shrink::{shrink, stmt_count};
use xdp_verify::CheckConfig;

/// A miscompiling "optimization": nudges every float literal in an
/// assignment right-hand side by +0.25. Models a pass whose rewrite is
/// subtly wrong rather than crashing.
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

/// A seed whose program assigns through a float literal, so the sabotage
/// is observable.
fn vulnerable_seed() -> u64 {
    (0..50)
        .find(|&s| check_passes_only(&executable_program(s), &sabotaged_pipeline()).is_some())
        .expect("no seed in 0..50 exercises a float literal")
}

#[test]
fn the_sabotaged_pass_is_named_as_the_culprit() {
    let seed = vulnerable_seed();
    let d = check_passes_only(&executable_program(seed), &sabotaged_pipeline())
        .expect("sabotage must diverge");
    assert_eq!(d.key(), "pass:sabotage", "{d}");
    // The clean prefix of the pipeline is NOT blamed.
    assert!(
        check_passes_only(&executable_program(seed), &xdp_verify::default_passes()).is_none(),
        "clean pipeline must pass on seed {seed}"
    );
}

#[test]
fn the_shrinker_reduces_the_sabotage_to_a_small_repro() {
    let seed = vulnerable_seed();
    let tp = executable_program(seed);
    let before = stmt_count(&tp.program.body);
    let still_fails = |t: &xdp_verify::TestProgram| {
        check_passes_only(t, &sabotaged_pipeline())
            .map(|d| d.key() == "pass:sabotage")
            .unwrap_or(false)
    };
    assert!(still_fails(&tp));
    let out = shrink(&tp, 400, &still_fails);
    assert!(still_fails(&out.program), "shrunk program must still fail");
    assert!(
        out.stmts <= 15,
        "repro has {} statements (started at {before}):\n{}",
        out.stmts,
        xdp_ir::pretty::program(&out.program.program)
    );
    // The repro is still valid, parseable xdpc input.
    let text = xdp_verify::render_repro(&out.program, "note=sabotage");
    let reparsed = xdp_lang::parse_program(&text).expect("repro must reparse");
    assert_eq!(reparsed.body.len(), out.program.program.body.len());
}

/// The full fuzz-side path (`check_and_shrink`) on a *clean* pipeline
/// finds nothing across a few seeds — and `narrowed` keeps async/chaos
/// out of pass-only rechecks.
#[test]
fn clean_pipeline_yields_no_failures() {
    for seed in [1u64, 2, 3] {
        let tp = executable_program(seed);
        let cfg = CheckConfig {
            async_exec: false,
            vm: false,
            chaos: false,
            faults: None,
            passes: true,
            mem_budget: None,
        };
        assert!(check_and_shrink(&tp, &cfg, 50).is_none(), "seed {seed}");
    }
    let n = narrowed(&CheckConfig::default(), "pass:sabotage");
    assert!(n.passes && !n.async_exec && !n.chaos);
}
