//! The fuzzing loop: generate → differentially check → shrink.
//!
//! Shared by `xdpc fuzz` and the E12 experiment binary. One run sweeps
//! `count` consecutive seeds; each divergence is shrunk to a minimal
//! still-failing program (holding the failure *key* fixed, so e.g. a
//! pass miscompile cannot shrink into an unrelated deadlock) and rendered
//! as a ready-to-replay `.xdp` repro.

use crate::diff::{check_with, CheckConfig};
use crate::gen::{executable_program_with, render_repro, GenConfig, TestProgram};
use crate::shrink::{shrink, stmt_count, DEFAULT_MAX_EVALS};

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of consecutive seeds to check, starting at `seed`.
    pub count: usize,
    /// First seed.
    pub seed: u64,
    /// Program shape.
    pub gen: GenConfig,
    /// Which oracles to run per program.
    pub check: CheckConfig,
    /// Shrinking budget per failure.
    pub max_shrink_evals: usize,
    /// Stop after this many failures (0 = never stop early).
    pub max_failures: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            count: 200,
            seed: 1,
            gen: GenConfig::default(),
            check: CheckConfig::default(),
            max_shrink_evals: DEFAULT_MAX_EVALS,
            max_failures: 1,
        }
    }
}

/// One shrunk divergence.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Seed that generated the failing program.
    pub seed: u64,
    /// Failure identity ([`crate::diff::Divergence::key`]).
    pub key: String,
    /// Human-readable divergence detail (of the *shrunk* program).
    pub detail: String,
    /// Minimized program, ready to write to a `.xdp` file.
    pub repro: String,
    /// Statement counts before/after shrinking.
    pub original_stmts: usize,
    pub shrunk_stmts: usize,
    /// Predicate evaluations the shrinker spent.
    pub shrink_evals: usize,
}

/// Sweep outcome.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Programs generated and checked.
    pub checked: usize,
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The check configuration that re-runs only the stages a failure key
/// implicates — the shrinker evaluates this hundreds of times.
pub fn narrowed(check: &CheckConfig, key: &str) -> CheckConfig {
    CheckConfig {
        async_exec: key == "executor:async" || key == "run-error:async",
        vm: key == "executor:vm" || key == "run-error:vm",
        chaos: key == "chaos",
        faults: check.faults.clone(),
        passes: key.starts_with("pass:"),
        mem_budget: if key == "plan:membound" || key == "run-error:membound" {
            check.mem_budget
        } else {
            None
        },
    }
}

/// Check one program; on divergence, shrink it and build the [`Failure`].
pub fn check_and_shrink(
    tp: &TestProgram,
    check: &CheckConfig,
    max_shrink_evals: usize,
) -> Option<Failure> {
    let d = check_with(tp, check)?;
    let key = d.key();
    let recheck = narrowed(check, &key);
    let still_fails =
        |t: &TestProgram| check_with(t, &recheck).map(|d2| d2.key()) == Some(key.clone());
    let original_stmts = stmt_count(&tp.program.body);
    let out = shrink(tp, max_shrink_evals, &still_fails);
    // Re-derive the detail from the shrunk program (the original detail
    // may reference statements that no longer exist).
    let detail = check_with(&out.program, &recheck)
        .map(|d2| d2.detail().to_string())
        .unwrap_or_else(|| d.detail().to_string());
    let note = format!("key={key}");
    Some(Failure {
        seed: tp.seed,
        key,
        detail,
        repro: render_repro(&out.program, &note),
        original_stmts,
        shrunk_stmts: out.stmts,
        shrink_evals: out.evals,
    })
}

/// Run the sweep. `progress` is called after every program with the
/// number checked so far and the failure, if that program diverged.
pub fn run_fuzz(cfg: &FuzzConfig, progress: &mut dyn FnMut(usize, Option<&Failure>)) -> FuzzReport {
    let mut report = FuzzReport::default();
    for k in 0..cfg.count {
        let seed = cfg.seed.wrapping_add(k as u64);
        let tp = executable_program_with(&cfg.gen, seed);
        let failure = check_and_shrink(&tp, &cfg.check, cfg.max_shrink_evals);
        report.checked += 1;
        progress(report.checked, failure.as_ref());
        if let Some(f) = failure {
            report.failures.push(f);
            if cfg.max_failures > 0 && report.failures.len() >= cfg.max_failures {
                break;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_clean_sweep_passes() {
        let cfg = FuzzConfig {
            count: 5,
            seed: 11,
            // Executor conformance only: the pass-prefix and chaos oracles
            // are exercised by their own tests and by `xdpc fuzz`.
            check: CheckConfig {
                async_exec: false,
                vm: true,
                chaos: false,
                faults: None,
                passes: false,
                mem_budget: None,
            },
            ..FuzzConfig::default()
        };
        let mut calls = 0usize;
        let report = run_fuzz(&cfg, &mut |_, f| {
            calls += 1;
            assert!(f.is_none(), "{:?}", f.map(|x| x.key.clone()));
        });
        assert_eq!(report.checked, 5);
        assert_eq!(calls, 5);
        assert!(report.ok());
    }

    #[test]
    fn narrowed_configs_prune_unrelated_stages() {
        let base = CheckConfig::default();
        let n = narrowed(&base, "pass:vectorize-messages");
        assert!(n.passes && !n.async_exec && !n.chaos);
        let n = narrowed(&base, "executor:lockstep");
        assert!(!n.passes && !n.async_exec && !n.chaos);
        let n = narrowed(&base, "executor:async");
        assert!(n.async_exec && !n.passes && !n.chaos);
        let n = narrowed(&base, "chaos");
        assert!(n.chaos && !n.passes && !n.async_exec);
    }
}
