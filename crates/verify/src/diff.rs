//! The differential driver.
//!
//! For one generated [`TestProgram`] this module runs:
//!
//! 1. **Executor conformance** — [`Lockstep`], [`xdp_core::AsyncExec`] and
//!    the compiled VM against the [`xdp_core::SimExec`] baseline on the
//!    unoptimized program: full memory image, movement multiset, and
//!    message count must agree (plus the section-state digest for the
//!    deterministic backends). Under a redistribution memory budget the
//!    simulator must keep the unbudgeted memory image and agree with an
//!    equally budgeted `Lockstep` on everything.
//! 2. **Per-pass equivalence** — every *prefix* of the default pass
//!    pipeline, so the first pass that changes an observable value is
//!    named as the culprit.
//! 3. **Chaos conformance** — the same program under a lossy
//!    [`FaultPlan`], on the simulator and the task machine: each must
//!    reconstruct exactly the lossless memory image and message count.
//!
//! Executor/pass panics are caught and reported as divergences rather
//! than aborting a fuzz run.
//!
//! It is also where a machine gets built: [`machine`] is the one place
//! the backend × machine matrix is spelled, and [`Fingerprint::of_run`]
//! the one protocol a built machine is run by.

use crate::fingerprint::{diff_lines, Fingerprint};
use crate::gen::TestProgram;
use crate::lockstep::Lockstep;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use xdp_compiler::passes::AutoPlace;
use xdp_compiler::{Backend, Pass, PassManager};
use xdp_core::{
    AsyncExec, ExecReport, KernelRegistry, Machine, MachineConfig, MachineKind, RtError, SimExec,
    TraceConfig,
};
use xdp_fault::{FaultPlan, LinkFault};
use xdp_ir::{Decl, Program, VarId};
use xdp_runtime::Value;
use xdp_trace::{Key, KeySet};
use xdp_vm::{VmProc, VmProgram};

/// A detected disagreement. `key()` identifies the *kind* of failure so
/// the shrinker can hold it fixed while deleting everything else.
#[derive(Clone, Debug)]
pub enum Divergence {
    /// A run or a pass failed (error or panic) where the baseline
    /// succeeded.
    RunError { stage: String, detail: String },
    /// Two executors disagree on the same program.
    ExecutorMismatch { backend: String, detail: String },
    /// A pass-pipeline prefix changed an observable value.
    PassMismatch { pass: String, detail: String },
    /// The faulty run disagrees with the lossless run.
    ChaosMismatch { detail: String },
    /// The run planned under a redistribution memory budget disagrees
    /// with the unbudgeted run on observable memory — budgeted plans may
    /// legitimately move data differently (more rounds, sliced pieces),
    /// but the final memory image must be identical — or with the
    /// reference executor under the same budget on anything.
    MemBoundMismatch { detail: String },
}

impl Divergence {
    /// Stable identity: failure category plus the responsible stage.
    pub fn key(&self) -> String {
        match self {
            Divergence::RunError { stage, .. } => format!("run-error:{stage}"),
            Divergence::ExecutorMismatch { backend, .. } => format!("executor:{backend}"),
            Divergence::PassMismatch { pass, .. } => format!("pass:{pass}"),
            Divergence::ChaosMismatch { .. } => "chaos".to_string(),
            Divergence::MemBoundMismatch { .. } => "plan:membound".to_string(),
        }
    }

    pub fn detail(&self) -> &str {
        match self {
            Divergence::RunError { detail, .. }
            | Divergence::ExecutorMismatch { detail, .. }
            | Divergence::PassMismatch { detail, .. }
            | Divergence::ChaosMismatch { detail }
            | Divergence::MemBoundMismatch { detail } => detail,
        }
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.key(), self.detail())
    }
}

/// What [`check_with`] checks.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Run the async executor (task-per-processor over a worker pool).
    pub async_exec: bool,
    /// Run the compiled VM backend on the simulated machine.
    pub vm: bool,
    /// Run the chaos (fault-injected) conformance check.
    pub chaos: bool,
    /// Fault plan for the chaos check; `None` derives a uniform lossy
    /// plan from the program seed.
    pub faults: Option<FaultPlan>,
    /// Check every prefix of the default pass pipeline.
    pub passes: bool,
    /// Re-run the simulator with this redistribution memory budget
    /// (bytes per processor) and require the observable memory image to
    /// match the unbudgeted baseline. `None` skips the check.
    pub mem_budget: Option<u64>,
}

/// The budget the default check (and the shrinker's re-check) plans
/// under: small enough to push real redistributions onto the sliced
/// multi-round decompositions, and the infallible planner degrades to
/// the smallest feasible plan below it, so no program is unrunnable.
pub const DEFAULT_CHECK_BUDGET: u64 = 4096;

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            async_exec: true,
            vm: true,
            chaos: true,
            faults: None,
            passes: true,
            mem_budget: Some(DEFAULT_CHECK_BUDGET),
        }
    }
}

/// The default optimization pipeline, pass by pass, under the names the
/// passes report: the placement search, then `PassManager::paper_pipeline`
/// — what an optimizing, placing compile of IL+XDP runs.
pub fn default_passes() -> Vec<(&'static str, Box<dyn Pass>)> {
    let placed = PassManager::new().add(AutoPlace::new()).into_passes();
    let paper = PassManager::paper_pipeline().into_passes();
    (placed.into_iter().chain(paper))
        .map(|pass| (pass.name(), pass))
        .collect()
}

/// The uniform lossy plan the chaos check uses when none is supplied.
fn default_chaos_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::uniform(
        seed.wrapping_add(1),
        LinkFault {
            drop: 0.1,
            dup: 0.1,
            reorder: 0.2,
            delay_p: 0.2,
            delay: 200.0,
        },
    );
    plan.rto = 400.0;
    plan
}

/// One backend's outcome, or a String describing the failure (errors and
/// panics alike).
type RunResult = Result<Fingerprint, String>;

/// The text a panic was raised with, if its payload is text: what every
/// caught panic in the workspace is reported by.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    format!(
        "panic: {}",
        panic_message(&*e).unwrap_or("<non-string payload>")
    )
}

/// Deterministic initial value for declaration ordinal `o` at `idx` —
/// the one convention every fingerprinted run starts from.
/// Integer-valued, so every downstream dyadic computation is exact, and
/// index-dependent, so permuted elements are detected.
pub fn init_value(o: usize, idx: &[i64]) -> Value {
    let mut v = (o as i64 + 1) * 1000;
    for (k, x) in idx.iter().enumerate() {
        v += x * (k as i64 + 1);
    }
    Value::F64(v as f64)
}

/// Load `program` onto the machine `cfg` describes: interpreter or
/// compiled-VM processors (`backend`) on the simulator or the task
/// machine (`kind`). The one place the backend × machine matrix is
/// spelled — the serving pool, `xdpc`, the oracles below and the
/// experiments all build through it, so a `cfg` field cannot reach one
/// arm and miss another. It lives here because this is the lowest crate
/// that sees `Backend`, both processors and both machines.
pub fn machine(
    kind: MachineKind,
    backend: Backend,
    program: Arc<Program>,
    kernels: KernelRegistry,
    cfg: MachineConfig,
) -> Box<dyn Machine> {
    match backend {
        Backend::Interp => match kind {
            MachineKind::Sim => Box::new(SimExec::new(program, kernels, cfg)),
            MachineKind::Tasks => Box::new(AsyncExec::new(program, kernels, cfg)),
        },
        Backend::Vm => {
            // Compiled once; `VmProgram::compile` prepares redistributions
            // the way `SimExec::new` / `AsyncExec::new` do.
            let prog = VmProgram::compile(program, &kernels);
            let procs = (0..cfg.nprocs)
                .map(|pid| VmProc::new(prog.clone(), pid, cfg.nprocs, cfg.checked))
                .collect();
            match kind {
                MachineKind::Sim => Box::new(SimExec::from_procs(procs, cfg)),
                MachineKind::Tasks => Box::new(AsyncExec::from_procs(procs, cfg)),
            }
        }
    }
}

impl Fingerprint {
    /// The one run protocol: initialize every declared array to
    /// [`init_value`], run, gather every array, and fingerprint memory,
    /// trace and message count. The report rides along for callers that
    /// also want times or counters.
    pub fn of_run(
        exec: &mut dyn Machine,
        decls: &[Decl],
    ) -> Result<(Fingerprint, ExecReport), RtError> {
        for o in 0..decls.len() {
            exec.init_exclusive(VarId(o as u32), &move |idx| init_value(o, idx));
        }
        let report = exec.run_report()?;
        let mut fp = Fingerprint::default();
        for (o, d) in decls.iter().enumerate() {
            fp.record_memory(&d.name, &exec.gather(VarId(o as u32)));
        }
        fp.record_trace(&report.trace);
        fp.messages = report.net.messages;
        Ok((fp, report))
    }
}

/// Fingerprint `p` on the machine `build` loads it onto, turning run
/// errors and panics alike into the `Err` text.
fn run_on(p: &Arc<Program>, build: impl FnOnce(Arc<Program>) -> Box<dyn Machine>) -> RunResult {
    catch_unwind(AssertUnwindSafe(|| {
        let mut exec = build(p.clone());
        match Fingerprint::of_run(exec.as_mut(), &p.decls) {
            Ok((fp, _)) => Ok(fp),
            Err(e) => Err(e.to_string()),
        }
    }))
    .unwrap_or_else(|e| Err(panic_text(e)))
}

/// The machine the oracles run on. It records the movement trace and no
/// more: every oracle compares [`Fingerprint`]s ([`run_on`] drops the
/// report), and a fingerprint reads nothing else of a trace.
fn oracle_cfg(nprocs: usize, faults: Option<&FaultPlan>, mem_budget: Option<u64>) -> MachineConfig {
    let mut cfg = MachineConfig::new(nprocs).with_trace(TraceConfig::movement());
    cfg.cost.mem_budget = mem_budget;
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan.clone());
    }
    cfg
}

/// Fingerprint `p` on the machine [`machine`] builds for `cfg`, with the
/// kernels generated programs use.
fn run_built(
    p: &Arc<Program>,
    kind: MachineKind,
    backend: Backend,
    cfg: MachineConfig,
) -> RunResult {
    run_on(p, |p| {
        machine(kind, backend, p, KernelRegistry::standard(), cfg)
    })
}

/// Run under the virtual-time simulator.
pub fn run_sim(p: &Arc<Program>, nprocs: usize, faults: Option<&FaultPlan>) -> RunResult {
    run_sim_budget(p, nprocs, faults, None)
}

/// Run under the virtual-time simulator with an optional redistribution
/// memory budget on the runtime planner.
fn run_sim_budget(
    p: &Arc<Program>,
    nprocs: usize,
    faults: Option<&FaultPlan>,
    mem_budget: Option<u64>,
) -> RunResult {
    let cfg = oracle_cfg(nprocs, faults, mem_budget);
    run_built(p, MachineKind::Sim, Backend::Interp, cfg)
}

/// Run the compiled VM backend under the virtual-time simulator. The VM
/// claims step-for-step conformance with the interpreter, so its
/// fingerprint must match the simulator baseline *exactly* — memory,
/// movement, section states, and message count.
pub fn run_vm(p: &Arc<Program>, nprocs: usize, faults: Option<&FaultPlan>) -> RunResult {
    let cfg = oracle_cfg(nprocs, faults, None);
    run_built(p, MachineKind::Sim, Backend::Vm, cfg)
}

/// Run under the lockstep executor, planning redistributions under
/// `mem_budget` like the machine it is compared with.
pub fn run_lockstep(p: &Arc<Program>, nprocs: usize, mem_budget: Option<u64>) -> RunResult {
    let cfg = oracle_cfg(nprocs, None, mem_budget);
    run_on(p, |p| {
        Box::new(Lockstep::new(p, KernelRegistry::standard(), cfg))
    })
}

/// Run under the async executor (task-per-processor over a fixed worker
/// pool). A stuck candidate fails the moment its last task parks.
pub fn run_async(p: &Arc<Program>, nprocs: usize) -> RunResult {
    let cfg = oracle_cfg(nprocs, None, None);
    run_built(p, MachineKind::Tasks, Backend::Interp, cfg)
}

/// Full differential check with the default configuration.
pub fn check_program(tp: &TestProgram) -> Option<Divergence> {
    check_with(tp, &CheckConfig::default())
}

/// Full differential check.
pub fn check_with(tp: &TestProgram, cfg: &CheckConfig) -> Option<Divergence> {
    let prog = Arc::new(tp.program.clone());

    // Baseline: the unoptimized program under the simulator.
    let base = match run_sim(&prog, tp.nprocs, None) {
        Ok(fp) => fp,
        Err(e) => {
            return Some(Divergence::RunError {
                stage: "sim".into(),
                detail: e,
            })
        }
    };

    // Executor conformance. Lockstep and the compiled VM are fully
    // deterministic, so every fingerprint component must match to the bit
    // — including the section-state digest; on the async machine,
    // wall-clock recording order makes the state digest its own, weaker
    // check, and only the timing-free components are compared.
    let leg = |backend: &str, states: bool, got: RunResult| match got {
        Ok(fp) => conform(&base, &fp, states).map(|detail| Divergence::ExecutorMismatch {
            backend: backend.into(),
            detail,
        }),
        Err(detail) => Some(Divergence::RunError {
            stage: backend.into(),
            detail,
        }),
    };
    if let Some(d) = leg("lockstep", true, run_lockstep(&prog, tp.nprocs, None)) {
        return Some(d);
    }
    if cfg.async_exec {
        if let Some(d) = leg("async", false, run_async(&prog, tp.nprocs)) {
            return Some(d);
        }
    }
    if cfg.vm {
        if let Some(d) = leg("vm", true, run_vm(&prog, tp.nprocs, None)) {
            return Some(d);
        }
    }

    // Memory-bounded planning conformance: re-run the simulator with the
    // runtime redistribution planner under a budget. Against the
    // unbudgeted baseline the budgeted plans may slice pieces across more
    // rounds, so movement and message counts legitimately differ — but
    // observable memory must not. Against the reference planning under
    // the same budget nothing may differ.
    if let Some(budget) = cfg.mem_budget {
        let membound = |detail| Some(Divergence::MemBoundMismatch { detail });
        let fp = match run_sim_budget(&prog, tp.nprocs, None, Some(budget)) {
            Ok(fp) => fp,
            Err(e) => {
                return Some(Divergence::RunError {
                    stage: "membound".into(),
                    detail: e,
                })
            }
        };
        if let Some(d) = diff_lines("memory", &base.memory_all(), &fp.memory_all()) {
            return membound(d);
        }
        match run_lockstep(&prog, tp.nprocs, Some(budget)) {
            Ok(reference) => {
                if let Some(d) = conform(&fp, &reference, true) {
                    return membound(format!("budgeted sim vs budgeted lockstep: {d}"));
                }
            }
            Err(e) => return membound(format!("budgeted lockstep failed: {e}")),
        }
    }

    // Per-pass-prefix equivalence over the observable arrays.
    if cfg.passes {
        if let Some(d) = check_passes(tp, &default_passes(), &base) {
            return Some(d);
        }
    }

    // Chaos conformance.
    if cfg.chaos {
        let plan = cfg
            .faults
            .clone()
            .unwrap_or_else(|| default_chaos_plan(tp.seed));
        if let Some(d) = check_chaos(tp, &base, &plan) {
            return Some(d);
        }
    }
    None
}

/// [`diff_lines`] on the text of two key sets that differ.
fn diff_keys<K: Key>(what: &str, a: &KeySet<K>, b: &KeySet<K>) -> Option<String> {
    (a != b).then(|| {
        diff_lines(what, &a.lines(), &b.lines())
            .unwrap_or_else(|| format!("{what}: one text, unequal sections"))
    })
}

/// Conformance of `other` to the baseline `base` for the same program.
fn conform(base: &Fingerprint, other: &Fingerprint, states: bool) -> Option<String> {
    if let Some(d) = diff_lines("memory", &base.memory_all(), &other.memory_all()) {
        return Some(d);
    }
    if let Some(d) = diff_keys("movement", &base.movement, &other.movement) {
        return Some(d);
    }
    if states {
        if let Some(d) = diff_keys("states", &base.states, &other.states) {
            return Some(d);
        }
    }
    if base.messages != other.messages {
        return Some(format!("messages: {} vs {}", base.messages, other.messages));
    }
    None
}

/// Check every prefix of `passes` against the unoptimized baseline
/// (`base` must be the baseline fingerprint of `tp.program`). Observable
/// values only: optimizations legitimately change movement and scratch,
/// and a placement legally moves owners.
fn check_passes(
    tp: &TestProgram,
    passes: &[(&'static str, Box<dyn Pass>)],
    base: &Fingerprint,
) -> Option<Divergence> {
    let base_mem = base.values_of(&tp.observable);
    let mut cur = tp.program.clone();
    for (name, pass) in passes {
        let out = catch_unwind(AssertUnwindSafe(|| pass.run(&cur).program));
        cur = match out {
            Ok(p) => p,
            Err(e) => {
                return Some(Divergence::PassMismatch {
                    pass: name.to_string(),
                    detail: panic_text(e),
                })
            }
        };
        let fp = match run_sim(&Arc::new(cur.clone()), tp.nprocs, None) {
            Ok(fp) => fp,
            Err(e) => {
                return Some(Divergence::PassMismatch {
                    pass: name.to_string(),
                    detail: format!("run after prefix failed: {e}"),
                })
            }
        };
        if let Some(d) = diff_lines(
            "observable values",
            &base_mem,
            &fp.values_of(&tp.observable),
        ) {
            return Some(Divergence::PassMismatch {
                pass: name.to_string(),
                detail: d,
            });
        }
    }
    None
}

/// Baseline-only convenience used by pass-bug hunts (no async/chaos):
/// runs the simulator baseline, then the pass prefixes.
pub fn check_passes_only(
    tp: &TestProgram,
    passes: &[(&'static str, Box<dyn Pass>)],
) -> Option<Divergence> {
    let base = match run_sim(&Arc::new(tp.program.clone()), tp.nprocs, None) {
        Ok(fp) => fp,
        Err(e) => {
            return Some(Divergence::RunError {
                stage: "sim".into(),
                detail: e,
            })
        }
    };
    check_passes(tp, passes, &base)
}

/// The faulty run, on the simulator and on the task machine, must
/// reconstruct the lossless memory image and message count. A
/// `MessageLost` diagnosis is only acceptable when the plan itself
/// contains permanent kills.
fn check_chaos(tp: &TestProgram, base: &Fingerprint, plan: &FaultPlan) -> Option<Divergence> {
    let prog = Arc::new(tp.program.clone());
    for (kind, on) in [
        (MachineKind::Sim, ""),
        (MachineKind::Tasks, "task machine: "),
    ] {
        let mismatch = |detail: String| {
            Some(Divergence::ChaosMismatch {
                detail: format!("{on}{detail}"),
            })
        };
        let cfg = oracle_cfg(tp.nprocs, Some(plan), None);
        match run_built(&prog, kind, Backend::Interp, cfg) {
            Ok(fp) => {
                if let Some(d) = diff_lines("memory", &base.memory_all(), &fp.memory_all()) {
                    return mismatch(d);
                }
                if base.messages != fp.messages {
                    return mismatch(format!(
                        "messages: {} lossless vs {} faulty (dedup must not double-count)",
                        base.messages, fp.messages
                    ));
                }
            }
            // An injected permanent kill was correctly diagnosed.
            Err(e) if !plan.kill.is_empty() && e.contains("permanently lost") => {}
            Err(e) => return mismatch(format!("faulty run failed: {e}")),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::executable_program;

    #[test]
    fn default_passes_are_the_passes_an_optimizing_compile_runs() {
        let src = "real A[1:8] distribute (BLOCK) onto 2\n\
                   do i = 1, 8\n  iown(A[i]) : { A[i] = A[i] + 1.0 }\nenddo\n";
        let opts = xdp_compiler::CompileOptions::default().optimized().placed();
        let compiled = xdp_compiler::compile(src, &opts).expect("compiles");
        let ran: Vec<&str> = compiled
            .trace
            .passes
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        let oracle: Vec<&str> = default_passes().iter().map(|(n, _)| *n).collect();
        assert!(!oracle.is_empty());
        assert_eq!(ran, oracle);
    }

    #[test]
    fn a_generated_program_passes_all_checks() {
        let tp = executable_program(7);
        assert!(check_program(&tp).is_none());
    }

    #[test]
    fn divergence_keys_are_stable() {
        let d = Divergence::PassMismatch {
            pass: "vectorize-messages".into(),
            detail: "x".into(),
        };
        assert_eq!(d.key(), "pass:vectorize-messages");
        assert!(d.to_string().contains("pass:vectorize-messages"));
        let d = Divergence::ExecutorMismatch {
            backend: "async".into(),
            detail: "y".into(),
        };
        assert_eq!(d.key(), "executor:async");
    }
}
