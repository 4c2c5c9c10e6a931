//! The processor abstraction every machine drives, and the run protocol
//! every machine offers.
//!
//! [`crate::SimExec`] and [`crate::AsyncExec`] schedule *processors*: step
//! them, deliver matched messages, release barriers, and read their
//! environments for initialization and gather. The tree-walking
//! [`Interp`] is the reference implementation; a compiled backend (see
//! `xdp-vm`) plugs in by implementing the same trait. An implementation
//! supplies an *evaluator* — `step` over its own code form — and the
//! environment; receive completion, outstanding-receive queries and
//! barrier release are provided here over the environment's shared
//! transfer state ([`crate::transfer`]), and machine joining
//! ([`join_machine`]) is one function over it, so they cannot differ
//! between backends. What an evaluator must still match the interpreter
//! on is evaluation itself — one [`crate::StepOut`] per statement and
//! identical [`crate::OpCounts`], charged in the same order — or the
//! deterministic simulated timeline (and hence rendezvous matching)
//! diverges.

use crate::config::MachineConfig;
use crate::env::{ProcEnv, RtError};
use crate::interp::StepOut;
use crate::report::{ExecReport, Gathered};
use std::sync::Arc;
use xdp_collectives::PlanCtx;
use xdp_ir::{Section, VarId};
use xdp_machine::LostMsg;
use xdp_runtime::{Msg, Tag, Value};

/// One SPMD processor: a program counter over a per-processor program plus
/// the run-time environment (§3 symbol table, scalars, op counters).
pub trait Processor: Send {
    /// Execute one statement, returning the action and charged op counts.
    fn step(&mut self) -> Result<StepOut, RtError>;

    /// Human-readable program position, for deadlock diagnostics.
    fn position(&self) -> String;

    /// The processor's run-time environment.
    fn env(&self) -> &ProcEnv;

    /// Mutable access to the run-time environment (initialization).
    fn env_mut(&mut self) -> &mut ProcEnv;

    /// Complete a previously posted receive with its matched message.
    fn complete_recv(&mut self, req_id: u64, msg: Msg) -> Result<(), RtError> {
        self.env_mut().complete_recv(req_id, msg)
    }

    /// All outstanding (posted, uncompleted) receives, ordered by request.
    fn outstanding(&self) -> Vec<(u64, Tag)> {
        self.env().outstanding()
    }

    /// Outstanding receives that gate accessibility of `var[sec]`.
    fn outstanding_for(&self, var: VarId, sec: &Section) -> Vec<(u64, Tag)> {
        self.env().outstanding_for(var, sec)
    }

    /// Release this processor from a barrier it reported via
    /// [`crate::Action::Barrier`].
    fn pass_barrier(&mut self) {
        self.env_mut().pass_barrier()
    }
}

/// Join a machine's processors to the machine `cfg` describes: one
/// planning context priced by its cost model over its topology, so each
/// redistribution is planned once per machine, and its statement budget.
pub fn join_machine<P: Processor>(procs: &mut [P], cfg: &MachineConfig) -> Arc<PlanCtx> {
    let ctx = PlanCtx::new(cfg.cost, cfg.topo.clone());
    for p in procs {
        p.env_mut().join(ctx.clone(), cfg.max_steps);
    }
    ctx
}

/// Initialize an exclusive array on a machine's processors: each sets the
/// elements it owns to `f(index)`, in time proportional to what it owns
/// (see [`xdp_runtime::RtSymbolTable::init_owned`]). The one init path of
/// every driver.
pub fn init_exclusive<P: Processor>(procs: &mut [P], var: VarId, f: impl Fn(&[i64]) -> Value) {
    for p in procs {
        p.env_mut().symtab.init_owned(var, &f);
    }
}

/// Gather the global contents of an exclusive array from a machine's
/// processors (pid order). The one gather path of every driver.
pub fn gather<P: Processor>(procs: &[P], var: VarId) -> Gathered {
    let mut g = Gathered::new(procs[0].env().full_section(var));
    for (pid, p) in procs.iter().enumerate() {
        g.absorb(pid, &p.env().symtab, var);
    }
    g
}

/// Why a run no processor can advance is stuck, the one diagnosis of
/// every machine: the loss of a message an outstanding receive of a
/// `waiting` processor could have matched, else the deadlock `detail`
/// describes.
pub(crate) fn stuck_error<'a, P: Processor + 'a>(
    waiting: impl IntoIterator<Item = (usize, &'a P)>,
    lost: &[LostMsg],
    detail: impl FnOnce() -> String,
) -> RtError {
    let recvs = waiting
        .into_iter()
        .flat_map(|(pid, p)| p.outstanding().into_iter().map(move |r| (pid, r.1)));
    for (pid, tag) in recvs {
        if let Some(dl) = lost.iter().find(|l| l.matches(&tag, pid)) {
            return RtError::MessageLost(format!(
                "p{pid}: receive of {tag}: message from p{} permanently lost \
                 (every transmission dropped; {} attempts)",
                dl.src, dl.attempts
            ));
        }
    }
    RtError::Deadlock(detail())
}

/// A loaded machine seen through the one run protocol: initialize the
/// arrays, run to an [`ExecReport`], gather the results. Whatever follows
/// that protocol (`xdp_verify::Fingerprint::of_run`, the serving pool) is
/// written once against this trait — as `dyn Machine`, which is what
/// `xdp_verify::machine` builds, so the initializer is a `&dyn Fn`.
pub trait Machine {
    /// Set every element of exclusive array `var` to `f(index)` on its
    /// owner.
    fn init_exclusive(&mut self, var: VarId, f: &dyn Fn(&[i64]) -> Value);

    /// Run to completion. A wall-clock machine reports its wall time in
    /// microseconds as `virtual_time`.
    fn run_report(&mut self) -> Result<ExecReport, RtError>;

    /// The global contents of exclusive array `var`.
    fn gather(&self, var: VarId) -> Gathered;
}
