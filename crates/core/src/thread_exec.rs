//! The real-parallel executor: one OS thread per simulated processor over a
//! shared [`ThreadNet`].
//!
//! Used for wall-clock (Criterion) measurements and to validate that the
//! virtual-time simulator and a genuinely concurrent execution compute the
//! same final state. Virtual-time accounting does not apply here; the
//! report carries wall time and traffic counters, plus (when enabled) a
//! trace whose timestamps are wall-clock microseconds since run start.
//! The *movement multiset* of that trace — see
//! [`xdp_trace::Trace::movement_multiset`] — is backend-independent, so a
//! threaded trace must contain exactly the same send/recv/wire events as a
//! simulated trace of the same program.

use crate::env::RtError;
use crate::interp::{Action, Interp, StepNote};
use crate::kernels::KernelRegistry;
use crate::proc::Processor;
use crate::report::Gathered;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use xdp_collectives::PlanCtx;
use xdp_fault::{FaultPlan, FaultStats, RecvFailure};
use xdp_ir::{Program, VarId};
use xdp_machine::{CostModel, NetStats, ThreadNet, Topology};
use xdp_runtime::{Msg, Tag, Value};
use xdp_trace::{Trace, TraceConfig, TraceEvent, TraceKind, WaitCause};

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadReport {
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
    /// Network counters.
    pub net: NetStats,
    /// Final per-processor symbol-table statistics.
    pub symtab: Vec<xdp_runtime::symtab::SymtabStats>,
    /// Recorded trace (wall-clock microseconds; empty unless enabled).
    pub trace: Trace,
    /// Fault-injection/delivery counters (all zero without a fault plan).
    pub faults: FaultStats,
}

/// Configuration for the threaded executor.
#[derive(Clone, Debug)]
pub struct ThreadConfig {
    /// Number of processors (threads).
    pub nprocs: usize,
    /// Checked runtime?
    pub checked: bool,
    /// How long a blocked receive may wait before the run is declared
    /// deadlocked.
    pub recv_timeout: Duration,
    /// What to record in the execution trace.
    pub trace: TraceConfig,
    /// Fault-injection plan (inactive by default; `rto`/`delay` are
    /// wall-clock microseconds on this backend).
    pub faults: FaultPlan,
    /// Per-thread stack size override (bytes). `None` uses the OS default.
    pub stack_size: Option<usize>,
    /// Cost model the redistribution planner prices schedules with (its
    /// `mem_budget` bounds their staging); wall time is not modelled.
    pub cost: CostModel,
    /// Interconnect shape the planner prices schedules over.
    pub topo: Topology,
}

impl ThreadConfig {
    /// Defaults: checked, 5-second deadlock timeout, no tracing, no faults.
    pub fn new(nprocs: usize) -> ThreadConfig {
        ThreadConfig {
            nprocs,
            checked: true,
            recv_timeout: Duration::from_secs(5),
            trace: TraceConfig::off(),
            faults: FaultPlan::none(),
            stack_size: None,
            cost: CostModel::default_1993(),
            topo: Topology::Uniform,
        }
    }

    /// Set the trace configuration.
    pub fn with_trace(mut self, trace: TraceConfig) -> ThreadConfig {
        self.trace = trace;
        self
    }

    /// Set the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> ThreadConfig {
        self.faults = faults;
        self
    }
}

/// The threaded executor. Mirrors [`crate::SimExec`]'s init/run/gather API.
///
/// Generic over the [`Processor`] implementation; defaults to the
/// tree-walking [`Interp`]. Compiled backends construct via
/// [`ThreadExec::from_procs`].
pub struct ThreadExec<P: Processor = Interp> {
    cfg: ThreadConfig,
    interps: Vec<P>,
    plan_ctx: Arc<PlanCtx>,
}

impl ThreadExec {
    /// Load `program` onto every processor.
    pub fn new(program: Arc<Program>, kernels: KernelRegistry, cfg: ThreadConfig) -> ThreadExec {
        let n = cfg.nprocs;
        // Segment shapes must accommodate any planned redistributions, and
        // every thread must plan with identical inputs so tags agree.
        let program = xdp_collectives::prepare_arc(program);
        let interps = (0..n)
            .map(|pid| Interp::new(program.clone(), kernels.clone(), pid, n, cfg.checked))
            .collect();
        ThreadExec::from_procs(interps, cfg)
    }
}

impl<P: Processor> ThreadExec<P> {
    /// Drive pre-built processors (one per pid, in pid order). The caller
    /// must have prepared the program identically on every processor; all
    /// of them join this machine's one planning context here.
    pub fn from_procs(mut procs: Vec<P>, cfg: ThreadConfig) -> ThreadExec<P> {
        assert_eq!(procs.len(), cfg.nprocs, "one processor per pid");
        let plan_ctx = crate::proc::join_machine(&mut procs, cfg.cost, cfg.topo.clone());
        ThreadExec {
            cfg,
            interps: procs,
            plan_ctx,
        }
    }

    /// Initialize an exclusive array (owned elements on each processor).
    pub fn init_exclusive(&mut self, var: VarId, f: impl Fn(&[i64]) -> Value) {
        crate::proc::init_exclusive(&mut self.interps, var, f);
    }

    /// The planning context this machine's processors share.
    pub fn plan_ctx(&self) -> &PlanCtx {
        &self.plan_ctx
    }

    /// Run all processors concurrently to completion.
    pub fn run(&mut self) -> Result<ThreadReport, RtError> {
        let n = self.cfg.nprocs;
        let net = ThreadNet::with_faults(n, self.cfg.faults.clone());
        let barrier = Arc::new(Barrier::new(n));
        let timeout = self.cfg.recv_timeout;
        let tcfg = self.cfg.trace;
        let start = Instant::now();
        let stack = self.cfg.stack_size;
        // Threads park on the gate until every spawn has succeeded, so a
        // mid-loop spawn failure (OS thread limits at large P) can cancel
        // the already-spawned threads instead of leaving them blocked at
        // the barrier forever.
        let gate = Arc::new(StartGate::default());
        let results: Vec<Result<Vec<TraceEvent>, RtError>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            let mut spawn_err = None;
            for (pid, interp) in self.interps.iter_mut().enumerate() {
                let net = net.clone();
                let barrier = barrier.clone();
                let gate = gate.clone();
                let mut builder = std::thread::Builder::new().name(format!("xdp-p{pid}"));
                if let Some(bytes) = stack {
                    builder = builder.stack_size(bytes);
                }
                let spawned = builder.spawn_scoped(scope, move || {
                    if !gate.wait() {
                        return Ok(Vec::new());
                    }
                    run_proc(interp, &net, &barrier, timeout, tcfg, start)
                });
                match spawned {
                    Ok(h) => handles.push(h),
                    Err(e) => {
                        spawn_err = Some(RtError::SpawnFailed(format!(
                            "p{pid}: the OS refused processor thread {pid} of {n} ({e}); \
                             thread-per-processor execution caps at OS thread limits — \
                             use the async executor (AsyncExec), which multiplexes all \
                             {n} processors over a fixed worker pool"
                        )));
                        break;
                    }
                }
            }
            gate.open(spawn_err.is_none());
            let mut results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("proc panicked"))
                .collect();
            if let Some(e) = spawn_err {
                results.push(Err(e));
            }
            results
        });
        let wall = start.elapsed();
        let mut trace = Trace::new(n);
        trace.end = wall.as_secs_f64() * 1e6;
        for r in results {
            trace.events.extend(r?);
        }
        if self.cfg.trace.instants {
            trace
                .events
                .extend(crate::report::fault_trace_events(&net.fault_events()));
        }
        let symtab = self.interps.iter().map(|i| i.env().symtab.stats).collect();
        Ok(ThreadReport {
            wall,
            net: net.stats(),
            symtab,
            trace,
            faults: net.fault_stats(),
        })
    }

    /// Gather the global contents of an exclusive array after execution.
    pub fn gather(&self, var: VarId) -> Gathered {
        crate::proc::gather(&self.interps, var)
    }
}

/// Drive one processor against the shared network.
fn run_proc<P: Processor>(
    interp: &mut P,
    net: &ThreadNet,
    barrier: &Barrier,
    timeout: Duration,
    tcfg: TraceConfig,
    start: Instant,
) -> Result<Vec<TraceEvent>, RtError> {
    let pid = interp.env().pid;
    // Decl names are cloned up front so the recorder never borrows the
    // interpreter across `interp.step()`.
    let mut rec = RecorderData::new(interp, tcfg, start);
    loop {
        // Opportunistically complete any receive whose message has already
        // arrived, so `accessible()` polls stay live.
        for (req, tag) in interp.outstanding() {
            let t0 = rec.now();
            if let Some(msg) = net.recv(&tag, pid, Duration::ZERO) {
                rec.completed(pid, req, &msg, t0);
                interp.complete_recv(req, msg)?;
            }
        }
        let t0 = rec.now();
        let out = interp.step()?;
        let sid = out.sid;
        if tcfg.spans {
            let t1 = rec.now();
            if t1 > t0 {
                rec.events.push(TraceEvent {
                    sid,
                    ..TraceEvent::span(TraceKind::Compute, pid, t0, t1)
                });
            }
        }
        if tcfg.instants && out.ops.symtab_ops > 0 {
            rec.events.push(TraceEvent {
                sid,
                bytes: out.ops.symtab_ops,
                ..TraceEvent::instant(TraceKind::SymtabQuery, pid, rec.now())
            });
        }
        if tcfg.instants {
            match &out.note {
                None => {}
                Some(StepNote::Kernel { name, flops }) => {
                    rec.events.push(TraceEvent {
                        sid,
                        bytes: *flops,
                        detail: Some(name.clone()),
                        ..TraceEvent::instant(TraceKind::KernelInvoke, pid, rec.now())
                    });
                }
                Some(StepNote::Collective {
                    var,
                    strategy,
                    pieces,
                }) => {
                    rec.events.push(TraceEvent {
                        sid,
                        var: Some(var.clone()),
                        detail: Some(format!("{strategy} x{pieces}")),
                        ..TraceEvent::instant(TraceKind::CollectiveRound, pid, rec.now())
                    });
                }
            }
        }
        match out.action {
            Action::Continue => {}
            Action::Done => break,
            Action::Send { msg, dest } => {
                if tcfg.spans {
                    let t = rec.now();
                    rec.events.push(TraceEvent {
                        sid,
                        var: rec.var_name(msg.tag.var),
                        sec: Some(msg.tag.sec.to_string()),
                        bytes: msg.payload_bytes(),
                        ..TraceEvent::span(TraceKind::SendInit, pid, t, t)
                    });
                }
                match dest {
                    None => net.send(msg, None),
                    Some(pids) => {
                        for q in pids {
                            net.send(msg.clone(), Some(vec![q]));
                        }
                    }
                }
            }
            Action::PostRecv { tag, req_id } => {
                let t = rec.now();
                if tcfg.spans {
                    rec.events.push(TraceEvent {
                        sid,
                        var: rec.var_name(tag.var),
                        sec: Some(tag.sec.to_string()),
                        msg_id: Some(req_id),
                        ..TraceEvent::span(TraceKind::RecvPost, pid, t, t)
                    });
                }
                if tcfg.instants {
                    rec.events.push(TraceEvent {
                        sid,
                        var: rec.var_name(tag.var),
                        sec: Some(tag.sec.to_string()),
                        detail: Some("transitional".into()),
                        ..TraceEvent::instant(TraceKind::SectionState, pid, t)
                    });
                }
                if let Some(s) = sid {
                    rec.recv_sid.insert(req_id, s);
                }
                // Nothing else to do eagerly; the message is claimed at the
                // next opportunistic poll or blocking wait.
            }
            Action::BlockOn { var, sec } => {
                // Service the outstanding receives that gate this section.
                let gating = interp.outstanding_for(var, &sec);
                if gating.is_empty() {
                    return Err(deadlock_error(pid, var, &sec));
                }
                let (req, tag) = gating[0].clone();
                let t0 = rec.now();
                match net.recv_diag(&tag, pid, timeout) {
                    Ok(msg) => {
                        if tcfg.spans {
                            let t1 = rec.now();
                            if t1 > t0 {
                                rec.events.push(TraceEvent {
                                    cause: WaitCause::Message(req),
                                    msg_id: Some(req),
                                    ..TraceEvent::span(TraceKind::Wait, pid, t0, t1)
                                });
                            }
                        }
                        rec.completed(pid, req, &msg, t0);
                        interp.complete_recv(req, msg)?;
                    }
                    Err(fail) => return Err(recv_error(pid, &tag, timeout, fail)),
                }
            }
            Action::Barrier => {
                let t0 = rec.now();
                barrier.wait();
                if tcfg.spans {
                    let t1 = rec.now();
                    if t1 > t0 {
                        rec.events.push(TraceEvent {
                            cause: WaitCause::Barrier,
                            ..TraceEvent::span(TraceKind::Wait, pid, t0, t1)
                        });
                    }
                }
                interp.pass_barrier();
            }
        }
    }
    // Drain leftover outstanding receives so the final state is coherent.
    for (req, tag) in interp.outstanding() {
        let t0 = rec.now();
        match net.recv_diag(&tag, pid, timeout) {
            Ok(msg) => {
                if tcfg.spans {
                    let t1 = rec.now();
                    if t1 > t0 {
                        rec.events.push(TraceEvent {
                            cause: WaitCause::Quiesce,
                            msg_id: Some(req),
                            ..TraceEvent::span(TraceKind::Wait, pid, t0, t1)
                        });
                    }
                }
                rec.completed(pid, req, &msg, t0);
                interp.complete_recv(req, msg)?;
            }
            Err(RecvFailure::Timeout) => return Err(unfinished_recv_error(pid, &tag, timeout)),
            Err(fail) => return Err(recv_error(pid, &tag, timeout, fail)),
        }
    }
    Ok(rec.events)
}

/// Block newly spawned processor threads until the executor knows every
/// spawn succeeded; `open(false)` cancels them before they touch the
/// barrier.
#[derive(Default)]
struct StartGate {
    state: std::sync::Mutex<Option<bool>>,
    cv: std::sync::Condvar,
}

impl StartGate {
    /// Wait for the verdict; `true` means run, `false` means cancel.
    fn wait(&self) -> bool {
        let mut s = self.state.lock().unwrap();
        while s.is_none() {
            s = self.cv.wait(s).unwrap();
        }
        s.unwrap()
    }

    fn open(&self, go: bool) {
        *self.state.lock().unwrap() = Some(go);
        self.cv.notify_all();
    }
}

/// Map a delivery-layer failure to the executor's named diagnosis.
/// Shared with the async executor so diagnoses are text-identical.
pub(crate) fn recv_error(pid: usize, tag: &Tag, timeout: Duration, fail: RecvFailure) -> RtError {
    match fail {
        RecvFailure::Timeout => RtError::RecvTimeout(format!(
            "p{pid}: receive of {tag} timed out after {timeout:?}"
        )),
        RecvFailure::Lost { attempts } => RtError::MessageLost(format!(
            "p{pid}: receive of {tag}: message permanently lost \
             (every transmission dropped; {attempts} attempts)"
        )),
    }
}

/// A section is blocked with nothing that could ever unblock it. Shared
/// with the async executor so diagnoses are text-identical.
pub(crate) fn deadlock_error(pid: usize, var: VarId, sec: &xdp_ir::Section) -> RtError {
    RtError::Deadlock(format!(
        "p{pid}: blocked on {var}{sec} with no outstanding receive"
    ))
}

/// The program-end drain timed out with a receive still pending. Shared
/// with the async executor so diagnoses are text-identical.
pub(crate) fn unfinished_recv_error(pid: usize, tag: &Tag, timeout: Duration) -> RtError {
    RtError::RecvTimeout(format!(
        "p{pid}: unfinished receive of {tag} at program end \
         (no message after {timeout:?})"
    ))
}

/// Self-contained per-thread recorder state (no borrow of the
/// interpreter: declaration names are cloned at thread start). Shared
/// with the async executor, whose tasks record identically.
pub(crate) struct RecorderData {
    pub(crate) cfg: TraceConfig,
    pub(crate) start: Instant,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) names: Vec<String>,
    pub(crate) recv_sid: std::collections::HashMap<u64, u32>,
}

impl RecorderData {
    /// Fresh recorder for `interp`'s processor.
    pub(crate) fn new<P: Processor>(interp: &P, cfg: TraceConfig, start: Instant) -> RecorderData {
        RecorderData {
            cfg,
            start,
            events: Vec::new(),
            names: interp.env().decls.iter().map(|d| d.name.clone()).collect(),
            recv_sid: std::collections::HashMap::new(),
        }
    }

    pub(crate) fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }

    pub(crate) fn var_name(&self, var: VarId) -> Option<String> {
        self.names.get(var.index()).cloned()
    }

    /// Record the wire-transit edge + recv-complete pair for a delivered
    /// message, mirroring the simulator's `drain_due`.
    pub(crate) fn completed(&mut self, pid: usize, req: u64, msg: &Msg, t0: f64) {
        if !self.cfg.enabled() {
            return;
        }
        let sid = self.recv_sid.remove(&req);
        let var = self.var_name(msg.tag.var);
        let sec = Some(msg.tag.sec.to_string());
        let bytes = msg.payload_bytes();
        let now = self.now();
        if self.cfg.messages {
            self.events.push(TraceEvent {
                sid,
                var: var.clone(),
                sec: sec.clone(),
                bytes,
                src: Some(msg.src as u32),
                msg_id: Some(req),
                ..TraceEvent::span(TraceKind::WireTransit, pid, t0, now)
            });
        }
        if self.cfg.spans {
            self.events.push(TraceEvent {
                sid,
                var: var.clone(),
                sec: sec.clone(),
                bytes,
                msg_id: Some(req),
                ..TraceEvent::span(TraceKind::RecvComplete, pid, t0, now)
            });
        }
        if self.cfg.instants {
            self.events.push(TraceEvent {
                sid,
                var,
                sec,
                detail: Some("accessible".into()),
                ..TraceEvent::instant(TraceKind::SectionState, pid, now)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    /// Block-distributed A and cyclic B: every A[i] += B[i] via messages.
    fn simple(n: i64, nprocs: usize) -> (Arc<Program>, VarId, VarId) {
        let mut p = Program::new();
        let grid = ProcGrid::linear(nprocs);
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, n)],
            vec![DimDist::Block],
            grid.clone(),
        ));
        let bb = p.declare(b::array(
            "B",
            ElemType::F64,
            vec![(1, n)],
            vec![DimDist::Cyclic],
            grid.clone(),
        ));
        let t = p.declare(b::array(
            "T",
            ElemType::F64,
            vec![(0, nprocs as i64 - 1)],
            vec![DimDist::Block],
            grid,
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
        let tm = b::sref(t, vec![b::at(b::mypid())]);
        p.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(n),
            vec![
                b::guarded(b::iown(bi.clone()), vec![b::send(bi.clone())]),
                b::guarded(
                    b::iown(ai.clone()),
                    vec![
                        b::recv_val(tm.clone(), bi.clone()),
                        b::guarded(
                            b::await_(tm.clone()),
                            vec![b::assign(
                                ai.clone(),
                                b::val(ai.clone()).add(b::val(tm.clone())),
                            )],
                        ),
                    ],
                ),
            ],
        )];
        (Arc::new(p), a, bb)
    }

    #[test]
    fn threaded_simple_example() {
        let n = 16;
        let (prog, a, bb) = simple(n, 4);
        let mut exec = ThreadExec::new(prog, KernelRegistry::standard(), ThreadConfig::new(4));
        exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        exec.init_exclusive(bb, |idx| Value::F64(100.0 * idx[0] as f64));
        let report = exec.run().unwrap();
        assert_eq!(report.net.messages, n as u64);
        assert!(report.trace.is_empty()); // tracing off by default
        let g = exec.gather(a);
        for i in 1..=n {
            assert_eq!(g.get(&[i]).unwrap().as_f64(), 101.0 * i as f64);
        }
    }

    #[test]
    fn threaded_matches_simulator_final_state() {
        let n = 24;
        let (prog, a, bb) = simple(n, 3);
        let mut texec = ThreadExec::new(
            prog.clone(),
            KernelRegistry::standard(),
            ThreadConfig::new(3),
        );
        texec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        texec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64 * 0.5));
        texec.run().unwrap();

        let mut sexec =
            crate::SimExec::new(prog, KernelRegistry::standard(), crate::SimConfig::new(3));
        sexec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        sexec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64 * 0.5));
        sexec.run().unwrap();

        let (gt, gs) = (texec.gather(a), sexec.gather(a));
        for i in 1..=n {
            assert_eq!(gt.get(&[i]), gs.get(&[i]), "i={i}");
        }
    }

    #[test]
    fn threaded_trace_records_movement() {
        let n = 8;
        let (prog, a, bb) = simple(n, 2);
        let mut exec = ThreadExec::new(
            prog,
            KernelRegistry::standard(),
            ThreadConfig::new(2).with_trace(TraceConfig::full()),
        );
        exec.init_exclusive(a, |_| Value::F64(0.0));
        exec.init_exclusive(bb, |_| Value::F64(1.0));
        let r = exec.run().unwrap();
        let wires: Vec<_> = r.trace.of_kind(TraceKind::WireTransit).collect();
        assert_eq!(wires.len() as u64, r.net.messages);
        for w in &wires {
            assert!(w.sid.is_some(), "{w:?}");
            assert_eq!(w.var.as_deref(), Some("B"));
        }
        assert!(r.trace.end > 0.0);
    }

    #[test]
    fn threaded_recv_timeout_is_not_a_deadlock() {
        // Nothing is ever sent: the receive's deadline elapses and the
        // diagnosis must be the *timeout* variant, not Deadlock (the
        // executor has not proven no progress is possible, only waited).
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 4)],
            vec![DimDist::Block],
            ProcGrid::linear(2),
        ));
        let all = b::sref(a, vec![b::all()]);
        let mine = b::sref(a, vec![b::span(b::mylb(all.clone(), 1), b::myub(all, 1))]);
        p.body = vec![
            b::recv_val(mine.clone(), mine.clone()),
            b::guarded(b::await_(mine.clone()), vec![]),
        ];
        let mut exec = ThreadExec::new(
            Arc::new(p),
            KernelRegistry::standard(),
            ThreadConfig {
                recv_timeout: Duration::from_millis(50),
                ..ThreadConfig::new(2)
            },
        );
        match exec.run() {
            Err(RtError::RecvTimeout(d)) => assert!(d.contains("timed out"), "{d}"),
            other => panic!("expected RecvTimeout, got {other:?}"),
        }
    }

    #[test]
    fn spawn_failure_is_a_named_error() {
        // An absurd per-thread stack makes the very first spawn fail the
        // same way OS thread limits do at large P: `pthread_create`
        // refuses. The diagnosis must be the named variant pointing at
        // the async executor, not an opaque panic.
        let (prog, _a, _b) = simple(8, 2);
        let mut exec = ThreadExec::new(
            prog,
            KernelRegistry::standard(),
            ThreadConfig {
                stack_size: Some(usize::MAX / 2),
                ..ThreadConfig::new(2)
            },
        );
        match exec.run() {
            Err(RtError::SpawnFailed(d)) => {
                assert!(d.contains("p0"), "{d}");
                assert!(d.contains("async executor"), "{d}");
            }
            other => panic!("expected SpawnFailed, got {other:?}"),
        }
    }

    #[test]
    fn threaded_chaos_matches_fault_free_state() {
        use xdp_fault::LinkFault;
        let n = 24;
        let (prog, a, bb) = simple(n, 3);
        let mut clean = ThreadExec::new(
            prog.clone(),
            KernelRegistry::standard(),
            ThreadConfig::new(3),
        );
        clean.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        clean.init_exclusive(bb, |idx| Value::F64(idx[0] as f64 * 0.5));
        clean.run().unwrap();

        let mut plan = FaultPlan::uniform(
            17,
            LinkFault {
                drop: 0.1,
                dup: 0.1,
                reorder: 0.2,
                delay_p: 0.2,
                delay: 200.0,
            },
        );
        plan.rto = 300.0;
        let mut chaos = ThreadExec::new(
            prog,
            KernelRegistry::standard(),
            ThreadConfig::new(3).with_faults(plan),
        );
        chaos.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        chaos.init_exclusive(bb, |idx| Value::F64(idx[0] as f64 * 0.5));
        let report = chaos.run().unwrap();
        assert_eq!(report.net.messages, n as u64, "dedup must not double-count");
        let (gc, gf) = (clean.gather(a), chaos.gather(a));
        for i in 1..=n {
            assert_eq!(gc.get(&[i]), gf.get(&[i]), "i={i}");
        }
    }

    #[test]
    fn threaded_permanent_loss_is_diagnosed() {
        let n = 16;
        let (prog, a, bb) = simple(n, 4);
        let mut plan = FaultPlan::none();
        plan.kill.push((0, 1)); // p0's first message can never arrive
        plan.rto = 200.0;
        plan.max_retries = 3;
        let mut exec = ThreadExec::new(
            prog,
            KernelRegistry::standard(),
            ThreadConfig {
                recv_timeout: Duration::from_secs(2),
                ..ThreadConfig::new(4)
            }
            .with_faults(plan),
        );
        exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        exec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64));
        match exec.run() {
            Err(RtError::MessageLost(d)) => {
                assert!(d.contains("permanently lost"), "{d}")
            }
            other => panic!("expected MessageLost, got {other:?}"),
        }
    }
}
