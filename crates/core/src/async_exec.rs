//! The scalable executor: one lightweight cooperative task per simulated
//! processor, multiplexed M:N over a fixed pool of worker threads.
//!
//! [`crate::ThreadExec`] spawns one OS thread per pid, which caps P at
//! OS thread limits (and makes P=4096 runs pay 4096 stacks and a
//! scheduler fight). `AsyncExec` instead drives each processor as a
//! state machine that *yields cooperatively* at its natural suspension
//! points — a blocking receive with no message ready, a barrier, or an
//! exhausted step quantum — so a handful of workers execute thousands
//! of processors over the same shared [`ThreadNet`] with the same
//! rendezvous semantics.
//!
//! Scheduling is work-stealing: each worker owns a run queue, pushes
//! woken tasks to its own queue, and steals from peers when dry.
//! Parked receivers are indexed by [`Tag`], so a send wakes exactly the
//! tasks that may now match; an idle-time sweep re-polls parked tasks
//! whose deadline elapsed (producing the same named timeout diagnoses
//! as the threaded executor) and, under an active fault plan, re-polls
//! all parked receivers so the delivery layer's retry clock keeps
//! ticking.
//!
//! The observable contract is [`crate::ThreadExec`]'s exactly: the same
//! [`ThreadReport`], the same trace events (wall-clock timestamps, the
//! backend-independent movement multiset), and character-identical
//! error text for deadlock, receive-timeout, and message-loss
//! diagnoses — enforced by the `executor:async` fuzz oracle and the
//! conformance suites at P up to 4096.

use crate::env::RtError;
use crate::interp::{Action, Interp, StepNote};
use crate::kernels::KernelRegistry;
use crate::proc::Processor;
use crate::report::Gathered;
use crate::thread_exec::{
    deadlock_error, recv_error, unfinished_recv_error, RecorderData, ThreadReport,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use xdp_collectives::PlanCtx;
use xdp_fault::{FaultPlan, RecvFailure};
use xdp_ir::{Program, VarId};
use xdp_machine::{CostModel, ThreadNet, Topology};
use xdp_runtime::{Tag, Value};
use xdp_trace::{Trace, TraceConfig, TraceEvent, TraceKind, WaitCause};

/// Statements a task executes before yielding its worker, so thousands
/// of compute-heavy tasks share the pool fairly.
const QUANTUM: usize = 128;

/// How long an idle worker sleeps between sweeps of parked tasks.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Configuration for the async executor.
#[derive(Clone, Debug)]
pub struct AsyncConfig {
    /// Number of simulated processors (tasks).
    pub nprocs: usize,
    /// Worker threads; 0 means `min(available cores, nprocs)`.
    pub workers: usize,
    /// Checked runtime?
    pub checked: bool,
    /// How long a blocked receive may wait before the run is declared
    /// timed out (same default and diagnoses as [`crate::ThreadConfig`]).
    pub recv_timeout: Duration,
    /// What to record in the execution trace.
    pub trace: TraceConfig,
    /// Fault-injection plan (inactive by default; `rto`/`delay` are
    /// wall-clock microseconds on this backend).
    pub faults: FaultPlan,
    /// Cost model the redistribution planner prices schedules with (its
    /// `mem_budget` bounds their staging); wall time is not modelled.
    pub cost: CostModel,
    /// Interconnect shape the planner prices schedules over.
    pub topo: Topology,
}

impl AsyncConfig {
    /// Defaults: auto-sized pool, checked, 5-second receive timeout, no
    /// tracing, no faults.
    pub fn new(nprocs: usize) -> AsyncConfig {
        AsyncConfig {
            nprocs,
            workers: 0,
            checked: true,
            recv_timeout: Duration::from_secs(5),
            trace: TraceConfig::off(),
            faults: FaultPlan::none(),
            cost: CostModel::default_1993(),
            topo: Topology::Uniform,
        }
    }

    /// Set the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> AsyncConfig {
        self.workers = workers;
        self
    }

    /// Set the trace configuration.
    pub fn with_trace(mut self, trace: TraceConfig) -> AsyncConfig {
        self.trace = trace;
        self
    }

    /// Set the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> AsyncConfig {
        self.faults = faults;
        self
    }
}

/// The async executor. Mirrors [`crate::ThreadExec`]'s init/run/gather
/// API and report; generic over the [`Processor`] implementation, so
/// both the interpreter and the bytecode VM run on it unchanged.
pub struct AsyncExec<P: Processor = Interp> {
    cfg: AsyncConfig,
    interps: Vec<P>,
    plan_ctx: std::sync::Arc<PlanCtx>,
}

impl AsyncExec {
    /// Load `program` onto every processor.
    pub fn new(
        program: std::sync::Arc<Program>,
        kernels: KernelRegistry,
        cfg: AsyncConfig,
    ) -> AsyncExec {
        let n = cfg.nprocs;
        let program = xdp_collectives::prepare_arc(program);
        let interps = (0..n)
            .map(|pid| Interp::new(program.clone(), kernels.clone(), pid, n, cfg.checked))
            .collect();
        AsyncExec::from_procs(interps, cfg)
    }
}

impl<P: Processor> AsyncExec<P> {
    /// Drive pre-built processors (one per pid, in pid order). The caller
    /// must have prepared the program identically on every processor; all
    /// of them join this machine's one planning context here.
    pub fn from_procs(mut procs: Vec<P>, cfg: AsyncConfig) -> AsyncExec<P> {
        assert_eq!(procs.len(), cfg.nprocs, "one processor per pid");
        let plan_ctx = crate::proc::join_machine(&mut procs, cfg.cost, cfg.topo.clone());
        AsyncExec {
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

    /// Run all processors to completion over the worker pool.
    pub fn run(&mut self) -> Result<ThreadReport, RtError> {
        let n = self.cfg.nprocs;
        let workers = if self.cfg.workers > 0 {
            self.cfg.workers
        } else {
            std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(4)
        }
        .min(n.max(1));
        let tcfg = self.cfg.trace;
        let start = Instant::now();
        let sh = Shared {
            tasks: self
                .interps
                .iter_mut()
                .map(|interp| {
                    let rec = RecorderData::new(interp, tcfg, start);
                    Mutex::new(Task {
                        interp,
                        rec,
                        state: TState::Runnable,
                        result: None,
                        counted_done: false,
                    })
                })
                .collect(),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: (0..n).map(|_| AtomicBool::new(true)).collect(),
            idle_mx: Mutex::new(()),
            idle_cv: Condvar::new(),
            waiters: Mutex::new(HashMap::new()),
            barrier: Mutex::new(Vec::new()),
            done: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            sweeping: AtomicBool::new(false),
            net: ThreadNet::with_faults(n, self.cfg.faults.clone()),
            n,
            timeout: self.cfg.recv_timeout,
            faults_active: self.cfg.faults.is_active(),
        };
        // Initial round-robin distribution of all tasks.
        for pid in 0..n {
            sh.queues[pid % workers].lock().unwrap().push_back(pid);
        }
        std::thread::scope(|scope| -> Result<(), RtError> {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let sh = &sh;
                let spawned = std::thread::Builder::new()
                    .name(format!("xdp-worker{w}"))
                    .spawn_scoped(scope, move || worker_loop(sh, w));
                match spawned {
                    Ok(h) => handles.push(h),
                    Err(e) => {
                        // A partial pool still drains every task; just
                        // stop adding workers. With zero workers spawned
                        // we must fail — nothing would run.
                        if handles.is_empty() {
                            return Err(RtError::SpawnFailed(format!(
                                "async executor could not spawn any of {workers} workers: {e}"
                            )));
                        }
                        break;
                    }
                }
            }
            for h in handles {
                h.join().expect("worker panicked");
            }
            Ok(())
        })?;
        let wall = start.elapsed();
        let results: Vec<Result<Vec<TraceEvent>, RtError>> = sh
            .tasks
            .iter()
            .map(|slot| {
                slot.lock()
                    .unwrap()
                    .result
                    .take()
                    .expect("task finished without result")
            })
            .collect();
        let fault_events = sh.net.fault_events();
        let net_stats = sh.net.stats();
        let fault_stats = sh.net.fault_stats();
        drop(sh); // release the borrow of self.interps
        let mut trace = Trace::new(n);
        trace.end = wall.as_secs_f64() * 1e6;
        for r in results {
            trace.events.extend(r?);
        }
        if tcfg.instants {
            trace
                .events
                .extend(crate::report::fault_trace_events(&fault_events));
        }
        let symtab = self.interps.iter().map(|i| i.env().symtab.stats).collect();
        Ok(ThreadReport {
            wall,
            net: net_stats,
            symtab,
            trace,
            faults: fault_stats,
        })
    }

    /// Gather the global contents of an exclusive array after execution.
    pub fn gather(&self, var: VarId) -> Gathered {
        crate::proc::gather(&self.interps, var)
    }
}

/// A receive the task is parked on.
#[derive(Clone)]
struct Pending {
    req: u64,
    tag: Tag,
    /// Wall deadline; elapsing produces the executor's named timeout.
    deadline: Instant,
    /// Wait-start timestamp (µs) for the trace span.
    t0: f64,
    /// True during the post-`Done` drain (different wait cause and
    /// timeout diagnosis, matching the threaded executor).
    quiesce: bool,
}

/// Task lifecycle. `Runnable` tasks sit in (or are owed a slot in) a
/// run queue; `Blocked`/`AtBarrier` tasks are parked and re-entered by
/// a tag wakeup, a barrier release, or the idle sweep.
enum TState {
    Runnable,
    Blocked(Pending),
    AtBarrier { t0: f64 },
    Finished,
}

struct Task<'a, P: Processor> {
    interp: &'a mut P,
    rec: RecorderData,
    state: TState,
    result: Option<Result<Vec<TraceEvent>, RtError>>,
    /// Whether this task has been counted out of barrier participation
    /// (program complete or failed).
    counted_done: bool,
}

struct Shared<'a, P: Processor> {
    tasks: Vec<Mutex<Task<'a, P>>>,
    /// One run queue per worker (stealing targets).
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Dedup flag: task is in some queue (or about to be polled).
    queued: Vec<AtomicBool>,
    idle_mx: Mutex<()>,
    idle_cv: Condvar,
    /// Parked receivers by tag, woken on matching sends.
    waiters: Mutex<HashMap<Tag, Vec<usize>>>,
    /// Pids arrived at the current barrier generation.
    barrier: Mutex<Vec<usize>>,
    /// Tasks that will never reach another barrier (done or failed).
    done: AtomicUsize,
    /// Tasks with a recorded result.
    finished: AtomicUsize,
    /// At most one idle worker sweeps parked tasks at a time.
    sweeping: AtomicBool,
    net: ThreadNet,
    n: usize,
    timeout: Duration,
    faults_active: bool,
}

impl<P: Processor> Shared<'_, P> {
    /// Queue `pid` for polling (idempotent while already queued).
    fn enqueue(&self, pid: usize) {
        if !self.queued[pid].swap(true, Ordering::AcqRel) {
            self.queues[pid % self.queues.len()]
                .lock()
                .unwrap()
                .push_back(pid);
            self.idle_cv.notify_one();
        }
    }

    /// Pop from the worker's own queue, else steal from a peer.
    fn pop(&self, w: usize) -> Option<usize> {
        if let Some(pid) = self.queues[w].lock().unwrap().pop_front() {
            return Some(pid);
        }
        let k = self.queues.len();
        for i in 1..k {
            if let Some(pid) = self.queues[(w + i) % k].lock().unwrap().pop_back() {
                return Some(pid);
            }
        }
        None
    }

    fn register(&self, pid: usize, tag: &Tag) {
        let mut w = self.waiters.lock().unwrap();
        let v = w.entry(tag.clone()).or_default();
        if !v.contains(&pid) {
            v.push(pid);
        }
    }

    fn deregister(&self, pid: usize, tag: &Tag) {
        let mut w = self.waiters.lock().unwrap();
        if let Some(v) = w.get_mut(tag) {
            v.retain(|&p| p != pid);
            if v.is_empty() {
                w.remove(tag);
            }
        }
    }

    /// Wake every task parked on `tag` (a matching message may now be
    /// deliverable). Spurious wakes re-park harmlessly.
    fn wake_tag(&self, tag: &Tag) {
        let pids: Vec<usize> = self
            .waiters
            .lock()
            .unwrap()
            .get(tag)
            .cloned()
            .unwrap_or_default();
        for p in pids {
            self.enqueue(p);
        }
    }

    /// If every task still participating has arrived at the barrier,
    /// atomically take the arrived set for release.
    fn take_release(&self) -> Option<Vec<usize>> {
        let mut arrived = self.barrier.lock().unwrap();
        if !arrived.is_empty() && arrived.len() == self.n - self.done.load(Ordering::SeqCst) {
            Some(std::mem::take(&mut *arrived))
        } else {
            None
        }
    }

    /// Release the parked members of a taken barrier generation. `skip`
    /// is the caller's own pid (its task lock is already held and it
    /// releases itself inline).
    fn release_peers(&self, pids: &[usize], skip: Option<usize>) {
        for &p in pids {
            if Some(p) == skip {
                continue;
            }
            let mut t = self.tasks[p].lock().unwrap();
            if let TState::AtBarrier { t0 } = t.state {
                if t.rec.cfg.spans {
                    let t1 = t.rec.now();
                    if t1 > t0 {
                        t.rec.events.push(TraceEvent {
                            cause: WaitCause::Barrier,
                            ..TraceEvent::span(TraceKind::Wait, p, t0, t1)
                        });
                    }
                }
                t.interp.pass_barrier();
                t.state = TState::Runnable;
                drop(t);
                self.enqueue(p);
            }
        }
    }

    /// Idle-time service: re-poll parked receivers whose deadline has
    /// elapsed (to surface timeouts) and, under an active fault plan,
    /// all of them (their `recv` polls drive the delivery layer's
    /// retry/promotion clock).
    fn sweep_parked(&self) {
        if self.sweeping.swap(true, Ordering::AcqRel) {
            return;
        }
        let now = Instant::now();
        for pid in 0..self.n {
            if self.queued[pid].load(Ordering::Acquire) {
                continue;
            }
            let due = match self.tasks[pid].try_lock() {
                Ok(t) => matches!(&t.state, TState::Blocked(p)
                    if self.faults_active || now >= p.deadline),
                Err(_) => false,
            };
            if due {
                self.enqueue(pid);
            }
        }
        self.sweeping.store(false, Ordering::Release);
    }
}

fn worker_loop<P: Processor>(sh: &Shared<'_, P>, w: usize) {
    loop {
        if sh.finished.load(Ordering::SeqCst) >= sh.n {
            sh.idle_cv.notify_all();
            return;
        }
        match sh.pop(w) {
            Some(pid) => {
                sh.queued[pid].store(false, Ordering::Release);
                poll_task(sh, pid);
            }
            None => {
                sh.sweep_parked();
                let guard = sh.idle_mx.lock().unwrap();
                let _ = sh
                    .idle_cv
                    .wait_timeout(guard, IDLE_SLEEP)
                    .expect("idle lock poisoned");
            }
        }
    }
}

/// Drive one task as far as it can go right now.
fn poll_task<P: Processor>(sh: &Shared<'_, P>, pid: usize) {
    let mut guard = sh.tasks[pid].lock().unwrap();
    let task = &mut *guard;
    loop {
        let advanced = match &task.state {
            TState::Finished | TState::AtBarrier { .. } => return,
            TState::Blocked(_) => try_unblock(sh, task, pid),
            TState::Runnable => run_quantum(sh, task, pid),
        };
        if !advanced {
            return;
        }
    }
}

/// Record a result, retire the task, and propagate barrier/idle wakeups.
fn finish<P: Processor>(sh: &Shared<'_, P>, task: &mut Task<'_, P>, res: Result<(), RtError>) {
    if !task.counted_done {
        task.counted_done = true;
        sh.done.fetch_add(1, Ordering::SeqCst);
    }
    task.result = Some(match res {
        Ok(()) => Ok(std::mem::take(&mut task.rec.events)),
        Err(e) => Err(e),
    });
    task.state = TState::Finished;
    sh.finished.fetch_add(1, Ordering::SeqCst);
    // This task's departure may complete a barrier generation or, if it
    // was the last, end the run.
    if let Some(rel) = sh.take_release() {
        sh.release_peers(&rel, None);
    }
    sh.idle_cv.notify_all();
}

/// Attempt to complete the receive a parked task is blocked on.
/// Returns true if the task advanced (poll again), false if it stays
/// parked.
fn try_unblock<P: Processor>(sh: &Shared<'_, P>, task: &mut Task<'_, P>, pid: usize) -> bool {
    let p = match &task.state {
        TState::Blocked(p) => p.clone(),
        _ => unreachable!("try_unblock on non-blocked task"),
    };
    match sh.net.recv_diag(&p.tag, pid, Duration::ZERO) {
        Ok(msg) => {
            sh.deregister(pid, &p.tag);
            if task.rec.cfg.spans {
                let t1 = task.rec.now();
                if t1 > p.t0 {
                    let cause = if p.quiesce {
                        WaitCause::Quiesce
                    } else {
                        WaitCause::Message(p.req)
                    };
                    task.rec.events.push(TraceEvent {
                        cause,
                        msg_id: Some(p.req),
                        ..TraceEvent::span(TraceKind::Wait, pid, p.t0, t1)
                    });
                }
            }
            task.rec.completed(pid, p.req, &msg, p.t0);
            if let Err(e) = task.interp.complete_recv(p.req, msg) {
                finish(sh, task, Err(e));
                return true;
            }
            if p.quiesce {
                enter_drain(sh, task, pid);
            } else {
                task.state = TState::Runnable;
            }
            true
        }
        Err(RecvFailure::Timeout) => {
            if Instant::now() >= p.deadline {
                sh.deregister(pid, &p.tag);
                let err = if p.quiesce {
                    unfinished_recv_error(pid, &p.tag, sh.timeout)
                } else {
                    recv_error(pid, &p.tag, sh.timeout, RecvFailure::Timeout)
                };
                finish(sh, task, Err(err));
                return true;
            }
            false
        }
        Err(fail) => {
            sh.deregister(pid, &p.tag);
            finish(sh, task, Err(recv_error(pid, &p.tag, sh.timeout, fail)));
            true
        }
    }
}

/// Post-`Done` drain: complete leftover receives so the final state is
/// coherent, parking (with a fresh deadline per receive, matching the
/// threaded executor) whenever one is not yet deliverable.
fn enter_drain<P: Processor>(sh: &Shared<'_, P>, task: &mut Task<'_, P>, pid: usize) {
    loop {
        let Some((req, tag)) = task.interp.outstanding().first().cloned() else {
            finish(sh, task, Ok(()));
            return;
        };
        let t0 = task.rec.now();
        sh.register(pid, &tag);
        match sh.net.recv_diag(&tag, pid, Duration::ZERO) {
            Ok(msg) => {
                sh.deregister(pid, &tag);
                if task.rec.cfg.spans {
                    let t1 = task.rec.now();
                    if t1 > t0 {
                        task.rec.events.push(TraceEvent {
                            cause: WaitCause::Quiesce,
                            msg_id: Some(req),
                            ..TraceEvent::span(TraceKind::Wait, pid, t0, t1)
                        });
                    }
                }
                task.rec.completed(pid, req, &msg, t0);
                if let Err(e) = task.interp.complete_recv(req, msg) {
                    finish(sh, task, Err(e));
                    return;
                }
            }
            Err(RecvFailure::Timeout) => {
                task.state = TState::Blocked(Pending {
                    req,
                    tag,
                    deadline: Instant::now() + sh.timeout,
                    t0,
                    quiesce: true,
                });
                return;
            }
            Err(fail) => {
                sh.deregister(pid, &tag);
                finish(sh, task, Err(recv_error(pid, &tag, sh.timeout, fail)));
                return;
            }
        }
    }
}

/// Execute up to [`QUANTUM`] statements. Returns true if the task's
/// state changed and the poll loop should re-inspect it, false if it
/// parked or yielded.
fn run_quantum<P: Processor>(sh: &Shared<'_, P>, task: &mut Task<'_, P>, pid: usize) -> bool {
    let tcfg = task.rec.cfg;
    for _ in 0..QUANTUM {
        // Opportunistically complete any receive whose message has
        // already arrived, so `accessible()` polls stay live.
        for (req, tag) in task.interp.outstanding() {
            let t0 = task.rec.now();
            if let Some(msg) = sh.net.recv(&tag, pid, Duration::ZERO) {
                task.rec.completed(pid, req, &msg, t0);
                if let Err(e) = task.interp.complete_recv(req, msg) {
                    finish(sh, task, Err(e));
                    return true;
                }
            }
        }
        let t0 = task.rec.now();
        let out = match task.interp.step() {
            Ok(out) => out,
            Err(e) => {
                finish(sh, task, Err(e));
                return true;
            }
        };
        let sid = out.sid;
        if tcfg.spans {
            let t1 = task.rec.now();
            if t1 > t0 {
                task.rec.events.push(TraceEvent {
                    sid,
                    ..TraceEvent::span(TraceKind::Compute, pid, t0, t1)
                });
            }
        }
        if tcfg.instants && out.ops.symtab_ops > 0 {
            let t = task.rec.now();
            task.rec.events.push(TraceEvent {
                sid,
                bytes: out.ops.symtab_ops,
                ..TraceEvent::instant(TraceKind::SymtabQuery, pid, t)
            });
        }
        if tcfg.instants {
            match &out.note {
                None => {}
                Some(StepNote::Kernel { name, flops }) => {
                    let t = task.rec.now();
                    task.rec.events.push(TraceEvent {
                        sid,
                        bytes: *flops,
                        detail: Some(name.clone()),
                        ..TraceEvent::instant(TraceKind::KernelInvoke, pid, t)
                    });
                }
                Some(StepNote::Collective {
                    var,
                    strategy,
                    pieces,
                }) => {
                    let t = task.rec.now();
                    task.rec.events.push(TraceEvent {
                        sid,
                        var: Some(var.clone()),
                        detail: Some(format!("{strategy} x{pieces}")),
                        ..TraceEvent::instant(TraceKind::CollectiveRound, pid, t)
                    });
                }
            }
        }
        match out.action {
            Action::Continue => {}
            Action::Done => {
                if !task.counted_done {
                    task.counted_done = true;
                    sh.done.fetch_add(1, Ordering::SeqCst);
                }
                // Our exit from barrier participation may release one.
                if let Some(rel) = sh.take_release() {
                    sh.release_peers(&rel, None);
                }
                enter_drain(sh, task, pid);
                return true;
            }
            Action::Send { msg, dest } => {
                if tcfg.spans {
                    let t = task.rec.now();
                    task.rec.events.push(TraceEvent {
                        sid,
                        var: task.rec.var_name(msg.tag.var),
                        sec: Some(msg.tag.sec.to_string()),
                        bytes: msg.payload_bytes(),
                        ..TraceEvent::span(TraceKind::SendInit, pid, t, t)
                    });
                }
                let tag = msg.tag.clone();
                match dest {
                    None => sh.net.send(msg, None),
                    Some(pids) => {
                        for q in pids {
                            sh.net.send(msg.clone(), Some(vec![q]));
                        }
                    }
                }
                sh.wake_tag(&tag);
            }
            Action::PostRecv { tag, req_id } => {
                let t = task.rec.now();
                if tcfg.spans {
                    task.rec.events.push(TraceEvent {
                        sid,
                        var: task.rec.var_name(tag.var),
                        sec: Some(tag.sec.to_string()),
                        msg_id: Some(req_id),
                        ..TraceEvent::span(TraceKind::RecvPost, pid, t, t)
                    });
                }
                if tcfg.instants {
                    task.rec.events.push(TraceEvent {
                        sid,
                        var: task.rec.var_name(tag.var),
                        sec: Some(tag.sec.to_string()),
                        detail: Some("transitional".into()),
                        ..TraceEvent::instant(TraceKind::SectionState, pid, t)
                    });
                }
                if let Some(s) = sid {
                    task.rec.recv_sid.insert(req_id, s);
                }
            }
            Action::BlockOn { var, sec } => {
                let gating = task.interp.outstanding_for(var, &sec);
                if gating.is_empty() {
                    finish(sh, task, Err(deadlock_error(pid, var, &sec)));
                    return true;
                }
                let (req, tag) = gating[0].clone();
                let t0 = task.rec.now();
                // Register before the poll: a send that lands between
                // the two will find us and re-enqueue, so no wakeup is
                // lost.
                sh.register(pid, &tag);
                match sh.net.recv_diag(&tag, pid, Duration::ZERO) {
                    Ok(msg) => {
                        sh.deregister(pid, &tag);
                        if tcfg.spans {
                            let t1 = task.rec.now();
                            if t1 > t0 {
                                task.rec.events.push(TraceEvent {
                                    cause: WaitCause::Message(req),
                                    msg_id: Some(req),
                                    ..TraceEvent::span(TraceKind::Wait, pid, t0, t1)
                                });
                            }
                        }
                        task.rec.completed(pid, req, &msg, t0);
                        if let Err(e) = task.interp.complete_recv(req, msg) {
                            finish(sh, task, Err(e));
                            return true;
                        }
                    }
                    Err(RecvFailure::Timeout) => {
                        task.state = TState::Blocked(Pending {
                            req,
                            tag,
                            deadline: Instant::now() + sh.timeout,
                            t0,
                            quiesce: false,
                        });
                        return false;
                    }
                    Err(fail) => {
                        sh.deregister(pid, &tag);
                        finish(sh, task, Err(recv_error(pid, &tag, sh.timeout, fail)));
                        return true;
                    }
                }
            }
            Action::Barrier => {
                let t0 = task.rec.now();
                sh.barrier.lock().unwrap().push(pid);
                task.state = TState::AtBarrier { t0 };
                if let Some(rel) = sh.take_release() {
                    // We completed the generation: release ourselves
                    // inline (our lock is held) and our parked peers.
                    if tcfg.spans {
                        let t1 = task.rec.now();
                        if t1 > t0 {
                            task.rec.events.push(TraceEvent {
                                cause: WaitCause::Barrier,
                                ..TraceEvent::span(TraceKind::Wait, pid, t0, t1)
                            });
                        }
                    }
                    task.interp.pass_barrier();
                    task.state = TState::Runnable;
                    sh.release_peers(&rel, Some(pid));
                } else {
                    return false;
                }
            }
        }
    }
    // Quantum exhausted: yield the worker, keep the task runnable.
    sh.enqueue(pid);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, SimExec, ThreadConfig, ThreadExec};
    use std::sync::Arc;
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
    fn async_simple_example() {
        let n = 16;
        let (prog, a, bb) = simple(n, 4);
        let mut exec = AsyncExec::new(prog, KernelRegistry::standard(), AsyncConfig::new(4));
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
    fn async_matches_simulator_final_state() {
        let n = 24;
        let (prog, a, bb) = simple(n, 3);
        let mut aexec = AsyncExec::new(
            prog.clone(),
            KernelRegistry::standard(),
            AsyncConfig::new(3).with_workers(2),
        );
        aexec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        aexec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64 * 0.5));
        aexec.run().unwrap();

        let mut sexec = SimExec::new(prog, KernelRegistry::standard(), SimConfig::new(3));
        sexec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        sexec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64 * 0.5));
        sexec.run().unwrap();

        let (ga, gs) = (aexec.gather(a), sexec.gather(a));
        for i in 1..=n {
            assert_eq!(ga.get(&[i]), gs.get(&[i]), "i={i}");
        }
    }

    #[test]
    fn async_trace_records_movement() {
        let n = 8;
        let (prog, a, bb) = simple(n, 2);
        let mut exec = AsyncExec::new(
            prog,
            KernelRegistry::standard(),
            AsyncConfig::new(2).with_trace(TraceConfig::full()),
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
    fn async_movement_matches_threaded() {
        let n = 24;
        let (prog, a, bb) = simple(n, 3);
        let fp = |events: &Trace| events.movement_multiset();
        let mut texec = ThreadExec::new(
            prog.clone(),
            KernelRegistry::standard(),
            ThreadConfig::new(3).with_trace(TraceConfig::full()),
        );
        texec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        texec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64));
        let tr = texec.run().unwrap();

        let mut aexec = AsyncExec::new(
            prog,
            KernelRegistry::standard(),
            AsyncConfig::new(3).with_trace(TraceConfig::full()),
        );
        aexec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        aexec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64));
        let ar = aexec.run().unwrap();

        assert_eq!(fp(&tr.trace), fp(&ar.trace));
        assert_eq!(tr.net.messages, ar.net.messages);
        for i in 1..=n {
            assert_eq!(texec.gather(a).get(&[i]), aexec.gather(a).get(&[i]));
        }
    }

    #[test]
    fn async_recv_timeout_text_matches_threaded() {
        // Nothing is ever sent: both executors must produce the *same*
        // named timeout diagnosis, character for character.
        let build = || {
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
            Arc::new(p)
        };
        let timeout = Duration::from_millis(50);
        let mut texec = ThreadExec::new(
            build(),
            KernelRegistry::standard(),
            ThreadConfig {
                recv_timeout: timeout,
                ..ThreadConfig::new(2)
            },
        );
        let terr = texec.run().unwrap_err();
        let mut aexec = AsyncExec::new(
            build(),
            KernelRegistry::standard(),
            AsyncConfig {
                recv_timeout: timeout,
                ..AsyncConfig::new(2)
            },
        );
        let aerr = aexec.run().unwrap_err();
        assert_eq!(terr.to_string(), aerr.to_string());
        assert!(matches!(aerr, RtError::RecvTimeout(_)), "{aerr:?}");
    }

    #[test]
    fn async_chaos_matches_fault_free_state() {
        use xdp_fault::LinkFault;
        let n = 24;
        let (prog, a, bb) = simple(n, 3);
        let mut clean = AsyncExec::new(
            prog.clone(),
            KernelRegistry::standard(),
            AsyncConfig::new(3),
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
        let mut chaos = AsyncExec::new(
            prog,
            KernelRegistry::standard(),
            AsyncConfig::new(3).with_faults(plan),
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
    fn async_permanent_loss_is_diagnosed() {
        let n = 16;
        let (prog, a, bb) = simple(n, 4);
        let mut plan = FaultPlan::none();
        plan.kill.push((0, 1)); // p0's first message can never arrive
        plan.rto = 200.0;
        plan.max_retries = 3;
        let mut exec = AsyncExec::new(
            prog,
            KernelRegistry::standard(),
            AsyncConfig {
                recv_timeout: Duration::from_secs(2),
                ..AsyncConfig::new(4)
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

    #[test]
    fn async_runs_a_thousand_processors() {
        // The point of the backend: P far beyond OS-thread comfort, on a
        // handful of workers. Each pid sends one element of T to itself
        // via the network (self-messages still rendezvous), so every
        // task exercises send + block + complete.
        let nprocs = 1024;
        let mut p = Program::new();
        let grid = ProcGrid::linear(nprocs);
        let t = p.declare(b::array(
            "T",
            ElemType::F64,
            vec![(0, nprocs as i64 - 1)],
            vec![DimDist::Block],
            grid,
        ));
        let tm = b::sref(t, vec![b::at(b::mypid())]);
        p.body = vec![
            b::send_own_val(tm.clone()),
            b::recv_own_val(tm.clone()),
            b::guarded(b::await_(tm.clone()), vec![]),
        ];
        let prog = Arc::new(p);
        let mut exec = AsyncExec::new(
            prog,
            KernelRegistry::standard(),
            AsyncConfig::new(nprocs).with_workers(8),
        );
        exec.init_exclusive(t, |idx| Value::F64(idx[0] as f64 * 3.0));
        let report = exec.run().unwrap();
        assert_eq!(report.net.messages, nprocs as u64);
        let g = exec.gather(t);
        for i in 0..nprocs as i64 {
            assert_eq!(g.get(&[i]).unwrap().as_f64(), i as f64 * 3.0);
        }
    }
}
