//! The wall-clock machine: one lightweight cooperative task per simulated
//! processor, multiplexed M:N over a fixed pool of worker threads.
//!
//! One OS thread per pid would cap P at OS thread limits (and make a
//! P=4096 run pay 4096 stacks and a scheduler fight). `AsyncExec`
//! instead drives each processor as a state machine that *yields
//! cooperatively* at its natural suspension points — a blocking receive
//! with no message ready, a barrier, or an exhausted step quantum — so a
//! handful of workers execute thousands of processors over one shared
//! [`ThreadNet`] with rendezvous semantics.
//!
//! Scheduling is work-stealing: each worker owns a run queue, pushes
//! woken tasks to its own queue, and steals from peers when dry.
//! Parked receivers are indexed by [`Tag`], so a send wakes exactly the
//! tasks that may now match; an idle-time sweep re-polls parked tasks
//! whose deadline elapsed (producing the named timeout diagnoses) and,
//! under an active fault plan, re-polls all parked receivers so the
//! delivery layer's retry clock keeps ticking.
//!
//! The observable contract: a [`ThreadReport`], a trace with wall-clock
//! timestamps whose movement multiset is the simulator's, and named
//! deadlock, receive-timeout and message-loss diagnoses — enforced by
//! the `executor:async` fuzz oracle and the conformance suites at P up
//! to 4096.

use crate::config::MachineConfig;
use crate::env::RtError;
use crate::interp::{Action, Interp};
use crate::kernels::KernelRegistry;
use crate::proc::{Machine, Processor};
use crate::recorder::Recorder;
use crate::report::{ExecReport, Gathered, ThreadReport};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use xdp_collectives::PlanCtx;
use xdp_fault::RecvFailure;
use xdp_ir::{Program, VarId};
use xdp_machine::ThreadNet;
use xdp_runtime::{Msg, Tag, Value};
use xdp_trace::{Trace, TraceEvent, WaitCause};

/// Statements a task executes before yielding its worker, so thousands
/// of compute-heavy tasks share the pool fairly.
const QUANTUM: usize = 128;

/// How long an idle worker sleeps between sweeps of parked tasks.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// The async executor. Mirrors [`crate::SimExec`]'s init/run/gather API;
/// generic over the [`Processor`] implementation, so both the
/// interpreter and the bytecode VM run on it unchanged.
pub struct AsyncExec<P: Processor = Interp> {
    cfg: MachineConfig,
    interps: Vec<P>,
    plan_ctx: std::sync::Arc<PlanCtx>,
}

impl AsyncExec {
    /// Load `program` onto every processor.
    pub fn new(
        program: std::sync::Arc<Program>,
        kernels: KernelRegistry,
        cfg: MachineConfig,
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
    pub fn from_procs(mut procs: Vec<P>, cfg: MachineConfig) -> AsyncExec<P> {
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
        if let Err(e) = self.cfg.topo.validate(n) {
            return Err(RtError::Topology(e.to_string()));
        }
        let workers = if self.cfg.workers > 0 {
            self.cfg.workers
        } else {
            std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(4)
        }
        .min(n.max(1));
        let tcfg = self.cfg.trace;
        let names = Recorder::names(&self.interps);
        let start = Instant::now();
        let sh = Shared {
            tasks: self
                .interps
                .iter_mut()
                .map(|interp| {
                    Mutex::new(Task {
                        interp,
                        rec: Recorder::new(names.clone(), tcfg),
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
            start,
            traced: tcfg.enabled(),
            timeline: tcfg.spans || tcfg.instants,
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

impl<P: Processor> Machine for AsyncExec<P> {
    fn init_exclusive(&mut self, var: VarId, f: &dyn Fn(&[i64]) -> Value) {
        AsyncExec::init_exclusive(self, var, f)
    }

    fn run_report(&mut self) -> Result<ExecReport, RtError> {
        self.run().map(ThreadReport::into_exec_report)
    }

    fn gather(&self, var: VarId) -> Gathered {
        AsyncExec::gather(self, var)
    }
}

/// Map a delivery-layer failure to the executor's named diagnosis.
fn recv_error(pid: usize, tag: &Tag, timeout: Duration, fail: RecvFailure) -> RtError {
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

/// A section is blocked with nothing that could ever unblock it.
fn deadlock_error(pid: usize, var: VarId, sec: &xdp_ir::Section) -> RtError {
    RtError::Deadlock(format!(
        "p{pid}: blocked on {var}{sec} with no outstanding receive"
    ))
}

/// The program-end drain timed out with a receive still pending.
fn unfinished_recv_error(pid: usize, tag: &Tag, timeout: Duration) -> RtError {
    RtError::RecvTimeout(format!(
        "p{pid}: unfinished receive of {tag} at program end \
         (no message after {timeout:?})"
    ))
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
    /// timeout diagnosis).
    quiesce: bool,
}

/// Task lifecycle. `Runnable` tasks sit in (or are owed a slot in) a
/// run queue; `Blocked`/`AtBarrier` tasks are parked and re-entered by
/// a tag wakeup, a barrier release, or the idle sweep. `Draining` is the
/// post-`Done` phase between two leftover receives; a task never parks
/// in it.
enum TState {
    Runnable,
    Blocked(Pending),
    AtBarrier { t0: f64 },
    Draining,
    Finished,
}

struct Task<'a, P: Processor> {
    interp: &'a mut P,
    rec: Recorder,
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
    start: Instant,
    /// Is any tracing on? Untraced runs never read the clock.
    traced: bool,
    /// Are the per-statement events kept — compute and wait spans, and
    /// the instants stamped at a step's end? A run that keeps only the
    /// movement record reads the clock once per movement event and never
    /// per step.
    timeline: bool,
}

impl<P: Processor> Shared<'_, P> {
    /// Trace timestamp of a movement event: wall-clock microseconds since
    /// run start.
    fn now(&self) -> f64 {
        if self.traced {
            self.start.elapsed().as_secs_f64() * 1e6
        } else {
            0.0
        }
    }

    /// Trace timestamp of a step's or a wait's edge, read only for a run
    /// that keeps them.
    fn edge(&self) -> f64 {
        if self.timeline {
            self.now()
        } else {
            0.0
        }
    }

    /// Record the delivery of `msg` to receive `req`, waited on since
    /// `since` (an [`edge`](Self::edge): without a timeline nobody read
    /// the clock then, and the events collapse onto the delivery).
    fn delivered(&self, rec: &mut Recorder, pid: usize, req: u64, msg: &Msg, since: f64) {
        let t1 = self.now();
        let t0 = if self.timeline { since } else { t1 };
        rec.completed(pid, req, msg, (t0, t1), t0, t1);
    }

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
                t.rec.wait(p, WaitCause::Barrier, None, t0, self.edge());
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
            TState::Blocked(p) => {
                let p = p.clone();
                await_recv(sh, task, pid, p)
            }
            TState::Draining => drain(sh, task, pid),
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
    task.result = Some(res.map(|()| task.rec.take_events()));
    task.state = TState::Finished;
    sh.finished.fetch_add(1, Ordering::SeqCst);
    // This task's departure may complete a barrier generation or, if it
    // was the last, end the run.
    if let Some(rel) = sh.take_release() {
        sh.release_peers(&rel, None);
    }
    sh.idle_cv.notify_all();
}

/// Poll the receive `p` the task must complete before going on: a
/// blocking await, or (`p.quiesce`) a leftover drained after `Done`. The
/// caller registered the task as a waiter on `p.tag` *before* this poll,
/// so a send landing between the two finds it and re-enqueues — no
/// wakeup is lost. Returns true if the task advanced (poll again), false
/// if it parked.
fn await_recv<P: Processor>(
    sh: &Shared<'_, P>,
    task: &mut Task<'_, P>,
    pid: usize,
    p: Pending,
) -> bool {
    let res = match sh.net.recv_diag(&p.tag, pid, Duration::ZERO) {
        Ok(msg) => {
            let cause = if p.quiesce {
                WaitCause::Quiesce
            } else {
                WaitCause::Message(p.req)
            };
            task.rec.wait(pid, cause, Some(p.req), p.t0, sh.edge());
            sh.delivered(&mut task.rec, pid, p.req, &msg, p.t0);
            task.interp.complete_recv(p.req, msg)
        }
        Err(RecvFailure::Timeout) if Instant::now() < p.deadline => {
            task.state = TState::Blocked(p);
            return false;
        }
        Err(RecvFailure::Timeout) if p.quiesce => {
            Err(unfinished_recv_error(pid, &p.tag, sh.timeout))
        }
        Err(fail) => Err(recv_error(pid, &p.tag, sh.timeout, fail)),
    };
    sh.deregister(pid, &p.tag);
    match res {
        Ok(()) if p.quiesce => task.state = TState::Draining,
        Ok(()) => task.state = TState::Runnable,
        Err(e) => finish(sh, task, Err(e)),
    }
    true
}

/// Register as a waiter on `tag` and poll receive `req` once, parking
/// with a fresh deadline if it is not yet deliverable.
fn start_recv<P: Processor>(
    sh: &Shared<'_, P>,
    task: &mut Task<'_, P>,
    pid: usize,
    (req, tag): (u64, Tag),
    quiesce: bool,
) -> bool {
    sh.register(pid, &tag);
    let p = Pending {
        req,
        tag,
        deadline: Instant::now() + sh.timeout,
        t0: sh.edge(),
        quiesce,
    };
    await_recv(sh, task, pid, p)
}

/// Post-`Done` drain: complete the next leftover receive so the final
/// state is coherent, or finish when none is left.
fn drain<P: Processor>(sh: &Shared<'_, P>, task: &mut Task<'_, P>, pid: usize) -> bool {
    match task.interp.outstanding().into_iter().next() {
        None => {
            finish(sh, task, Ok(()));
            true
        }
        Some(recv) => start_recv(sh, task, pid, recv, true),
    }
}

/// Execute up to [`QUANTUM`] statements. Returns true if the task's
/// state changed and the poll loop should re-inspect it, false if it
/// parked or yielded.
fn run_quantum<P: Processor>(sh: &Shared<'_, P>, task: &mut Task<'_, P>, pid: usize) -> bool {
    for _ in 0..QUANTUM {
        // Opportunistically complete any receive whose message has
        // already arrived, so `accessible()` polls stay live.
        for (req, tag) in task.interp.outstanding() {
            let t0 = sh.edge();
            if let Some(msg) = sh.net.recv(&tag, pid, Duration::ZERO) {
                sh.delivered(&mut task.rec, pid, req, &msg, t0);
                if let Err(e) = task.interp.complete_recv(req, msg) {
                    finish(sh, task, Err(e));
                    return true;
                }
            }
        }
        let t0 = sh.edge();
        let out = match task.interp.step() {
            Ok(out) => out,
            Err(e) => {
                finish(sh, task, Err(e));
                return true;
            }
        };
        let sid = out.sid;
        task.rec
            .step(pid, sid, out.ops.symtab_ops, out.note, t0, sh.edge());
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
                task.state = TState::Draining;
                return true;
            }
            Action::Send { msg, dest } => {
                let t = sh.now();
                task.rec.send_init(pid, sid, &msg, t, t);
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
                // Nothing to do eagerly: the message is claimed at the
                // next opportunistic poll or blocking wait.
                let t = sh.now();
                task.rec.recv_post(pid, sid, &tag, req_id, t, t);
            }
            Action::BlockOn { var, sec } => {
                // Service the first outstanding receive gating this section.
                let Some(recv) = task.interp.outstanding_for(var, &sec).into_iter().next() else {
                    finish(sh, task, Err(deadlock_error(pid, var, &sec)));
                    return true;
                };
                if !start_recv(sh, task, pid, recv, false) {
                    return false;
                }
                if !matches!(task.state, TState::Runnable) {
                    return true;
                }
            }
            Action::Barrier => {
                let t0 = sh.edge();
                sh.barrier.lock().unwrap().push(pid);
                task.state = TState::AtBarrier { t0 };
                let Some(rel) = sh.take_release() else {
                    return false;
                };
                // We completed the generation: release ourselves inline
                // (our lock is held) and our parked peers.
                task.rec.wait(pid, WaitCause::Barrier, None, t0, sh.edge());
                task.interp.pass_barrier();
                task.state = TState::Runnable;
                sh.release_peers(&rel, Some(pid));
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
    use crate::SimExec;
    use std::sync::Arc;
    use xdp_fault::FaultPlan;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};
    use xdp_machine::Topology;
    use xdp_trace::{TraceConfig, TraceKind};

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
        let mut exec = AsyncExec::new(prog, KernelRegistry::standard(), MachineConfig::new(4));
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
    fn async_oversized_machine_is_a_topology_error() {
        // Same refusal as `SimExec::run`: the planner must not price hops
        // for the two pids a 2x2 mesh has no coordinates for.
        let (prog, ..) = simple(12, 6);
        let mut cfg = MachineConfig::new(6);
        cfg.topo = Topology::Mesh2D { rows: 2, cols: 2 };
        match AsyncExec::new(prog, KernelRegistry::standard(), cfg).run() {
            Err(RtError::Topology(d)) => assert!(d.contains("pids 4..5"), "{d}"),
            other => panic!("expected Topology error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn async_matches_simulator_final_state() {
        let n = 24;
        let (prog, a, bb) = simple(n, 3);
        let mut aexec = AsyncExec::new(
            prog.clone(),
            KernelRegistry::standard(),
            MachineConfig {
                workers: 2,
                ..MachineConfig::new(3)
            },
        );
        aexec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        aexec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64 * 0.5));
        aexec.run().unwrap();

        let mut sexec = SimExec::new(prog, KernelRegistry::standard(), MachineConfig::new(3));
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
            MachineConfig::new(2).with_trace(TraceConfig::full()),
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
    fn async_movement_matches_simulator() {
        let n = 24;
        let (prog, a, bb) = simple(n, 3);
        let mut sexec = SimExec::new(
            prog.clone(),
            KernelRegistry::standard(),
            MachineConfig::new(3).with_trace(TraceConfig::full()),
        );
        sexec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        sexec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64));
        let sr = sexec.run().unwrap();

        let mut aexec = AsyncExec::new(
            prog,
            KernelRegistry::standard(),
            MachineConfig::new(3).with_trace(TraceConfig::full()),
        );
        aexec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        aexec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64));
        let ar = aexec.run().unwrap();

        assert_eq!(sr.trace.movement_multiset(), ar.trace.movement_multiset());
        assert_eq!(sr.net.messages, ar.net.messages);
        assert_eq!(sexec.gather(a), aexec.gather(a));
    }

    /// Nothing is ever sent, so the receive's deadline elapses: the
    /// diagnosis is the *timeout* variant, not Deadlock (the executor has
    /// not proven no progress is possible, only waited), and its text is
    /// pinned — awaited, and left unfinished at program end.
    #[test]
    fn async_recv_timeout_text_is_pinned() {
        let run = |awaited: bool| {
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
            p.body = vec![b::recv_val(mine.clone(), mine.clone())];
            if awaited {
                p.body.push(b::guarded(b::await_(mine), vec![]));
            }
            let cfg = MachineConfig {
                recv_timeout: Duration::from_millis(50),
                workers: 1,
                ..MachineConfig::new(2)
            };
            AsyncExec::new(Arc::new(p), KernelRegistry::standard(), cfg)
                .run()
                .unwrap_err()
        };
        let err = run(true);
        assert!(matches!(err, RtError::RecvTimeout(_)), "{err:?}");
        let text = err.to_string();
        assert!(
            text.contains("p0: receive of v0[1:2] timed out after 50ms"),
            "{text}"
        );
        let err = run(false);
        assert!(matches!(err, RtError::RecvTimeout(_)), "{err:?}");
        let text = err.to_string();
        assert!(
            text.contains(
                "p0: unfinished receive of v0[1:2] at program end (no message after 50ms)"
            ),
            "{text}"
        );
    }

    #[test]
    fn async_chaos_matches_fault_free_state() {
        use xdp_fault::LinkFault;
        let n = 24;
        let (prog, a, bb) = simple(n, 3);
        let mut clean = AsyncExec::new(
            prog.clone(),
            KernelRegistry::standard(),
            MachineConfig::new(3),
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
            MachineConfig::new(3).with_faults(plan),
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
            MachineConfig {
                recv_timeout: Duration::from_secs(2),
                ..MachineConfig::new(4)
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
            MachineConfig {
                workers: 8,
                ..MachineConfig::new(nprocs)
            },
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
