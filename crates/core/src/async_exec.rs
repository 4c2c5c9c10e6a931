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
//! A task posts its receives in the net as `SimExec` does
//! ([`ThreadNet::post_recv`]), and whichever of a send and its receive is
//! posted second pairs them. Before a step, a task takes what was paired
//! for it if its count moved; blocked on a receive with nothing paired,
//! it parks in the net, and the send that pairs one of its receives
//! hands it back to be woken; the net settles an injected fault when the
//! message is sent, so nothing surfaces later. An idle worker sleeps
//! until a task is queued or the run ends. Quiescence is decided exactly,
//! with no clock: when the last active task parks or finishes, no task
//! can ever run again (only a running task sends), so an unfinished run
//! is stuck, diagnosed as the simulator does.
//!
//! The observable contract: a [`ThreadReport`], a trace with wall-clock
//! timestamps whose movement multiset is the simulator's, and named
//! deadlock, message-loss and statement-budget diagnoses — enforced by
//! the `executor:async` fuzz oracle and the conformance suites at P up
//! to 4096. A task that can run runs to its own result, and the run's
//! error is the lowest-numbered failed task's, so a runaway on every
//! processor names p0 as the simulator does, whichever budget ran out
//! first; tasks left parked after a failure are retired at quiescence.

use crate::config::MachineConfig;
use crate::env::RtError;
use crate::interp::{Action, Interp};
use crate::kernels::KernelRegistry;
use crate::proc::{Machine, Processor};
use crate::recorder::Recorder;
use crate::report::{ExecReport, Gathered, ThreadReport};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;
use xdp_collectives::PlanCtx;
use xdp_ir::{Program, VarId};
use xdp_machine::ThreadNet;
use xdp_runtime::{Msg, Value};
use xdp_trace::{Trace, WaitCause};

/// Statements a task executes before yielding its worker, so thousands
/// of compute-heavy tasks share the pool fairly.
const QUANTUM: usize = 128;

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
        let plan_ctx = crate::proc::join_machine(&mut procs, &cfg);
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
                        taken_at: 0,
                        taken: Vec::new(),
                    })
                })
                .collect(),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: (0..n).map(|_| AtomicBool::new(true)).collect(),
            active: AtomicUsize::new(n),
            idle_mx: Mutex::new(()),
            idle_cv: Condvar::new(),
            barrier: Mutex::new(Vec::new()),
            done: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            net: ThreadNet::with_faults(n, self.cfg.faults.clone()),
            n,
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
        let results: Vec<Result<Trace, RtError>> = sh
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
            trace.merge(r?);
        }
        if tcfg.instants {
            crate::report::push_fault_events(&mut trace, &fault_events);
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

/// The receive a blocked task waits on.
#[derive(Clone, Copy)]
struct Pending {
    req: u64,
    /// Wait-start timestamp (µs) for the trace span.
    t0: f64,
    /// True during the post-`Done` drain (different wait cause and
    /// stuck diagnosis).
    quiesce: bool,
}

/// Task lifecycle. `Runnable` tasks sit in (or are owed a slot in) a
/// run queue; `Blocked`/`AtBarrier` tasks are parked and re-entered by
/// a pairing send's wakeup or a barrier release. `Draining` is the
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
    result: Option<Result<Trace, RtError>>,
    /// Whether this task has been counted out of barrier participation
    /// (program complete or failed).
    counted_done: bool,
    /// [`ThreadNet::paired`] for this pid at its last take.
    taken_at: u64,
    /// The buffer a take fills, kept between takes.
    taken: Vec<(u64, Msg)>,
}

struct Shared<'a, P: Processor> {
    tasks: Vec<Mutex<Task<'a, P>>>,
    /// One run queue per worker (stealing targets).
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Dedup flag: task is in some queue (or about to be polled).
    queued: Vec<AtomicBool>,
    /// Queue entries plus polls in progress: zero when every task is
    /// parked or finished. Moves per wake and per poll, never per step.
    active: AtomicUsize,
    /// Idle workers wait under it, re-checking the run queues and
    /// `finished`; whoever queues a task or ends the run does so under it,
    /// so no wakeup falls between a worker's check and its wait.
    idle_mx: Mutex<()>,
    idle_cv: Condvar,
    /// Pids arrived at the current barrier generation.
    barrier: Mutex<Vec<usize>>,
    /// Tasks that will never reach another barrier (done or failed).
    done: AtomicUsize,
    /// Tasks with a recorded result.
    finished: AtomicUsize,
    net: ThreadNet,
    n: usize,
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

    /// Queue `pid` for polling (idempotent while already queued), active
    /// before it can be popped.
    fn enqueue(&self, pid: usize) {
        if !self.queued[pid].swap(true, Ordering::AcqRel) {
            self.active.fetch_add(1, Ordering::SeqCst);
            let _idle = self.idle_mx.lock().unwrap();
            self.queues[pid % self.queues.len()]
                .lock()
                .unwrap()
                .push_back(pid);
            self.idle_cv.notify_one();
        }
    }

    /// May an idle worker sleep: is the run unfinished with every run
    /// queue empty? Asked under `idle_mx`.
    fn idle(&self) -> bool {
        self.finished.load(Ordering::SeqCst) < self.n
            && self.queues.iter().all(|q| q.lock().unwrap().is_empty())
    }

    /// Sleep until a task is queued or the run ends. The check and the
    /// wait are one step under `idle_mx`, which whoever queues a task or
    /// ends the run holds to notify.
    fn wait_idle(&self) {
        let idle = self.idle_mx.lock().unwrap();
        let woken = self.idle_cv.wait_while(idle, |()| {
            let idle = self.idle();
            if idle {
                in_idle_window();
            }
            idle
        });
        drop(woken.expect("idle lock poisoned"));
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

    /// No task is active: each one is parked or finished. Unless the run
    /// is over, no task can ever run again. Retire every task and hand the
    /// lowest unfinished pid the stuck diagnosis — unless a task has
    /// already failed, whose error stands.
    fn quiesced(&self) {
        let _deciding = self.idle_mx.lock().unwrap();
        if self.active.load(Ordering::SeqCst) > 0 || self.finished.load(Ordering::SeqCst) == self.n
        {
            return;
        }
        let mut tasks: Vec<_> = self.tasks.iter().map(|t| t.lock().unwrap()).collect();
        let failed = tasks.iter().any(|t| matches!(t.result, Some(Err(_))));
        let waiting = (0..self.n)
            .filter(|&pid| matches!(tasks[pid].state, TState::Blocked(_)))
            .map(|pid| (pid, &*tasks[pid].interp));
        let detail = || (0..self.n).map(|pid| tasks[pid].waits_on(pid)).collect();
        let mut err =
            (!failed).then(|| crate::proc::stuck_error(waiting, &self.net.lost(), detail));
        for task in tasks
            .iter_mut()
            .filter(|t| !matches!(t.state, TState::Finished))
        {
            let part = task.rec.take(self.n);
            task.result = Some(err.take().map_or(Ok(part), Err));
            task.state = TState::Finished;
            self.finished.fetch_add(1, Ordering::SeqCst);
        }
        self.idle_cv.notify_all();
    }
}

impl<P: Processor> Task<'_, P> {
    /// What a task left at quiescence waits on: a line of a deadlock.
    fn waits_on(&self, pid: usize) -> String {
        let at = self.interp.position();
        // A parked task's receive is still outstanding: nothing paired it.
        let tag = |p: &Pending| {
            let next = self.interp.env().next_outstanding(p.req - 1);
            next.expect("a parked task's receive is outstanding").1
        };
        match &self.state {
            TState::Blocked(p) if p.quiesce => {
                format!(
                    "  p{pid}: unfinished receive of {} at program end\n",
                    tag(p)
                )
            }
            TState::Blocked(p) => format!("  p{pid}: blocked on receive of {} [{at}]\n", tag(p)),
            TState::AtBarrier { .. } => format!("  p{pid}: at a barrier [{at}]\n"),
            _ => format!("  p{pid}: finished\n"),
        }
    }
}

fn worker_loop<P: Processor>(sh: &Shared<'_, P>, w: usize) {
    loop {
        if sh.finished.load(Ordering::SeqCst) >= sh.n {
            return;
        }
        match sh.pop(w) {
            Some(pid) => {
                sh.queued[pid].store(false, Ordering::Release);
                poll_task(sh, pid);
                // A task still able to run is queued again by now.
                if sh.active.fetch_sub(1, Ordering::SeqCst) == 1 {
                    sh.quiesced();
                }
            }
            None => sh.wait_idle(),
        }
    }
}

/// Drive one task as far as it can go right now.
fn poll_task<P: Processor>(sh: &Shared<'_, P>, pid: usize) {
    let mut guard = sh.tasks[pid].lock().unwrap();
    let task = &mut *guard;
    loop {
        let advanced = match task.state {
            TState::Finished | TState::AtBarrier { .. } => return,
            TState::Blocked(p) => await_recv(sh, task, pid, p),
            TState::Draining => drain(sh, task),
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
    task.result = Some(res.map(|()| task.rec.take(sh.n)));
    task.state = TState::Finished;
    {
        let _idle = sh.idle_mx.lock().unwrap();
        if sh.finished.fetch_add(1, Ordering::SeqCst) + 1 == sh.n {
            sh.idle_cv.notify_all();
        }
    }
    // This task's departure may complete a barrier generation.
    if let Some(rel) = sh.take_release() {
        sh.release_peers(&rel, None);
    }
}

/// Wait for the receive `p` the task must complete before going on: a
/// blocking await, or (`p.quiesce`) a leftover drained after `Done`.
/// Completes whatever the net has paired for the task and goes on to
/// re-step (or drain), or parks until a pairing send wakes it. Returns
/// true if the task advanced (poll again), false if it parked.
fn await_recv<P: Processor>(
    sh: &Shared<'_, P>,
    task: &mut Task<'_, P>,
    pid: usize,
    p: Pending,
) -> bool {
    match take_paired(sh, task, pid, Some(p.t0)) {
        Some(0) => return false,
        Some(_) => {}
        None => return true,
    }
    let cause = if p.quiesce {
        WaitCause::Quiesce
    } else {
        WaitCause::Message(p.req)
    };
    task.rec.wait(pid, cause, Some(p.req), p.t0, sh.edge());
    task.state = if p.quiesce {
        TState::Draining
    } else {
        TState::Runnable
    };
    true
}

/// Post-`Done` drain: wait for the next leftover receive so the final
/// state is coherent, or finish when none is left.
fn drain<P: Processor>(sh: &Shared<'_, P>, task: &mut Task<'_, P>) -> bool {
    match task.interp.env().next_outstanding(0) {
        None => finish(sh, task, Ok(())),
        Some((req, _)) => {
            let t0 = sh.edge();
            let quiesce = true;
            task.state = TState::Blocked(Pending { req, t0, quiesce });
        }
    }
    true
}

/// Complete the receives the net has paired for the task. Unless it is to
/// park (`parked_since`, the start of its wait), the task takes only when
/// its count of pairs has moved; to park, it takes under the lock that
/// parks it when nothing was paired. Returns how many completed, or
/// `None` if a completion failed the task.
fn take_paired<P: Processor>(
    sh: &Shared<'_, P>,
    task: &mut Task<'_, P>,
    pid: usize,
    parked_since: Option<f64>,
) -> Option<usize> {
    let paired = sh.net.paired(pid);
    if paired == task.taken_at && parked_since.is_none() {
        return Some(0);
    }
    task.taken_at = paired;
    let mut took = std::mem::take(&mut task.taken);
    sh.net.take(pid, parked_since.is_some(), &mut took);
    let (n, since) = (took.len(), parked_since.unwrap_or_else(|| sh.edge()));
    for (req, msg) in took.drain(..) {
        sh.delivered(&mut task.rec, pid, req, &msg, since);
        if let Err(e) = task.interp.complete_recv(req, msg) {
            finish(sh, task, Err(e));
            return None;
        }
    }
    task.taken = took;
    Some(n)
}

/// Execute up to [`QUANTUM`] statements. Returns true if the task's
/// state changed and the poll loop should re-inspect it, false if it
/// parked or yielded.
fn run_quantum<P: Processor>(sh: &Shared<'_, P>, task: &mut Task<'_, P>, pid: usize) -> bool {
    for _ in 0..QUANTUM {
        if take_paired(sh, task, pid, None).is_none() {
            return true;
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
                dest.post_each(msg, |msg, q| {
                    if let Some(p) = sh.net.send(msg, q) {
                        sh.enqueue(p);
                    }
                });
            }
            Action::PostRecv { tag, req_id } => {
                let t = sh.now();
                task.rec.recv_post(pid, sid, &tag, req_id, t, t);
                sh.net.post_recv(tag, pid, req_id);
            }
            Action::BlockOn { var, sec } => {
                // Wait on the first outstanding receive gating this
                // section; with none, nothing could ever unblock it.
                let Some(&(req, _)) = task.interp.outstanding_for(var, &sec).first() else {
                    let e = format!("p{pid}: blocked on {var}{sec} with no outstanding receive");
                    finish(sh, task, Err(RtError::Deadlock(e)));
                    return true;
                };
                let (t0, quiesce) = (sh.edge(), false);
                task.state = TState::Blocked(Pending { req, t0, quiesce });
                return true;
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

/// Where a test may act between an idle worker's check and its wait.
#[cfg(not(test))]
fn in_idle_window() {}

#[cfg(test)]
fn in_idle_window() {
    tests::IN_IDLE_WINDOW.with(|hook| hook.take().map(|f| f()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimExec;
    use std::sync::Arc;
    use std::time::Duration;
    use xdp_fault::FaultPlan;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemExpr, ElemType, ProcGrid};
    use xdp_machine::Topology;
    use xdp_trace::{TraceConfig, TraceKind};

    thread_local! {
        /// Run once by [`Shared::wait_idle`] on this thread, between a
        /// check that found nothing to run and the wait.
        pub(super) static IN_IDLE_WINDOW: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
            const { std::cell::Cell::new(None) };
    }

    /// A task queued between an idle worker's check and its wait wakes it:
    /// `enqueue` takes `idle_mx`, so it cannot queue and notify until the
    /// worker waits. Queued and notified inside that window, the task
    /// would wait for a wakeup nobody sends.
    #[test]
    fn a_task_queued_between_the_idle_check_and_the_wait_wakes_the_worker() {
        let sh: Arc<Shared<'static, Interp>> = Arc::new(Shared {
            tasks: Vec::new(),
            queues: vec![Mutex::new(VecDeque::new())],
            queued: vec![AtomicBool::new(false)],
            active: AtomicUsize::new(0),
            idle_mx: Mutex::new(()),
            idle_cv: Condvar::new(),
            barrier: Mutex::new(Vec::new()),
            done: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            net: ThreadNet::new(1),
            n: 1,
            start: Instant::now(),
            traced: false,
            timeline: false,
        });
        let (woke, woken) = std::sync::mpsc::channel();
        let worker = {
            let sh = sh.clone();
            std::thread::spawn(move || {
                let queuer = sh.clone();
                let open = move || {
                    std::thread::spawn(move || queuer.enqueue(0));
                    // Long enough for an enqueue that does not wait on
                    // `idle_mx` to queue and notify.
                    std::thread::sleep(Duration::from_millis(200));
                };
                IN_IDLE_WINDOW.with(|hook| hook.set(Some(Box::new(open))));
                sh.wait_idle();
                woke.send(()).unwrap();
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while woken.try_recv().is_err() {
            assert!(
                Instant::now() < deadline,
                "the worker slept through a task queued between its idle check and its wait"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        worker.join().unwrap();
        assert_eq!(sh.pop(0), Some(0));
    }

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
            assert_eq!(w.var.map(|v| &**r.trace.var_name(v)), Some("B"));
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

        assert_eq!(sr.trace.movement_keys(), ar.trace.movement_keys());
        assert_eq!(sr.net.messages, ar.net.messages);
        assert_eq!(sexec.gather(a), aexec.gather(a));
    }

    /// Nothing is ever sent, so once both tasks park the run is stuck:
    /// a deadlock at once, naming what each pid waits on — awaited, and
    /// left unfinished at program end. The text is pinned.
    #[test]
    fn async_stuck_text_is_pinned() {
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
                workers: 1,
                ..MachineConfig::new(2)
            };
            AsyncExec::new(Arc::new(p), KernelRegistry::standard(), cfg)
                .run()
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            run(true),
            "deadlock:\n  p0: blocked on receive of v0[1:2] [stmt 1/2]\n  \
             p1: blocked on receive of v0[3:4] [stmt 1/2]\n"
        );
        assert_eq!(
            run(false),
            "deadlock:\n  p0: unfinished receive of v0[1:2] at program end\n  \
             p1: unfinished receive of v0[3:4] at program end\n"
        );
    }

    /// A failed task leaves no peer waiting: p0 runs away and stops at the
    /// statement budget, p1 is parked on a receive p0 never sends, so the
    /// machine is quiescent at once and the run names p0's error, not a
    /// deadlock.
    #[test]
    fn a_failing_task_cancels_its_peers() {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 4)],
            vec![DimDist::Block],
            ProcGrid::linear(2),
        ));
        let (first, third) = (
            b::sref(a, vec![b::at(b::c(1))]),
            b::sref(a, vec![b::at(b::c(3))]),
        );
        let bump = b::assign(
            first.clone(),
            b::val(first.clone()).add(ElemExpr::LitF(1.0)),
        );
        p.body = vec![
            b::guarded(
                b::iown(third.clone()),
                vec![
                    b::recv_val(third.clone(), first.clone()),
                    b::guarded(b::await_(third), vec![]),
                ],
            ),
            b::do_loop(
                "i",
                b::c(1),
                b::c(1_000_000_000_000),
                vec![b::guarded(b::iown(first), vec![bump])],
            ),
        ];
        let cfg = MachineConfig {
            workers: 2,
            max_steps: 10_000,
            ..MachineConfig::new(2)
        };
        let start = Instant::now();
        let err = AsyncExec::new(Arc::new(p), KernelRegistry::standard(), cfg)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            RtError::StepBudget {
                pid: 0,
                max_steps: 10_000
            }
        );
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "{:?}",
            start.elapsed()
        );
    }

    /// A task that can run is not cancelled: on a runaway that every
    /// processor runs, p1's lighter loop (it owns no `A[1]` to bump)
    /// usually spends its budget first, and p0 still runs to its own, so
    /// the run names p0 every time, as the simulator does.
    #[test]
    fn a_runaway_on_every_task_names_the_lowest_pid() {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 4)],
            vec![DimDist::Block],
            ProcGrid::linear(2),
        ));
        let first = b::sref(a, vec![b::at(b::c(1))]);
        let bump = b::assign(
            first.clone(),
            b::val(first.clone()).add(ElemExpr::LitF(1.0)),
        );
        p.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(1_000_000_000_000),
            vec![b::guarded(b::iown(first), vec![bump])],
        )];
        let p = Arc::new(p);
        for _ in 0..8 {
            let cfg = MachineConfig {
                workers: 2,
                max_steps: 10_000,
                ..MachineConfig::new(2)
            };
            let err = AsyncExec::new(p.clone(), KernelRegistry::standard(), cfg)
                .run()
                .unwrap_err();
            assert_eq!(
                err,
                RtError::StepBudget {
                    pid: 0,
                    max_steps: 10_000
                }
            );
        }
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

        let plan = FaultPlan::uniform(
            17,
            LinkFault {
                drop: 0.1,
                dup: 0.1,
                reorder: 0.2,
                delay_p: 0.2,
                delay: 200.0,
            },
        );
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
        plan.max_retries = 3;
        let mut exec = AsyncExec::new(
            prog,
            KernelRegistry::standard(),
            MachineConfig::new(4).with_faults(plan),
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
