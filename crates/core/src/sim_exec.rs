//! The deterministic simulated SPMD executor.
//!
//! Drives one [`Interp`] per processor over a [`SimNet`] in virtual time.
//! Scheduling is canonical — among runnable processors, always the one with
//! the smallest `(clock, pid)` — so a given program, machine, and seed
//! reproduce the exact same virtual timeline, message log, and final state
//! on every run.

use crate::config::MachineConfig;
use crate::env::RtError;
use crate::interp::{Action, Interp};
use crate::kernels::KernelRegistry;
use crate::proc::{Machine, Processor};
use crate::recorder::Recorder;
use crate::report::{ExecReport, Gathered, ProcReport};
use std::sync::Arc;
use xdp_collectives::PlanCtx;
use xdp_ir::{Program, Section, VarId};
use xdp_machine::{Completion, SimNet};
use xdp_runtime::Value;
use xdp_trace::{Trace, WaitCause};

/// Interpreter steps after which a run is abandoned as a livelock. A
/// constant beside the loop it guards, not a field: no caller ever set it.
const MAX_STEPS: u64 = 500_000_000;

#[derive(Clone, Debug, PartialEq)]
enum PStatus {
    Ready,
    Blocked { var: VarId, sec: Section },
    AtBarrier,
    Done,
}

/// The simulated executor. Construct with [`SimExec::new`], optionally
/// initialize data with [`SimExec::init_exclusive`], then
/// [`SimExec::run`] and inspect the report or [`SimExec::gather`] final
/// state.
///
/// Generic over the [`Processor`] implementation; defaults to the
/// tree-walking [`Interp`]. Compiled backends construct via
/// [`SimExec::from_procs`].
pub struct SimExec<P: Processor = Interp> {
    cfg: MachineConfig,
    interps: Vec<P>,
    plan_ctx: Arc<PlanCtx>,
    clocks: Vec<f64>,
    status: Vec<PStatus>,
    inbox: Vec<Vec<(u64, Completion)>>,
    net: SimNet,
    busy: Vec<f64>,
    wait: Vec<f64>,
    sends: Vec<u64>,
    recvs: Vec<u64>,
    rec: Recorder,
}

impl SimExec {
    /// Load `program` onto every processor of the configured machine.
    pub fn new(program: Arc<Program>, kernels: KernelRegistry, cfg: MachineConfig) -> SimExec {
        let n = cfg.nprocs;
        // Refine segment shapes so planned redistributions move whole
        // segments (no-op for programs without `redistribute`).
        let program = xdp_collectives::prepare_arc(program);
        let interps = (0..n)
            .map(|pid| Interp::new(program.clone(), kernels.clone(), pid, n, cfg.checked))
            .collect();
        SimExec::from_procs(interps, cfg)
    }

    /// Direct mutable access to a processor's interpreter (tests).
    pub fn interp_mut(&mut self, pid: usize) -> &mut Interp {
        &mut self.interps[pid]
    }
}

impl<P: Processor> SimExec<P> {
    /// Drive pre-built processors (one per pid, in pid order) on the
    /// configured machine. The caller is responsible for having prepared
    /// the program (`xdp_collectives::prepare_arc`) identically on every
    /// processor; all of them join this machine's one planning context
    /// here.
    pub fn from_procs(mut procs: Vec<P>, cfg: MachineConfig) -> SimExec<P> {
        let n = cfg.nprocs;
        assert_eq!(procs.len(), n, "one processor per pid");
        let plan_ctx = crate::proc::join_machine(&mut procs, cfg.cost, cfg.topo.clone());
        let net = SimNet::with_faults(n, cfg.cost, cfg.topo.clone(), cfg.faults.clone());
        let rec = Recorder::new(Recorder::names(&procs), cfg.trace);
        SimExec {
            cfg,
            interps: procs,
            plan_ctx,
            clocks: vec![0.0; n],
            status: vec![PStatus::Ready; n],
            inbox: vec![Vec::new(); n],
            net,
            busy: vec![0.0; n],
            wait: vec![0.0; n],
            sends: vec![0; n],
            recvs: vec![0; n],
            rec,
        }
    }

    /// Initialize an exclusive array: every processor sets the elements it
    /// owns to `f(index)`.
    pub fn init_exclusive(&mut self, var: VarId, f: impl Fn(&[i64]) -> Value) {
        crate::proc::init_exclusive(&mut self.interps, var, f);
    }

    /// The planning context this machine's processors share.
    pub fn plan_ctx(&self) -> &PlanCtx {
        &self.plan_ctx
    }

    /// Advance `pid`'s clock to `t`, the arrival of the message for
    /// receive `req`, accounting the gap as wait.
    fn wait_for(&mut self, pid: usize, req: u64, t: f64) {
        let t0 = self.clocks[pid];
        if t > t0 {
            self.wait[pid] += t - t0;
            self.clocks[pid] = t;
            self.rec
                .wait(pid, WaitCause::Message(req), Some(req), t0, t);
        }
    }

    /// Apply all inbox completions whose message has arrived by `pid`'s
    /// clock, charging each one's handling cost to the processor.
    fn drain_due(&mut self, pid: usize) -> Result<(), RtError> {
        loop {
            let now = self.clocks[pid];
            let due = self.inbox[pid]
                .iter()
                .enumerate()
                .filter(|(_, (_, c))| c.arrive_at <= now)
                .min_by(|(_, (_, a)), (_, (_, b))| {
                    (a.arrive_at, a.req_id)
                        .partial_cmp(&(b.arrive_at, b.req_id))
                        .unwrap()
                })
                .map(|(i, _)| i);
            match due {
                None => return Ok(()),
                Some(i) => {
                    let (req, c) = self.inbox[pid].remove(i);
                    self.recvs[pid] += 1;
                    let t0 = self.clocks[pid];
                    self.clocks[pid] += c.handling;
                    self.busy[pid] += c.handling;
                    let wire = (c.sent_at, c.arrive_at);
                    self.rec
                        .completed(pid, req, &c.msg, wire, t0, self.clocks[pid]);
                    self.interps[pid].complete_recv(req, c.msg)?;
                }
            }
        }
    }

    /// Deliver a match produced by the network.
    fn deliver(&mut self, c: Completion) {
        self.inbox[c.dst].push((c.req_id, c));
    }

    /// Run to completion, returning the report.
    pub fn run(&mut self) -> Result<ExecReport, RtError> {
        // A machine larger than its topology would get garbage hop
        // counts for the overflow pids; refuse up front with the named
        // diagnosis instead.
        if let Err(e) = self.cfg.topo.validate(self.cfg.nprocs) {
            return Err(RtError::Topology(e.to_string()));
        }
        let mut steps: u64 = 0;
        let o = self.cfg.cost.cpu_overhead;
        loop {
            steps += 1;
            if steps > MAX_STEPS {
                return Err(RtError::Deadlock(format!(
                    "step budget {MAX_STEPS} exhausted (livelock?)"
                )));
            }
            // Pick the runnable processor with the smallest (clock, pid).
            let ready = (0..self.cfg.nprocs)
                .filter(|&p| self.status[p] == PStatus::Ready)
                .min_by(|&a, &b| {
                    (self.clocks[a], a)
                        .partial_cmp(&(self.clocks[b], b))
                        .unwrap()
                });
            if let Some(p) = ready {
                self.drain_due(p)?;
                let t0 = self.clocks[p];
                let out = self.interps[p].step()?;
                let sid = out.sid;
                let cost = out.ops.symtab_ops as f64 * self.cfg.cost.symtab_op_time
                    + out.ops.seg_scans as f64 * self.cfg.cost.seg_scan_time
                    + out.ops.flops as f64 * self.cfg.cost.flop_time;
                self.clocks[p] += cost;
                self.busy[p] += cost;
                self.rec
                    .step(p, sid, out.ops.symtab_ops, out.note, t0, self.clocks[p]);
                match out.action {
                    Action::Continue => {}
                    Action::Send { msg, dest } => {
                        let t1 = self.clocks[p];
                        self.clocks[p] += o;
                        self.busy[p] += o;
                        self.rec.send_init(p, sid, &msg, t1, self.clocks[p]);
                        self.sends[p] += 1;
                        let time = self.clocks[p];
                        match dest {
                            None => {
                                if let Some(c) = self.net.post_send(msg, None, time) {
                                    self.deliver(c);
                                }
                            }
                            Some(pids) => {
                                // Multicast: one bound copy per destination.
                                for q in pids {
                                    if let Some(c) =
                                        self.net.post_send(msg.clone(), Some(vec![q]), time)
                                    {
                                        self.deliver(c);
                                    }
                                }
                            }
                        }
                    }
                    Action::PostRecv { tag, req_id } => {
                        let t1 = self.clocks[p];
                        self.clocks[p] += o;
                        self.busy[p] += o;
                        self.rec.recv_post(p, sid, &tag, req_id, t1, self.clocks[p]);
                        if let Some(c) = self.net.post_recv(tag, p, self.clocks[p], req_id) {
                            self.deliver(c);
                        }
                    }
                    Action::BlockOn { var, sec } => {
                        self.status[p] = PStatus::Blocked { var, sec };
                    }
                    Action::Barrier => {
                        self.status[p] = PStatus::AtBarrier;
                    }
                    Action::Done => {
                        self.status[p] = PStatus::Done;
                    }
                }
                continue;
            }

            // No processor ready: wake the blocked processor whose earliest
            // inbox completion is soonest.
            let wake = (0..self.cfg.nprocs)
                .filter(|&p| matches!(self.status[p], PStatus::Blocked { .. }))
                .filter_map(|p| {
                    self.inbox[p]
                        .iter()
                        .map(|(req, c)| (c.arrive_at, *req))
                        .min_by(|a, b| a.partial_cmp(b).unwrap())
                        .map(|(t, req)| (t, p, req))
                })
                .min_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
            if let Some((t, p, req)) = wake {
                self.wait_for(p, req, t);
                self.drain_due(p)?;
                self.status[p] = PStatus::Ready;
                continue;
            }

            // Barrier release: every unfinished processor is at the
            // barrier.
            let unfinished: Vec<usize> = (0..self.cfg.nprocs)
                .filter(|&p| self.status[p] != PStatus::Done)
                .collect();
            if !unfinished.is_empty()
                && unfinished
                    .iter()
                    .all(|&p| self.status[p] == PStatus::AtBarrier)
            {
                let t = unfinished
                    .iter()
                    .map(|&p| self.clocks[p])
                    .fold(0.0f64, f64::max);
                for &p in &unfinished {
                    let t0 = self.clocks[p];
                    if t > t0 {
                        self.wait[p] += t - t0;
                        self.rec.wait(p, WaitCause::Barrier, None, t0, t);
                    }
                    self.clocks[p] = t;
                    self.status[p] = PStatus::Ready;
                    self.interps[p].pass_barrier();
                }
                continue;
            }

            if unfinished.is_empty() {
                // Quiesce: processors may have finished with matched but
                // not-yet-applied completions (receives the program never
                // awaited). Apply them so the final state reflects every
                // completed transfer, charging handling as usual.
                for pid in 0..self.cfg.nprocs {
                    while let Some((t, req)) = self.inbox[pid]
                        .iter()
                        .map(|(req, c)| (c.arrive_at, *req))
                        .min_by(|a, b| a.partial_cmp(b).unwrap())
                    {
                        self.wait_for(pid, req, t);
                        self.drain_due(pid)?;
                    }
                }
                break;
            }

            // No progress possible. If a blocked processor was waiting on a
            // message the fault layer permanently lost, that is a *loss*,
            // not a deadlock — name it.
            for p in 0..self.cfg.nprocs {
                if !matches!(self.status[p], PStatus::Blocked { .. }) {
                    continue;
                }
                for (_, tag) in self.interps[p].outstanding() {
                    if let Some(dl) = self.net.lost().iter().find(|l| l.matches(&tag, p)) {
                        return Err(RtError::MessageLost(format!(
                            "p{p}: receive of {tag}: message from p{} permanently lost \
                             (every transmission dropped; {} attempts)",
                            dl.src, dl.attempts
                        )));
                    }
                }
            }

            // Deadlock.
            let mut detail = String::new();
            for p in 0..self.cfg.nprocs {
                detail.push_str(&format!(
                    "  p{p}: {:?} at t={} [{}]\n",
                    self.status[p],
                    self.clocks[p],
                    self.interps[p].position(),
                ));
            }
            detail.push_str(&self.net.pending_detail());
            return Err(RtError::Deadlock(detail));
        }

        let virtual_time = self.clocks.iter().copied().fold(0.0f64, f64::max);
        let mut trace = Trace::new(self.cfg.nprocs);
        trace.end = virtual_time;
        trace.events = self.rec.take_events();
        if self.cfg.trace.instants {
            let evs = crate::report::fault_trace_events(self.net.fault_events());
            trace.events.extend(evs);
        }
        let procs = (0..self.cfg.nprocs)
            .map(|p| ProcReport {
                finish_time: self.clocks[p],
                busy: self.busy[p],
                wait: self.wait[p],
                sends: self.sends[p],
                recvs: self.recvs[p],
                symtab: self.interps[p].env().symtab.stats,
            })
            .collect();
        let mut net = self.net.stats.clone();
        net.redist_peak_bytes = self.net.redist_peak_bytes();
        Ok(ExecReport {
            nprocs: self.cfg.nprocs,
            virtual_time,
            procs,
            net,
            trace,
            faults: self.net.fault_stats(),
        })
    }

    /// Gather the global contents of an exclusive array after execution.
    pub fn gather(&self, var: VarId) -> Gathered {
        crate::proc::gather(&self.interps, var)
    }
}

impl<P: Processor> Machine for SimExec<P> {
    fn init_exclusive(&mut self, var: VarId, f: &dyn Fn(&[i64]) -> Value) {
        SimExec::init_exclusive(self, var, f)
    }

    fn run_report(&mut self) -> Result<ExecReport, RtError> {
        self.run()
    }

    fn gather(&self, var: VarId) -> Gathered {
        SimExec::gather(self, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_fault::FaultPlan;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};
    use xdp_machine::Topology;
    use xdp_trace::{TraceConfig, TraceKind};

    /// The paper's §2.2 straightforward owner-computes translation of
    /// `do i: A[i] = A[i] + B[i]`.
    fn paper_simple(n: i64, nprocs: usize) -> (Arc<Program>, VarId, VarId) {
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
            // Misaligned on purpose: B cyclic, so most B[i] live elsewhere.
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
    fn paper_simple_example_computes_correctly() {
        let n = 16;
        let (prog, a, bb) = paper_simple(n, 4);
        let mut exec = SimExec::new(prog, KernelRegistry::standard(), MachineConfig::new(4));
        exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        exec.init_exclusive(bb, |idx| Value::F64(100.0 * idx[0] as f64));
        let report = exec.run().unwrap();
        let g = exec.gather(a);
        for i in 1..=n {
            assert_eq!(g.get(&[i]).unwrap().as_f64(), 101.0 * i as f64, "i={i}");
        }
        // Every iteration moved one message (B cyclic vs A block => all but
        // aligned ones remote... the rendezvous still transfers each B[i]).
        assert_eq!(report.net.messages, n as u64);
        assert!(report.virtual_time > 0.0);
        assert!(report.efficiency() <= 1.0);
    }

    #[test]
    fn oversized_machine_is_a_topology_error() {
        // 6 pids on a 2x2 mesh: pids 4 and 5 have no mesh coordinates,
        // so the run must refuse with the named diagnosis instead of
        // simulating garbage hop counts.
        let (prog, a, bb) = paper_simple(8, 6);
        let cfg = MachineConfig::new(6).with_topo(Topology::Mesh2D { rows: 2, cols: 2 });
        let mut exec = SimExec::new(prog, KernelRegistry::standard(), cfg);
        exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        exec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64));
        match exec.run() {
            Err(RtError::Topology(d)) => {
                assert!(d.contains("mesh 2x2"), "{d}");
                assert!(d.contains("pids 4..5"), "{d}");
            }
            other => panic!("expected Topology error, got {other:?}"),
        }
    }

    #[test]
    fn determinism_same_program_same_timeline() {
        let (prog, a, bb) = paper_simple(12, 3);
        let run = || {
            let mut exec = SimExec::new(
                prog.clone(),
                KernelRegistry::standard(),
                MachineConfig::new(3),
            );
            exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
            exec.init_exclusive(bb, |idx| Value::F64(2.0 * idx[0] as f64));
            let r = exec.run().unwrap();
            (r.virtual_time, r.net.messages, r.net.wire_bytes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deadlock_is_reported() {
        // A receive with no matching send anywhere.
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 4)],
            vec![DimDist::Block],
            ProcGrid::linear(2),
        ));
        let mine = b::sref(
            a,
            vec![b::span(
                b::mylb(b::sref(a, vec![b::all()]), 1),
                b::myub(b::sref(a, vec![b::all()]), 1),
            )],
        );
        p.body = vec![
            b::recv_val(mine.clone(), mine.clone()),
            b::guarded(b::await_(mine.clone()), vec![]),
        ];
        let mut exec = SimExec::new(
            Arc::new(p),
            KernelRegistry::standard(),
            MachineConfig::new(2),
        );
        match exec.run() {
            Err(RtError::Deadlock(d)) => {
                assert!(d.contains("unmatched recv"), "{d}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, 4)],
            vec![DimDist::Block],
            ProcGrid::linear(2),
        ));
        let mine = b::sref(
            a,
            vec![b::span(
                b::mylb(b::sref(a, vec![b::all()]), 1),
                b::myub(b::sref(a, vec![b::all()]), 1),
            )],
        );
        // P0 does extra work before the barrier.
        p.body = vec![
            b::guarded(
                b::cmp(xdp_ir::CmpOp::Eq, b::mypid(), b::c(0)),
                vec![b::kernel_with(
                    "work",
                    vec![mine.clone()],
                    vec![b::c(100_000)],
                )],
            ),
            xdp_ir::Stmt::Barrier,
            b::assign(mine.clone(), xdp_ir::ElemExpr::LitF(1.0)),
        ];
        let mut exec = SimExec::new(
            Arc::new(p),
            KernelRegistry::standard(),
            MachineConfig::new(2),
        );
        let r = exec.run().unwrap();
        // P1 waited at the barrier for P0's work.
        assert!(r.procs[1].wait > 0.0, "{:?}", r.procs);
        let g = exec.gather(a);
        assert_eq!(g.get(&[3]).unwrap().as_f64(), 1.0);
    }

    #[test]
    fn timeline_records_intervals() {
        let (prog, a, bb) = paper_simple(8, 2);
        let mut exec = SimExec::new(
            prog,
            KernelRegistry::standard(),
            MachineConfig::new(2).with_timeline(),
        );
        exec.init_exclusive(a, |_| Value::F64(0.0));
        exec.init_exclusive(bb, |_| Value::F64(1.0));
        let r = exec.run().unwrap();
        assert!(!r.trace.is_empty());
        let gantt = r.gantt(60);
        assert!(gantt.contains("p0"));
        assert!(gantt.contains('#'));
    }

    #[test]
    fn full_trace_links_movement_events() {
        let (prog, a, bb) = paper_simple(8, 2);
        let mut exec = SimExec::new(
            prog,
            KernelRegistry::standard(),
            MachineConfig::new(2).with_trace(TraceConfig::full()),
        );
        exec.init_exclusive(a, |_| Value::F64(0.0));
        exec.init_exclusive(bb, |_| Value::F64(1.0));
        let r = exec.run().unwrap();
        assert!((r.trace.end - r.virtual_time).abs() < 1e-9);
        let wires: Vec<_> = r.trace.of_kind(TraceKind::WireTransit).collect();
        assert_eq!(wires.len() as u64, r.net.messages);
        // Every wire edge is attributed: receiver statement, sender pid,
        // tag name, and a matching recv-complete with the same msg_id.
        for w in &wires {
            assert!(w.sid.is_some(), "{w:?}");
            assert!(w.src.is_some(), "{w:?}");
            assert_eq!(w.var.as_deref(), Some("B"));
            assert!(w.t1 >= w.t0);
            let id = w.msg_id.unwrap();
            assert!(r
                .trace
                .of_kind(TraceKind::RecvComplete)
                .any(|rc| rc.msg_id == Some(id) && rc.pid == w.pid));
        }
        // Section-state instants were recorded for each transfer.
        assert!(r
            .trace
            .of_kind(TraceKind::SectionState)
            .any(|e| e.detail.as_deref() == Some("accessible")));
        // The critical path attributes all of the end-to-end time.
        let report = r.trace.critical_path(&std::collections::HashMap::new());
        assert!((report.attributed() - r.virtual_time).abs() < 1e-6 * r.virtual_time);
    }

    #[test]
    fn sim_chaos_matches_fault_free_state_and_attribution() {
        use xdp_fault::LinkFault;
        let n = 16;
        let (prog, a, bb) = paper_simple(n, 4);
        let run = |faults: FaultPlan| {
            let mut exec = SimExec::new(
                prog.clone(),
                KernelRegistry::standard(),
                MachineConfig::new(4)
                    .with_trace(TraceConfig::full())
                    .with_faults(faults),
            );
            exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
            exec.init_exclusive(bb, |idx| Value::F64(3.0 * idx[0] as f64));
            let r = exec.run().unwrap();
            let g = exec.gather(a);
            (r, g)
        };
        let (rc, gc) = run(FaultPlan::none());
        let mut plan = FaultPlan::uniform(
            5,
            LinkFault {
                drop: 0.1,
                dup: 0.1,
                reorder: 0.2,
                delay_p: 0.2,
                delay: 50.0,
            },
        );
        plan.rto = 80.0;
        let (rf, gf) = run(plan);
        for i in 1..=n {
            assert_eq!(gc.get(&[i]), gf.get(&[i]), "i={i}");
        }
        assert!(rf.faults.any_injected(), "chaos plan injected nothing");
        assert_eq!(rf.net.messages, rc.net.messages);
        assert!(
            rf.virtual_time >= rc.virtual_time,
            "faults never speed a run"
        );
        // Retry time is attributed, not lost: the critical path still
        // covers 100% of end-to-end time with fault instants present.
        assert!(rf
            .trace
            .events
            .iter()
            .any(|e| e.kind == TraceKind::Retry || e.kind == TraceKind::FaultDrop));
        let report = rf.trace.critical_path(&std::collections::HashMap::new());
        assert!(
            (report.attributed() - rf.virtual_time).abs() <= 1e-6 * rf.virtual_time,
            "attributed {} of {}",
            report.attributed(),
            rf.virtual_time
        );
    }

    #[test]
    fn sim_permanent_loss_is_diagnosed_not_deadlock() {
        let (prog, a, bb) = paper_simple(8, 2);
        let mut plan = FaultPlan::none();
        plan.kill.push((0, 1));
        plan.max_retries = 2;
        let mut exec = SimExec::new(
            prog,
            KernelRegistry::standard(),
            MachineConfig::new(2).with_faults(plan),
        );
        exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        exec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64));
        match exec.run() {
            Err(RtError::MessageLost(d)) => {
                assert!(d.contains("permanently lost"), "{d}");
            }
            other => panic!("expected MessageLost, got {other:?}"),
        }
    }

    #[test]
    fn gather_reports_owners() {
        let (prog, a, bb) = paper_simple(8, 2);
        let mut exec = SimExec::new(prog, KernelRegistry::standard(), MachineConfig::new(2));
        exec.init_exclusive(a, |_| Value::F64(0.0));
        exec.init_exclusive(bb, |_| Value::F64(1.0));
        exec.run().unwrap();
        let g = exec.gather(a);
        // Block distribution of 8 over 2: P0 owns 1..4, P1 owns 5..8.
        assert_eq!(g.owner(&[1]), Some(0));
        assert_eq!(g.owner(&[8]), Some(1));
    }
}
