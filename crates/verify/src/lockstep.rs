//! The lockstep executor: a third, deliberately boring way to run a
//! program.
//!
//! Processors advance strictly round-robin, one interpreter step per
//! round, and a posted receive completes the moment a matching send
//! exists — there is no notion of time, cost, or concurrency. Any program
//! whose fingerprint depends on scheduling or message timing will
//! therefore disagree with [`xdp_core::SimExec`] (virtual-time order) or
//! [`xdp_core::AsyncExec`] (real concurrency), which is exactly what the
//! differential driver wants to detect.
//!
//! It stays a loop of its own — it is the reference the machines are
//! compared against — but emits its trace through the same
//! [`xdp_core::Recorder`], so [`xdp_trace::Trace::movement_multiset`] is
//! directly comparable across all three.

use std::sync::Arc;
use xdp_core::{
    Action, ExecReport, Gathered, Interp, KernelRegistry, Machine, ProcReport, Processor, Recorder,
    RtError,
};
use xdp_ir::{Program, VarId};
use xdp_machine::{CostModel, NetStats, Topology};
use xdp_runtime::{Msg, Tag, Value};
use xdp_trace::{Trace, TraceConfig};

/// Configuration for [`Lockstep`].
#[derive(Clone, Debug)]
pub struct LockstepConfig {
    /// Number of processors.
    pub nprocs: usize,
    /// Checked runtime?
    pub checked: bool,
    /// What to record in the execution trace.
    pub trace: TraceConfig,
    /// Abort after this many scheduling rounds (runaway-program guard).
    pub max_rounds: u64,
}

impl LockstepConfig {
    /// Defaults: checked, full tracing (the fingerprint needs it).
    pub fn new(nprocs: usize) -> LockstepConfig {
        LockstepConfig {
            nprocs,
            checked: true,
            trace: TraceConfig::full(),
            max_rounds: 50_000_000,
        }
    }
}

/// Result of a lockstep run.
#[derive(Debug)]
pub struct LockstepReport {
    /// Scheduling rounds taken.
    pub rounds: u64,
    /// Messages placed on the (virtual) wire, multicast copies included.
    pub messages: u64,
    /// Recorded trace; timestamps are round numbers.
    pub trace: Trace,
}

#[derive(Clone, Copy, PartialEq)]
enum ProcState {
    Running,
    AtBarrier,
    Done,
}

/// One undelivered message copy.
struct PendingSend {
    msg: Msg,
    /// `None`: claimable by any processor's matching receive.
    dest: Option<usize>,
}

/// The lockstep executor. Mirrors [`xdp_core::SimExec`]'s
/// init/run/gather API.
pub struct Lockstep {
    cfg: LockstepConfig,
    interps: Vec<Interp>,
    rec: Recorder,
}

impl Lockstep {
    /// Load `program` onto every processor.
    pub fn new(program: Arc<Program>, kernels: KernelRegistry, cfg: LockstepConfig) -> Lockstep {
        let program = xdp_collectives::prepare_arc(program);
        let mut interps: Vec<Interp> = (0..cfg.nprocs)
            .map(|pid| {
                Interp::new(
                    program.clone(),
                    kernels.clone(),
                    pid,
                    cfg.nprocs,
                    cfg.checked,
                )
            })
            .collect();
        // No cost model to configure here: the machine plans with the 1993
        // defaults — once, like every other driver.
        xdp_core::proc::join_machine(&mut interps, CostModel::default_1993(), Topology::Uniform);
        let rec = Recorder::new(Recorder::names(&interps), cfg.trace);
        Lockstep { cfg, interps, rec }
    }

    /// Initialize an exclusive array (owned elements on each processor).
    pub fn init_exclusive(&mut self, var: VarId, f: impl Fn(&[i64]) -> Value) {
        xdp_core::proc::init_exclusive(&mut self.interps, var, f);
    }

    /// Run all processors to completion, round-robin.
    pub fn run(&mut self) -> Result<LockstepReport, RtError> {
        let n = self.cfg.nprocs;
        let mut sends: Vec<PendingSend> = Vec::new();
        let mut states = vec![ProcState::Running; n];
        let mut messages = 0u64;
        let mut round = 0u64;
        loop {
            round += 1;
            if round > self.cfg.max_rounds {
                return Err(RtError::Deadlock(format!(
                    "lockstep: round limit {} exceeded",
                    self.cfg.max_rounds
                )));
            }
            let t = round as f64;
            let mut progress = false;

            for (p, state) in states.iter_mut().enumerate() {
                // Complete every already-matchable outstanding receive —
                // including for finished processors still draining.
                loop {
                    let mut completed = false;
                    for (req, tag) in self.interps[p].outstanding() {
                        if let Some(msg) = claim(&mut sends, &tag, p) {
                            self.rec.completed(p, req, &msg, (t, t), t, t);
                            self.interps[p].complete_recv(req, msg)?;
                            completed = true;
                            progress = true;
                            break;
                        }
                    }
                    if !completed {
                        break;
                    }
                }
                if *state != ProcState::Running {
                    continue;
                }
                let out = self.interps[p].step()?;
                let sid = out.sid;
                match out.action {
                    Action::Continue => progress = true,
                    Action::Done => {
                        *state = ProcState::Done;
                        progress = true;
                    }
                    Action::Send { msg, dest } => {
                        progress = true;
                        self.rec.send_init(p, sid, &msg, t, t);
                        match dest {
                            None => {
                                messages += 1;
                                sends.push(PendingSend { msg, dest: None });
                            }
                            Some(pids) => {
                                // Multicast: one bound copy per destination.
                                for q in pids {
                                    messages += 1;
                                    sends.push(PendingSend {
                                        msg: msg.clone(),
                                        dest: Some(q),
                                    });
                                }
                            }
                        }
                    }
                    Action::PostRecv { tag, req_id } => {
                        progress = true;
                        self.rec.recv_post(p, sid, &tag, req_id, t, t);
                    }
                    Action::BlockOn { var, sec } => {
                        // No matching send yet (the drain above ran first):
                        // not progress. A permanently unmatched receive
                        // surfaces as global no-progress below.
                        let gating = self.interps[p].outstanding_for(var, &sec);
                        if gating.is_empty() {
                            return Err(RtError::Deadlock(format!(
                                "lockstep p{p}: blocked on {var:?}{sec} with no outstanding receive"
                            )));
                        }
                    }
                    Action::Barrier => {
                        *state = ProcState::AtBarrier;
                        progress = true;
                    }
                }
            }

            // Barrier release: every unfinished processor has arrived.
            let unfinished_at_barrier = states
                .iter()
                .all(|s| matches!(s, ProcState::AtBarrier | ProcState::Done));
            if unfinished_at_barrier && states.contains(&ProcState::AtBarrier) {
                for (p, state) in states.iter_mut().enumerate() {
                    if *state == ProcState::AtBarrier {
                        self.interps[p].pass_barrier();
                        *state = ProcState::Running;
                    }
                }
                progress = true;
            }

            let all_done = states.iter().all(|s| *s == ProcState::Done)
                && self.interps.iter().all(|i| i.outstanding().is_empty());
            if all_done {
                break;
            }
            if !progress {
                let detail: Vec<String> = (0..n)
                    .map(|p| format!("p{p}: {}", self.interps[p].position()))
                    .collect();
                return Err(RtError::Deadlock(format!(
                    "lockstep: no progress in round {round}; {}",
                    detail.join("; ")
                )));
            }
        }
        let mut trace = Trace::new(n);
        trace.end = round as f64;
        trace.events = self.rec.take_events();
        Ok(LockstepReport {
            rounds: round,
            messages,
            trace,
        })
    }

    /// Gather the global contents of an exclusive array after execution.
    pub fn gather(&self, var: VarId) -> Gathered {
        xdp_core::proc::gather(&self.interps, var)
    }
}

impl Machine for Lockstep {
    fn init_exclusive(&mut self, var: VarId, f: impl Fn(&[i64]) -> Value) {
        Lockstep::init_exclusive(self, var, f)
    }

    /// Rounds stand in for time; only the message count of the network
    /// statistics is meaningful.
    fn run_report(&mut self) -> Result<ExecReport, RtError> {
        let n = self.cfg.nprocs;
        let r = self.run()?;
        let mut net = NetStats::new(n);
        net.messages = r.messages;
        Ok(ExecReport {
            nprocs: n,
            virtual_time: r.rounds as f64,
            procs: vec![ProcReport::default(); n],
            net,
            trace: r.trace,
            faults: Default::default(),
        })
    }

    fn gather(&self, var: VarId) -> Gathered {
        Lockstep::gather(self, var)
    }
}

/// Take the first pending send matching `tag` addressed to `dst` (or to
/// anyone).
fn claim(sends: &mut Vec<PendingSend>, tag: &Tag, dst: usize) -> Option<Msg> {
    let k = sends
        .iter()
        .position(|s| s.msg.tag == *tag && s.dest.map(|d| d == dst).unwrap_or(true))?;
    Some(sends.remove(k).msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ElemType, ProcGrid};

    /// The thread-executor's canonical example: A[i] += B[i] via messages.
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
    fn lockstep_runs_the_canonical_comm_loop() {
        let n = 16;
        let (prog, a, bb) = simple(n, 4);
        let mut exec = Lockstep::new(prog, KernelRegistry::standard(), LockstepConfig::new(4));
        exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        exec.init_exclusive(bb, |idx| Value::F64(100.0 * idx[0] as f64));
        let r = exec.run().unwrap();
        assert_eq!(r.messages, n as u64);
        let g = exec.gather(a);
        for i in 1..=n {
            assert_eq!(g.get(&[i]).unwrap().as_f64(), 101.0 * i as f64);
        }
    }

    #[test]
    fn lockstep_movement_matches_simulator() {
        let n = 12;
        let (prog, a, bb) = simple(n, 3);
        let mut ls = Lockstep::new(
            prog.clone(),
            KernelRegistry::standard(),
            LockstepConfig::new(3),
        );
        ls.init_exclusive(a, |_| Value::F64(0.0));
        ls.init_exclusive(bb, |_| Value::F64(1.0));
        let lr = ls.run().unwrap();

        let mut sim = xdp_core::SimExec::new(
            prog,
            KernelRegistry::standard(),
            xdp_core::SimConfig::new(3).with_trace(TraceConfig::full()),
        );
        sim.init_exclusive(a, |_| Value::F64(0.0));
        sim.init_exclusive(bb, |_| Value::F64(1.0));
        let sr = sim.run().unwrap();

        assert_eq!(lr.trace.movement_multiset(), sr.trace.movement_multiset());
        for i in 1..=n {
            assert_eq!(ls.gather(a).get(&[i]), sim.gather(a).get(&[i]), "i={i}");
        }
    }

    #[test]
    fn lockstep_diagnoses_deadlock() {
        // A receive nothing ever sends to.
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
            b::guarded(b::await_(mine), vec![]),
        ];
        let mut exec = Lockstep::new(
            Arc::new(p),
            KernelRegistry::standard(),
            LockstepConfig::new(2),
        );
        match exec.run() {
            Err(RtError::Deadlock(d)) => assert!(d.contains("no progress"), "{d}"),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
