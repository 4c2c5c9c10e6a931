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
    Action, ExecReport, Gathered, Interp, KernelRegistry, Machine, MachineConfig, ProcReport,
    Processor, Recorder, RtError,
};
use xdp_ir::{Program, VarId};
use xdp_machine::NetStats;
use xdp_runtime::{Msg, Tag, Value};
use xdp_trace::Trace;

/// Scheduling rounds after which a run is abandoned as runaway. A
/// constant beside the loop it guards, not a field: no caller ever set it.
const MAX_ROUNDS: u64 = 50_000_000;

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
/// init/run/gather API and is built from the same [`MachineConfig`]: it
/// plans redistributions under `cost` and `topo` like the machines it
/// referees, has no clock for `recv_timeout` or `workers` to mean
/// anything on, and refuses a fault plan.
pub struct Lockstep {
    cfg: MachineConfig,
    interps: Vec<Interp>,
    rec: Recorder,
}

impl Lockstep {
    /// Load `program` onto every processor.
    pub fn new(program: Arc<Program>, kernels: KernelRegistry, cfg: MachineConfig) -> Lockstep {
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
        xdp_core::proc::join_machine(&mut interps, cfg.cost, cfg.topo.clone());
        let rec = Recorder::new(Recorder::names(&interps), cfg.trace);
        Lockstep { cfg, interps, rec }
    }

    /// Initialize an exclusive array (owned elements on each processor).
    pub fn init_exclusive(&mut self, var: VarId, f: impl Fn(&[i64]) -> Value) {
        xdp_core::proc::init_exclusive(&mut self.interps, var, f);
    }

    /// Run all processors to completion, round-robin. Rounds stand in for
    /// time in the report; of its network statistics only the message
    /// count is meaningful.
    pub fn run(&mut self) -> Result<ExecReport, RtError> {
        let n = self.cfg.nprocs;
        if let Err(e) = self.cfg.topo.validate(n) {
            return Err(RtError::Topology(e.to_string()));
        }
        if self.cfg.faults.is_active() {
            return Err(RtError::Unsupported(
                "the lockstep reference delivers every message exactly once \
                 and cannot inject the configured fault plan"
                    .into(),
            ));
        }
        let mut sends: Vec<PendingSend> = Vec::new();
        let mut states = vec![ProcState::Running; n];
        let mut messages = 0u64;
        let mut round = 0u64;
        loop {
            round += 1;
            if round > MAX_ROUNDS {
                return Err(RtError::Deadlock(format!(
                    "lockstep: round limit {MAX_ROUNDS} exceeded"
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
        let mut net = NetStats::new(n);
        net.messages = messages;
        Ok(ExecReport {
            nprocs: n,
            virtual_time: round as f64,
            procs: vec![ProcReport::default(); n],
            net,
            trace,
            faults: Default::default(),
        })
    }

    /// Gather the global contents of an exclusive array after execution.
    pub fn gather(&self, var: VarId) -> Gathered {
        xdp_core::proc::gather(&self.interps, var)
    }
}

impl Machine for Lockstep {
    fn init_exclusive(&mut self, var: VarId, f: &dyn Fn(&[i64]) -> Value) {
        Lockstep::init_exclusive(self, var, f)
    }

    fn run_report(&mut self) -> Result<ExecReport, RtError> {
        self.run()
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
    use xdp_trace::TraceConfig;

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
        let mut exec = Lockstep::new(prog, KernelRegistry::standard(), MachineConfig::new(4));
        exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        exec.init_exclusive(bb, |idx| Value::F64(100.0 * idx[0] as f64));
        let r = exec.run().unwrap();
        assert_eq!(r.net.messages, n as u64);
        let g = exec.gather(a);
        for i in 1..=n {
            assert_eq!(g.get(&[i]).unwrap().as_f64(), 101.0 * i as f64);
        }
    }

    #[test]
    fn lockstep_movement_matches_simulator() {
        let n = 12;
        let (prog, a, bb) = simple(n, 3);
        let cfg = MachineConfig::new(3).with_trace(TraceConfig::full());
        let mut ls = Lockstep::new(prog.clone(), KernelRegistry::standard(), cfg.clone());
        ls.init_exclusive(a, |_| Value::F64(0.0));
        ls.init_exclusive(bb, |_| Value::F64(1.0));
        let lr = ls.run().unwrap();

        let mut sim = xdp_core::SimExec::new(prog, KernelRegistry::standard(), cfg);
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
            MachineConfig::new(2),
        );
        match exec.run() {
            Err(RtError::Deadlock(d)) => assert!(d.contains("no progress"), "{d}"),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// The reference cannot lose a message, so a description that asks it
    /// to is refused by name — not run as if the plan were absent.
    #[test]
    fn lockstep_refuses_a_fault_plan_by_name() {
        let (prog, ..) = simple(8, 2);
        let plan = xdp_fault::FaultPlan::parse("drop=0.1,seed=3").unwrap();
        let cfg = MachineConfig::new(2).with_faults(plan);
        match Lockstep::new(prog, KernelRegistry::standard(), cfg).run() {
            Err(RtError::Unsupported(d)) => assert!(d.contains("fault plan"), "{d}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
}
