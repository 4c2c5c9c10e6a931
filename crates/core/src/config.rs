//! The one description of a machine.
//!
//! [`MachineConfig`] is what [`crate::SimExec`], [`crate::AsyncExec`] and
//! the reference executor in `xdp-verify` are all built from, so a setting
//! — a memory budget, a fault plan, a statement budget — cannot reach one
//! machine and miss another. A machine that cannot honour a field it is
//! handed refuses the run by name rather than ignore it. [`MachineKind`]
//! names the two machines that serve requests.

use xdp_fault::FaultPlan;
use xdp_machine::{CostModel, Topology};
use xdp_trace::TraceConfig;

/// A machine of `nprocs` processors.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processors.
    pub nprocs: usize,
    /// The cost model: what the simulator charges, and on every machine
    /// what the redistribution planner prices schedules with (its
    /// `mem_budget` bounds their staging).
    pub cost: CostModel,
    /// Interconnect topology, for the simulator's hop counts and the
    /// planner.
    pub topo: Topology,
    /// Enable the checked runtime (flags transitional reads etc.).
    pub checked: bool,
    /// What to record in the execution trace (costs memory; off by
    /// default — tracing never perturbs the simulated timeline).
    pub trace: TraceConfig,
    /// Fault-injection plan (inactive by default). `rto`/`delay` are
    /// virtual time units on the simulator and wall-clock microseconds on
    /// the task machine.
    pub faults: FaultPlan,
    /// Task machine only: worker threads; 0 means
    /// `min(available cores, nprocs)`.
    pub workers: usize,
    /// The statement budget: steps one processor may take before the run
    /// fails with [`crate::RtError::StepBudget`]. Counted by the processor
    /// as each step ends (`ProcEnv::end_step`), so every machine stops a
    /// runaway program at the same count.
    pub max_steps: u64,
}

impl MachineConfig {
    /// A checked 1993-flavored machine of `nprocs` processors on a uniform
    /// interconnect: no tracing, no faults, auto-sized worker pool, and a
    /// statement budget of 500 M steps a processor — the simulator's old
    /// loop bound, so nothing it ran stops short of it.
    pub fn new(nprocs: usize) -> MachineConfig {
        MachineConfig {
            nprocs,
            cost: CostModel::default_1993(),
            topo: Topology::Uniform,
            checked: true,
            trace: TraceConfig::off(),
            faults: FaultPlan::none(),
            workers: 0,
            max_steps: 500_000_000,
        }
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> MachineConfig {
        self.cost = cost;
        self
    }

    /// Replace the topology.
    pub fn with_topo(mut self, topo: Topology) -> MachineConfig {
        self.topo = topo;
        self
    }

    /// Record compute/comm-overhead/wait spans, no message edges.
    pub fn with_timeline(self) -> MachineConfig {
        self.with_trace(TraceConfig::spans_only())
    }

    /// Set the trace configuration (use [`TraceConfig::full`] for
    /// fingerprints, critical-path analysis and Chrome export).
    pub fn with_trace(mut self, trace: TraceConfig) -> MachineConfig {
        self.trace = trace;
        self
    }

    /// Disable the checked runtime.
    pub fn unchecked(mut self) -> MachineConfig {
        self.checked = false;
        self
    }

    /// Set the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> MachineConfig {
        self.faults = faults;
        self
    }
}

/// Which machine runs a program.
///
/// * [`Sim`](MachineKind::Sim) (default) — the deterministic virtual-time
///   simulator: `virtual_time` is the modelled completion time and runs
///   are bit-reproducible.
/// * [`Tasks`](MachineKind::Tasks) — the async task-per-processor
///   executor: real parallel execution that scales to thousands of
///   simulated processors per run; `virtual_time` reports wall-clock
///   microseconds. Final memory, data movement, and message counts are
///   conformant with the simulator (the fingerprint's state digest is
///   wall-clock-ordered and therefore its own, weaker check).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MachineKind {
    #[default]
    Sim,
    Tasks,
}
