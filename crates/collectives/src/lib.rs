//! # xdp-collectives — explicit collective communication for XDP
//!
//! The paper's thesis is that data placement and movement deserve explicit
//! compile-time representation. This crate extends that stance from
//! point-to-point transfers to *collectives*: a broadcast, reduction,
//! all-gather, all-to-all, or array redistribution is represented as a
//! [`CommSchedule`] — an explicit, inspectable round structure of tagged
//! point-to-point messages — rather than an opaque runtime call.
//!
//! Because the schedule is a value, one object has exactly three uses:
//!
//! 1. **Priced** — [`CommSchedule::predicted_cost`] prices it under a
//!    [`xdp_machine::CostModel`] and [`xdp_machine::Topology`] before any
//!    data moves.
//! 2. **Applied in memory** — [`run_lockstep`] is the round-by-round
//!    reference the planner's and the algorithms' tests compare against;
//!    it has no network and no clock.
//! 3. **Lowered** — [`planner::lower_redistribute_for_pid`] turns a
//!    redistribution plan into ordinary IL+XDP send/receive statements, so
//!    a `redistribute` moves data through Figure 1's transfer rules on the
//!    machine that runs every other statement. This crate builds, prices
//!    and lowers schedules; it never sends a message.
//!
//! [`algorithms`] supplies the classical schedules (binomial trees,
//! recursive doubling, ring, pairwise exchange, Bruck); [`planner`] chooses
//! between direct and staged routing for arbitrary
//! distribution-to-distribution remaps using the section algebra and the
//! cost model.

pub mod algorithms;
pub mod exec;
pub mod planner;
pub mod schedule;

pub use algorithms::{
    allgather_recursive_doubling, allgather_ring, allreduce, alltoall_bruck, alltoall_pairwise,
    broadcast_binomial, reduce_binomial,
};
pub use exec::{run_lockstep, ExecError};
pub use planner::{
    compatible_segment_shape, lower_redistribute_for_pid, plan, prepare, prepare_arc,
    redistribution_pieces, try_plan, FrontierPoint, Piece, PlanCtx, PlanError, RedistPlan,
    Strategy,
};
pub use schedule::{CommSchedule, Round, Transfer};
