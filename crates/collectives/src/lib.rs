//! # xdp-collectives — the redistribution planner
//!
//! The paper writes every collective as a loop of point-to-point
//! statements, and the one collective its programs name as a statement is
//! the whole-array remap, `redistribute`. This crate plans it: the
//! [`planner`] intersects the two ownership maps into pieces and lays them
//! out as a [`CommSchedule`] — an explicit, inspectable round structure of
//! tagged point-to-point messages — rather than an opaque runtime call.
//!
//! Because the schedule is a value, one object has exactly three uses:
//!
//! 1. **Priced** — [`CommSchedule::predicted_cost`] prices it under a
//!    [`xdp_machine::CostModel`] and [`xdp_machine::Topology`] before any
//!    data moves, and its peak accountings bound the staging memory.
//! 2. **Applied in memory** — [`run_lockstep`] is the round-by-round
//!    reference the planner's tests compare against; it has no network and
//!    no clock.
//! 3. **Shared out** — [`RedistPlan::share`] is one processor's part of a
//!    plan, in execution order: receives, bound sends, awaits. The
//!    machine runs it straight through Figure 1's transfer rules, so a
//!    `redistribute` moves data on the machine that runs every other
//!    statement; [`planner::lower_redistribute_for_pid`] renders the same
//!    share as IL+XDP statements. This crate builds, prices and shares out
//!    schedules; it never sends a message.

pub mod exec;
pub mod planner;
pub mod schedule;

pub use exec::{run_lockstep, ExecError};
pub use planner::{
    compatible_segment_shape, lower_redistribute_for_pid, plan, prepare, prepare_arc,
    redistribution_pieces, try_plan, FrontierPoint, Piece, PlanCtx, PlanError, RedistPlan,
    ShareCursor, ShareOp, Strategy,
};
pub use schedule::{CommSchedule, Round, Transfer};
