//! # xdp-machine — a simulated distributed-memory multicomputer
//!
//! The paper targets 1993-era message-passing machines (and shared-address
//! machines like the KSR1). This crate supplies the executable substitute:
//!
//! * [`cost::CostModel`] — a Hockney/LogP-style parametric cost model
//!   (per-message latency α, per-byte time β, per-message CPU overhead o,
//!   per-flop time, symbol-table-query time).
//! * [`topo::Topology`] — uniform, linear-array, 2-D-mesh, or tiered
//!   (node/rack/cluster, per-tier α/β multipliers) hop scaling.
//! * [`sim::SimNet`] — a deterministic virtual-time network with XDP's
//!   rendezvous-by-name matching, including *unspecified-destination* sends
//!   and multiple outstanding sends/receives on one name (the §2.7
//!   load-balancing idiom). Completion times are computed analytically at
//!   match time, so simulations are reproducible bit-for-bit.
//! * [`thread_net::ThreadNet`] — a real shared-memory matcher with the
//!   same matching semantics: the task machine (`xdp_core::AsyncExec`)
//!   posts its receives there and takes what was paired, or parks a task
//!   until the send that pairs one of its receives returns it, for
//!   wall-clock runs and for validating that the simulator and a
//!   genuinely parallel execution agree on results.
//!
//! Both nets pair in one rendezvous pool (`pool`): a post pairs with the
//! earliest eligible post of the other side, or waits; its [`eligible`] is
//! the one rule for which pid a send may reach, and it records each match
//! — counters and the two-sided redistribution staging figure — in one
//! place. A name's posts pair earliest `(time, post order)` first, so the
//! simulated network never reorders two messages with the same name
//! between the same pair of processors (FIFO per name).
//!
//! Both backends accept an `xdp-fault` [`FaultPlan`](xdp_fault::FaultPlan)
//! (`SimNet::with_faults` / `ThreadNet::with_faults`): each message's
//! whole fate — attempts dropped and retried, duplicate, reorder, delay,
//! or loss — is then settled at its send by the plan's deterministic
//! injector, the same on both, keeping rendezvous semantics intact or
//! dead-lettering what could not be delivered.

pub mod cost;
mod faults;
mod pool;
pub mod sim;
pub mod stats;
pub mod thread_net;
pub mod topo;

pub use cost::CostModel;
pub use faults::LostMsg;
pub use pool::eligible;
pub use sim::{Completion, SimNet};
pub use stats::NetStats;
pub use thread_net::ThreadNet;
pub use topo::{Link, Tier, Topology, TopologyError};
