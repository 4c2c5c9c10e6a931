//! # xdp-fault — deterministic fault injection for the XDP transports
//!
//! The paper's operational rules assume the 1993 multicomputer's guarantee
//! that every initiated send eventually pairs with its blocking receive.
//! A production-scale runtime cannot: links drop, delay, duplicate, and
//! reorder messages. This crate supplies the two halves the executors need
//! to keep XDP's semantics on an unreliable transport:
//!
//! * a **fault plan** ([`FaultPlan`]) — per-link drop / duplicate / delay /
//!   reorder probabilities plus the retry policy, parseable from the CLI's
//!   `--faults` spec;
//! * a **deterministic injector** ([`Injector`]) — every decision is a pure
//!   function of `(seed, src, seq, attempt)`, and [`Injector::fate`]
//!   settles a message's whole retry chain at its send, so a replay with
//!   the same seed makes the same decisions regardless of thread
//!   interleaving or executor backend;
//! * the **delivery record** ([`FaultStats`], [`FaultEvent`]) shared by
//!   `ThreadNet` and `SimNet`: counters, and the retry / drop /
//!   dup-suppressed events the tracer turns into `TraceKind`s. Whether a
//!   stuck run lost a message or deadlocked is decided once, by the
//!   machine, from the transport's dead letters.
//!
//! Both transports apply one [`Fate`] per message, so with `drop < 1` and
//! enough retries a faulty run delivers exactly the multiset of messages a
//! fault-free run delivers, and its counters and dead letters are the
//! same on either machine.

pub mod inject;
pub mod plan;
pub mod stats;

pub use inject::{Decision, Fate, Injector};
pub use plan::{FaultPlan, LinkFault, PlanParseError};
pub use stats::{FaultEvent, FaultEventKind, FaultStats};
