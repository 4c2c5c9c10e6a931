//! # xdp-trace — structured execution tracing for XDP programs
//!
//! Both executors (the deterministic virtual-time simulator and the real
//! task machine) emit the same structured event model: spans and
//! instants tagged with the processor, the virtual-time interval, the
//! variable/section being moved, the payload size, and the IR statement id
//! that caused the event. On top of that one model this crate provides
//!
//! * exporters — Chrome trace-event / Perfetto JSON ([`Trace::to_chrome_json`])
//!   and compact JSONL ([`Trace::to_jsonl`]) — so any run opens in a real
//!   trace viewer;
//! * a textual Gantt renderer ([`Trace::gantt`]), the successor of the old
//!   `TimelineEvent` report;
//! * a **critical-path analyzer** ([`Trace::critical_path`]) that walks the
//!   happens-before graph of messages backward from the finish and
//!   attributes every unit of end-to-end virtual time to compute, wire, or
//!   wait — per statement and per variable;
//! * compiler instrumentation types ([`compile::CompileTrace`]) recording
//!   per-pass wall time, node-count deltas, and statement provenance.
//!
//! An event owns nothing: it names its variable, section and annotation by
//! ids into tables its [`Trace`] holds (the declared names, the sections
//! by value, the labels), and every reader resolves them there. The
//! movement record a fingerprint compares is data too ([`keys`]); its
//! pinned text is a view. The crate sits below `xdp-core`, beside `xdp-ir`
//! for [`xdp_ir::Section`].

pub mod compile;
pub mod critical_path;
pub mod event;
pub mod export;
pub mod keys;

pub use compile::{CompileTrace, PassTrace};
pub use critical_path::{CostRow, CriticalPathReport, PathBucket};
pub use event::{
    push_int, push_uint, LabelId, SecId, Trace, TraceConfig, TraceEvent, TraceKind, VarName,
    WaitCause,
};
pub use keys::{Key, KeySet, MoveKey, Movement, StateKey, States};
