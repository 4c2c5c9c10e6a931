//! # xdp-bench — the experiment harness
//!
//! One binary per figure/experiment in DESIGN.md's index (`cargo run -p
//! xdp-bench --bin <id>`). The binaries assert behaviour and record
//! nothing; host speed is measured by `benchmark/` alone.
//! Binaries print human-readable tables; when `XDP_JSON` is set (see
//! [`table::json_enabled`] for the exact rule) they also emit one JSON
//! object per row on stdout for machine consumption, each stamped with
//! `xdp_json_version`.

pub mod conformance;
pub mod table;

pub use table::{json_enabled, Table, JSON_SCHEMA_VERSION};
