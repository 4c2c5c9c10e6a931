//! # xdp-serve — the compile-once/run-many serving layer
//!
//! Everything upstream of this crate treats compilation as a per-run
//! event: `xdpc run` parses, lowers, optimizes, and places a program,
//! executes it once, and exits. Production traffic is shaped the other
//! way around — *few distinct programs, very many runs* — so this crate
//! adds the serving layer the paper's methodology implies but never
//! needed to build:
//!
//! * [`spec`] — a [`RequestSpec`] names one unit of work (source text +
//!   [`xdp_compiler::CompileOptions`] + fault spec) and hashes it with a
//!   process-stable 64-bit content hash;
//! * [`cache`] — a bounded-LRU [`CompileCache`] over the full
//!   parse→lower→opt→place pipeline, storing the compiled artifact and
//!   its `run_traced` pass provenance, with hit/miss/evict/compile
//!   counters that make "a hit skipped recompilation" checkable;
//! * [`pool`] — a [`ServePool`] that fans request batches across a
//!   bounded worker pool; every run executes on a private simulator
//!   instance, so batched outcomes are bit-identical to solo runs
//!   ([`xdp_verify::Fingerprint`] equality, asserted by the conformance
//!   tests);
//! * [`replay`] — the seeded load-replay driver behind `xdpd bench`
//!   (experiment E13), `xdpd stats` and E14 (latency percentiles,
//!   throughput, hit rate, warm-recompile check, the serving contract);
//! * [`metrics_view`] — the pool's telemetry: pre-registered
//!   [`xdp_metrics`] handles for the request path (latency decomposition,
//!   cache counters, queue depth) plus folds of every run's network and
//!   fault totals and every compile's per-pass provenance. An optional
//!   flight recorder dumps recent-request rings on errors or slow runs;
//! * [`claims`] — experiment E14, the telemetry checked against oracles.
//!
//! ```
//! use xdp_serve::{RequestSpec, ServePool};
//!
//! let pool = ServePool::new(2, 8);
//! let spec = RequestSpec::new(
//!     "real A[1:8] distribute (BLOCK) onto 2\n\
//!      do i = 1, 8\n  iown(A[i]) : { A[i] = A[i] + 1.0 }\nenddo\n",
//! );
//! let cold = pool.run_one(&spec).unwrap();
//! let warm = pool.run_one(&spec).unwrap();
//! assert!(!cold.cache_hit && warm.cache_hit);
//! assert_eq!(cold.fingerprint, warm.fingerprint);
//! assert_eq!(pool.cache_stats().compiles, 1); // the hit did not recompile
//! ```

pub mod cache;
pub mod claims;
pub mod metrics_view;
pub mod pool;
pub mod replay;
pub mod spec;

pub use cache::{Begin, CacheStats, CachedProgram, CompileCache, Flight, ServeError};
pub use metrics_view::ServeMetrics;
pub use pool::{PoolMachine, RunOutcome, ServePool};
pub use replay::{load_corpus, replay, request_mix, CorpusItem, ReplayConfig, ReplayReport};
pub use spec::{ContentHasher, RequestSpec};
