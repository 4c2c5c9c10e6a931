//! Pre-registered metric handles for the serving hot path, plus folds
//! from the structures the rest of the workspace already produces.
//!
//! The dependency direction is deliberate: `xdp-machine`, `xdp-fault`,
//! and `xdp-compiler` know nothing about metrics. Every run already
//! returns its [`NetStats`], [`FaultStats`] and (at compile time) a
//! [`CompileTrace`] inside artifacts the pool holds anyway, so this
//! module *folds* those into the registry after the fact — the executors
//! stay observation-free and the serving layer is the single place
//! telemetry is defined.
//!
//! [`ServeMetrics`] is built once per [`crate::ServePool`]; acquiring a
//! handle locks the registry, but every update afterwards is a relaxed
//! atomic, so the batch workers never serialize on telemetry.

use std::sync::Arc;
use xdp_compiler::Backend;
use xdp_core::ExecReport;
use xdp_metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use xdp_trace::CompileTrace;

/// Every fixed-label metric the pool updates per request, resolved once
/// at pool construction.
pub struct ServeMetrics {
    registry: Arc<MetricsRegistry>,

    // Request flow.
    pub req_ok: Arc<Counter>,
    pub req_err: Arc<Counter>,
    /// Runs that panicked (each also counted as an error).
    pub req_panics: Arc<Counter>,
    /// Runs stopped at the statement budget (each also counted as an
    /// error).
    pub req_over_budget: Arc<Counter>,
    pub queue_depth: Arc<Gauge>,
    pub in_flight: Arc<Gauge>,

    // Latency and its decomposition (all microseconds).
    pub latency: Arc<Histogram>,
    pub queue: Arc<Histogram>,
    pub resolve: Arc<Histogram>,
    pub execute: Arc<Histogram>,

    // Per-backend splits of latency and execution time, so `xdpd stats`
    // can compare the interpreter and the VM side by side. Indexed by
    // [`backend_index`].
    latency_by_backend: [Arc<Histogram>; 2],
    execute_by_backend: [Arc<Histogram>; 2],

    // Compile cache.
    pub cache_hits: Arc<Counter>,
    pub cache_misses: Arc<Counter>,
    pub cache_evictions: Arc<Counter>,
    pub cache_compiles: Arc<Counter>,
    pub compile_time: Arc<Histogram>,

    // Network view (folded from `ExecReport::net`).
    pub net_messages: Arc<Counter>,
    pub net_payload_bytes: Arc<Counter>,
    pub net_wire_bytes: Arc<Counter>,
    pub net_bound: Arc<Counter>,
    pub net_unbound: Arc<Counter>,
    /// Per-run redistribution staging high-water mark (bytes): one
    /// figure on both machines, both endpoints charged from send to match.
    /// Observed only for runs that actually redistributed something, so
    /// the histogram's count is the number of redistribute-carrying runs.
    pub redist_peak_bytes: Arc<Histogram>,

    // Fault view (folded from `ExecReport::faults`).
    pub fault_drops: Arc<Counter>,
    pub fault_dups: Arc<Counter>,
    pub fault_delays: Arc<Counter>,
    pub fault_reorders: Arc<Counter>,
    pub fault_retries: Arc<Counter>,
    pub fault_dup_suppressed: Arc<Counter>,
    pub fault_lost: Arc<Counter>,

    // Flight recorder activity.
    pub flight_dumps: Arc<Counter>,
    pub flight_suppressed: Arc<Counter>,
}

impl ServeMetrics {
    /// Register (or re-acquire) every fixed-label handle on `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> ServeMetrics {
        let r = &registry;
        let injected = |kind| r.counter("xdp_fault_injected_total", &[("kind", kind)]);
        ServeMetrics {
            req_ok: r.counter("xdp_requests_total", &[("outcome", "ok")]),
            req_err: r.counter("xdp_requests_total", &[("outcome", "error")]),
            req_panics: r.counter("xdp_request_panics_total", &[]),
            req_over_budget: r.counter("xdp_request_over_budget_total", &[]),
            queue_depth: r.gauge("xdp_queue_depth", &[]),
            in_flight: r.gauge("xdp_inflight_runs", &[]),

            latency: r.histogram("xdp_request_latency_us", &[]),
            queue: r.histogram("xdp_request_queue_us", &[]),
            resolve: r.histogram("xdp_request_resolve_us", &[]),
            execute: r.histogram("xdp_request_execute_us", &[]),

            latency_by_backend: [Backend::Interp, Backend::Vm]
                .map(|b| r.histogram("xdp_request_latency_us", &[("backend", b.as_str())])),
            execute_by_backend: [Backend::Interp, Backend::Vm]
                .map(|b| r.histogram("xdp_request_execute_us", &[("backend", b.as_str())])),

            cache_hits: r.counter("xdp_cache_hits_total", &[]),
            cache_misses: r.counter("xdp_cache_misses_total", &[]),
            cache_evictions: r.counter("xdp_cache_evictions_total", &[]),
            cache_compiles: r.counter("xdp_cache_compiles_total", &[]),
            compile_time: r.histogram("xdp_compile_us", &[]),

            net_messages: r.counter("xdp_net_messages_total", &[]),
            net_payload_bytes: r.counter("xdp_net_payload_bytes_total", &[]),
            net_wire_bytes: r.counter("xdp_net_wire_bytes_total", &[]),
            net_bound: r.counter("xdp_net_messages_bound_total", &[]),
            net_unbound: r.counter("xdp_net_messages_unbound_total", &[]),
            redist_peak_bytes: r.histogram("xdp_redist_peak_bytes", &[]),

            fault_drops: injected("drop"),
            fault_dups: injected("dup"),
            fault_delays: injected("delay"),
            fault_reorders: injected("reorder"),
            fault_retries: r.counter("xdp_fault_retries_total", &[]),
            fault_dup_suppressed: r.counter("xdp_fault_dup_suppressed_total", &[]),
            fault_lost: r.counter("xdp_fault_lost_total", &[]),

            flight_dumps: r.counter("xdp_flight_dumps_total", &[]),
            flight_suppressed: r.counter("xdp_flight_suppressed_total", &[]),
            registry,
        }
    }

    /// The registry the handles live in.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The backend-labeled latency histogram for `backend`.
    pub fn latency_for(&self, backend: Backend) -> &Arc<Histogram> {
        &self.latency_by_backend[backend_index(backend)]
    }

    /// The backend-labeled execution-time histogram for `backend`.
    pub fn execute_for(&self, backend: Backend) -> &Arc<Histogram> {
        &self.execute_by_backend[backend_index(backend)]
    }

    /// Fold one finished run's network and fault counters into the
    /// registry. Called once per successful request, after latency is
    /// stamped — never on the execution path itself.
    pub fn fold_report(&self, report: &ExecReport) {
        let net = &report.net;
        self.net_messages.add(net.messages);
        self.net_payload_bytes.add(net.payload_bytes);
        self.net_wire_bytes.add(net.wire_bytes);
        self.net_bound.add(net.bound_messages);
        self.net_unbound.add(net.unbound_messages);
        if net.redist_peak_bytes > 0 {
            self.redist_peak_bytes.observe(net.redist_peak_bytes);
        }

        let f = &report.faults;
        self.fault_drops.add(f.injected_drops);
        self.fault_dups.add(f.injected_dups);
        self.fault_delays.add(f.injected_delays);
        self.fault_reorders.add(f.injected_reorders);
        self.fault_retries.add(f.retries);
        self.fault_dup_suppressed.add(f.dup_suppressed);
        self.fault_lost.add(f.lost);
    }

    /// Fold one compile's per-pass provenance: wall time and statement
    /// churn per pass name. Pass labels are dynamic, so this goes through
    /// the registry (once per compile, by the request that led it, with
    /// no cache lock held).
    pub fn fold_compile(&self, trace: &CompileTrace) {
        for p in &trace.passes {
            let labels = [("pass", p.name.as_str())];
            self.registry.counter("xdp_pass_runs_total", &labels).inc();
            if p.changed {
                self.registry
                    .counter("xdp_pass_changed_total", &labels)
                    .inc();
            }
            self.registry
                .counter("xdp_pass_stmts_removed_total", &labels)
                .add(p.removed.len() as u64);
            self.registry
                .counter("xdp_pass_stmts_added_total", &labels)
                .add(p.added.len() as u64);
            self.registry
                .histogram("xdp_pass_wall_us", &labels)
                .observe((p.wall_ms * 1000.0).round() as u64);
        }
    }

    /// Fold a cache-counter delta (computed by `ServePool::with_cache`
    /// around each closure it runs under the cache lock).
    pub fn fold_cache_delta(
        &self,
        before: crate::cache::CacheStats,
        after: crate::cache::CacheStats,
    ) {
        self.cache_hits.add(after.hits - before.hits);
        self.cache_misses.add(after.misses - before.misses);
        self.cache_evictions.add(after.evictions - before.evictions);
        self.cache_compiles.add(after.compiles - before.compiles);
    }
}

fn backend_index(backend: Backend) -> usize {
    match backend {
        Backend::Interp => 0,
        Backend::Vm => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_fault::FaultStats;
    use xdp_machine::NetStats;
    use xdp_trace::{PassTrace, Trace};

    fn report(messages: u64, retries: u64) -> ExecReport {
        ExecReport {
            nprocs: 2,
            virtual_time: 1.0,
            procs: Vec::new(),
            net: NetStats {
                messages,
                payload_bytes: 8 * messages,
                wire_bytes: 10 * messages,
                bound_messages: messages,
                ..NetStats::new(2)
            },
            trace: Trace::default(),
            faults: FaultStats {
                retries,
                ..FaultStats::default()
            },
        }
    }

    #[test]
    fn report_folds_accumulate() {
        let sm = ServeMetrics::new(Arc::new(MetricsRegistry::new()));
        sm.fold_report(&report(3, 1));
        sm.fold_report(&report(5, 0));
        let snap = sm.registry().snapshot();
        assert_eq!(snap.counter("xdp_net_messages_total", &[]), Some(8));
        assert_eq!(snap.counter("xdp_net_wire_bytes_total", &[]), Some(80));
        assert_eq!(snap.counter("xdp_fault_retries_total", &[]), Some(1));
        assert_eq!(
            snap.counter("xdp_fault_injected_total", &[("kind", "drop")]),
            Some(0)
        );
    }

    #[test]
    fn compile_folds_are_per_pass() {
        let sm = ServeMetrics::new(Arc::new(MetricsRegistry::new()));
        let mut trace = CompileTrace::default();
        trace.passes.push(PassTrace {
            name: "bind-sends".into(),
            wall_ms: 0.25,
            changed: true,
            removed: vec![(1, "send".into())],
            ..PassTrace::default()
        });
        sm.fold_compile(&trace);
        sm.fold_compile(&trace);
        let snap = sm.registry().snapshot();
        let labels = [("pass", "bind-sends")];
        assert_eq!(snap.counter("xdp_pass_runs_total", &labels), Some(2));
        assert_eq!(snap.counter("xdp_pass_changed_total", &labels), Some(2));
        assert_eq!(
            snap.counter("xdp_pass_stmts_removed_total", &labels),
            Some(2)
        );
        let h = snap.histogram("xdp_pass_wall_us", &labels).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 500);
    }
}
