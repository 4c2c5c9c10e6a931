//! The batched concurrent executor.
//!
//! A [`ServePool`] owns the compile cache and a fixed worker count.
//! [`run_batch`](ServePool::run_batch) fans a slice of requests across a
//! scoped thread pool: workers claim requests through an atomic cursor,
//! resolve each through the shared cache, then execute on a
//! **private** machine instance — an [`xdp_core::SimExec`] or, under
//! [`PoolMachine::Tasks`], an [`xdp_core::AsyncExec`], built by
//! [`xdp_verify::machine`]. Per-run isolation is structural —
//! nothing but the immutable `Arc<Program>` is shared between runs — so
//! a request's [`Fingerprint`] is bit-identical whether it ran solo,
//! sequentially, or interleaved with the rest of a batch. The
//! conformance tests assert exactly that equality.
//!
//! The cache lock is held to look up, to reserve a miss and to insert its
//! result — never across a compile (`ServePool::resolve`). A miss
//! compiles unlocked while hits on other programs go straight past it,
//! and requests for the program being compiled wait on that one compile
//! (its *flight*; see [`crate::cache`]) rather than start their own.
//!
//! Every pool also owns a [`MetricsRegistry`]: each request stamps its
//! latency decomposition (queue → resolve → execute), the cache counters
//! are mirrored as metric counters, and run reports fold their network
//! and fault totals in (see [`crate::metrics_view`]). An optional
//! [`FlightRecorder`] keeps bounded per-worker rings of recent requests
//! and dumps them when a request errors or crosses the armed slow
//! threshold.

use crate::cache::{Begin, CachedProgram, CompileCache, ServeError};
use crate::metrics_view::ServeMetrics;
use crate::registry::{RegisteredInfo, Registry};
use crate::spec::RequestSpec;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xdp_core::{ExecReport, MachineConfig};
use xdp_metrics::{FlightConfig, FlightRecord, FlightRecorder, MetricsRegistry, MetricsSnapshot};
use xdp_trace::{Trace, TraceConfig};
use xdp_verify::Fingerprint;

/// One executed request's observable outcome.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Content hash of the request spec.
    pub key: u64,
    /// Was the artifact resident when this request looked it up? False
    /// for the request that compiled it *and* for any that arrived during
    /// that compile and waited for it.
    pub cache_hit: bool,
    /// Simulated completion time of the run.
    pub virtual_time: f64,
    /// Wire messages during the run.
    pub messages: u64,
    /// The full observable fingerprint (memory + movement + states).
    pub fingerprint: Fingerprint,
    /// End-to-end wall latency of the request, microseconds (measured
    /// from enqueue when the request came through a batch).
    pub latency_us: u64,
    /// Wall time this request spent inside the compile pipeline: 0 on a
    /// hit, and 0 for a request that waited on another's compile — its
    /// wait is in `resolve_us`, and `!cache_hit && compile_us == 0` is how
    /// such a request reads. Summed over outcomes this is the compile time
    /// the pool actually spent.
    pub compile_us: u64,
    /// Time spent queued before a worker claimed the request (0 outside
    /// `run_batch`).
    pub queue_us: u64,
    /// Time spent resolving through the cache — lock wait plus lookup,
    /// plus on a miss the compile itself or the wait for the request
    /// already compiling it.
    pub resolve_us: u64,
    /// Time spent building, initializing, running and fingerprinting the
    /// request's private machine.
    pub execute_us: u64,
}

/// Which machine executes requests: [`xdp_core::MachineKind`] under the
/// name `benchmark/` imports.
pub use xdp_core::MachineKind as PoolMachine;

/// What [`ServePool::resolve`] hands back: the artifact and this
/// request's share of [`RunOutcome`].
struct Resolved {
    cached: Arc<CachedProgram>,
    cache_hit: bool,
    compile_us: u64,
}

/// The serving pool: shared cache + registry behind one lock each, a
/// worker count for batch fan-out, and the pool's telemetry.
pub struct ServePool {
    workers: usize,
    machine: PoolMachine,
    cache: Mutex<CompileCache>,
    registry: Mutex<Registry>,
    metrics: ServeMetrics,
    flight: Option<FlightRecorder>,
}

impl ServePool {
    /// A pool with `workers` batch threads (min 1) and a compile cache
    /// bounded to `capacity` programs.
    pub fn new(workers: usize, capacity: usize) -> ServePool {
        ServePool {
            workers: workers.max(1),
            machine: PoolMachine::Sim,
            cache: Mutex::new(CompileCache::new(capacity)),
            registry: Mutex::new(Registry::new()),
            metrics: ServeMetrics::new(Arc::new(MetricsRegistry::new())),
            flight: None,
        }
    }

    /// Attach a flight recorder (builder style).
    pub fn with_flight(mut self, cfg: FlightConfig) -> ServePool {
        self.flight = Some(FlightRecorder::new(cfg));
        self
    }

    /// Select the execution machine (builder style).
    pub fn with_machine(mut self, machine: PoolMachine) -> ServePool {
        self.machine = machine;
        self
    }

    /// The pool's execution machine.
    pub fn machine(&self) -> PoolMachine {
        self.machine
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The pool's metrics registry (shared; snapshot or export at will).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.metrics.registry()
    }

    /// One consistent snapshot of every pool metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.registry().snapshot()
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// (Re)arm or disarm the flight recorder's slow-request trigger.
    /// No-op when no recorder is attached.
    pub fn set_slow_us(&self, us: Option<u64>) {
        if let Some(fr) = &self.flight {
            fr.set_slow_us(us);
        }
    }

    /// Snapshot of the cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.with_cache(|cache| cache.stats())
    }

    /// Run one closure with the cache locked, then mirror whatever cache
    /// counters it moved into the metrics registry.
    pub fn with_cache<T>(&self, f: impl FnOnce(&mut CompileCache) -> T) -> T {
        let mut cache = self
            .cache
            .lock()
            .expect("cache lock poisoned: a `with_cache` closure panicked");
        let before = cache.stats();
        let out = f(&mut cache);
        self.metrics.fold_cache_delta(before, cache.stats());
        out
    }

    /// Run one closure with the registry and cache locked together
    /// (listings, eviction).
    pub fn with_registry<T>(&self, f: impl FnOnce(&mut Registry, &mut CompileCache) -> T) -> T {
        let mut reg = self.registry.lock().unwrap();
        self.with_cache(|cache| f(&mut reg, cache))
    }

    /// Register (or replace) `name`: resolve `spec` the way a request
    /// would — so it is compiled once, unlocked, and warm for its first
    /// run — then record the name. A spec that does not compile is not
    /// registered. Returns the listing row for the new entry.
    pub fn register(&self, name: &str, spec: RequestSpec) -> Result<RegisteredInfo, ServeError> {
        self.resolve(&spec)?;
        Ok(self.with_registry(|reg, cache| reg.register(name, spec, cache)))
    }

    /// The one way the pool gets an artifact (module docs): hit, lead a
    /// flight, or join one. The cache lock is taken for `begin` and for
    /// `land` and released in between.
    fn resolve(&self, spec: &RequestSpec) -> Result<Resolved, ServeError> {
        let uncompiled = |cached, cache_hit| Resolved {
            cached,
            cache_hit,
            compile_us: 0,
        };
        let flight = match self.with_cache(|cache| cache.begin(spec)) {
            Begin::Hit(cached) => return Ok(uncompiled(cached, true)),
            Begin::Join(flight) => return flight.wait().map(|cached| uncompiled(cached, false)),
            Begin::Lead(flight) => flight,
        };
        // A reserved flight must land whatever the build does, or its
        // joiners wait forever: a panicking build lands as an error for
        // them and goes on unwinding here.
        let (built, panic) = match catch_unwind(AssertUnwindSafe(|| CachedProgram::build(spec))) {
            Ok(built) => (built, None),
            Err(panic) => (
                Err(ServeError::Run(
                    "the compile this request waited on panicked".into(),
                )),
                Some(panic),
            ),
        };
        let landed = self.with_cache(|cache| cache.land(&flight, built));
        if let Some(panic) = panic {
            resume_unwind(panic);
        }
        let cached = landed?;
        self.metrics.compile_time.observe(cached.compile_us);
        self.metrics.fold_compile(&cached.compiled.trace);
        Ok(Resolved {
            compile_us: cached.compile_us,
            cached,
            cache_hit: false,
        })
    }

    /// Serve one request: resolve through the cache, execute in
    /// isolation.
    pub fn run_one(&self, spec: &RequestSpec) -> Result<RunOutcome, ServeError> {
        self.serve(spec, None, 0, Instant::now(), 0)
    }

    /// Serve a registered program by name.
    pub fn run_named(&self, name: &str) -> Result<RunOutcome, ServeError> {
        let spec = self
            .registry
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::Unknown(name.to_string()))?;
        self.serve(&spec, Some(name), 0, Instant::now(), 0)
    }

    /// Run a whole batch concurrently over the worker pool. Results come
    /// back in request order regardless of which worker served which
    /// request or in what interleaving.
    pub fn run_batch(&self, specs: &[RequestSpec]) -> Vec<Result<RunOutcome, ServeError>> {
        let mut slots: Vec<Option<Result<RunOutcome, ServeError>>> = Vec::new();
        slots.resize_with(specs.len(), || None);
        let slots = Mutex::new(slots);
        let cursor = AtomicUsize::new(0);
        let nworkers = self.workers.min(specs.len().max(1));
        let enqueued = Instant::now();
        self.metrics.queue_depth.set(specs.len() as i64);
        std::thread::scope(|scope| {
            for w in 0..nworkers {
                let cursor = &cursor;
                let slots = &slots;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    let queue_us = enqueued.elapsed().as_micros() as u64;
                    self.metrics.queue_depth.sub(1);
                    let result = self.serve(&specs[i], None, w, enqueued, queue_us);
                    slots.lock().unwrap()[i] = Some(result);
                });
            }
        });
        self.metrics.queue_depth.set(0);
        slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|slot| slot.expect("every batch slot is filled"))
            .collect()
    }

    /// The one serving path behind `run_one`, `run_named`, and every
    /// batch worker: resolve, execute, stamp the latency decomposition,
    /// fold telemetry, feed the flight recorder.
    fn serve(
        &self,
        spec: &RequestSpec,
        name: Option<&str>,
        worker: usize,
        enqueued: Instant,
        queue_us: u64,
    ) -> Result<RunOutcome, ServeError> {
        let resolve_start = Instant::now();
        let resolved = self.resolve(spec);
        let resolve_us = resolve_start.elapsed().as_micros() as u64;
        let Resolved {
            cached,
            cache_hit,
            compile_us,
        } = match resolved {
            Ok(resolved) => resolved,
            Err(e) => {
                return Err(self.fail(e, spec, name, worker, queue_us, resolve_us, 0, enqueued))
            }
        };

        let exec_start = Instant::now();
        self.metrics.in_flight.add(1);
        // A fingerprint reads the movement record and nothing else does —
        // unless a flight recorder is attached, whose dumps are replayable
        // Chrome traces of the whole timeline.
        let trace = if self.flight.is_some() {
            TraceConfig::full()
        } else {
            TraceConfig::movement()
        };
        let executed = execute(&cached, self.machine, trace);
        self.metrics.in_flight.sub(1);
        let execute_us = exec_start.elapsed().as_micros() as u64;
        let (mut outcome, report) = match executed {
            Ok(pair) => pair,
            Err(e) => {
                return Err(self.fail(
                    e, spec, name, worker, queue_us, resolve_us, execute_us, enqueued,
                ))
            }
        };
        outcome.cache_hit = cache_hit;
        outcome.compile_us = compile_us;
        outcome.queue_us = queue_us;
        outcome.resolve_us = resolve_us;
        outcome.execute_us = execute_us;
        outcome.latency_us = enqueued.elapsed().as_micros() as u64;

        self.metrics.req_ok.inc();
        self.metrics.latency.observe(outcome.latency_us);
        self.metrics.queue.observe(queue_us);
        self.metrics.resolve.observe(resolve_us);
        self.metrics.execute.observe(execute_us);
        let backend = cached.compiled.backend;
        self.metrics
            .latency_for(backend)
            .observe(outcome.latency_us);
        self.metrics.execute_for(backend).observe(execute_us);
        self.metrics.fold_report(&report);
        self.record_flight(
            outcome.key,
            name,
            worker,
            queue_us,
            resolve_us,
            execute_us,
            outcome.latency_us,
            None,
            report.trace,
        );
        Ok(outcome)
    }

    /// Failure path: count the error, feed the recorder, hand the error
    /// back.
    #[allow(clippy::too_many_arguments)]
    fn fail(
        &self,
        e: ServeError,
        spec: &RequestSpec,
        name: Option<&str>,
        worker: usize,
        queue_us: u64,
        resolve_us: u64,
        execute_us: u64,
        enqueued: Instant,
    ) -> ServeError {
        self.metrics.req_err.inc();
        self.record_flight(
            spec.content_hash(),
            name,
            worker,
            queue_us,
            resolve_us,
            execute_us,
            enqueued.elapsed().as_micros() as u64,
            Some(e.to_string()),
            Trace::default(),
        );
        e
    }

    #[allow(clippy::too_many_arguments)]
    fn record_flight(
        &self,
        key: u64,
        name: Option<&str>,
        worker: usize,
        queue_us: u64,
        compile_us: u64,
        execute_us: u64,
        latency_us: u64,
        error: Option<String>,
        trace: Trace,
    ) {
        let Some(fr) = &self.flight else { return };
        let before = fr.dumps();
        match fr.observe(FlightRecord {
            worker,
            key,
            name: name.map(str::to_string),
            queue_us,
            compile_us,
            execute_us,
            latency_us,
            error,
            trace,
        }) {
            Ok(_) => {
                self.metrics.flight_dumps.add(fr.dumps() - before);
            }
            Err(e) => eprintln!("flight recorder: {e}"),
        }
        let suppressed = fr.suppressed();
        let seen = self.metrics.flight_suppressed.get();
        if suppressed > seen {
            self.metrics.flight_suppressed.add(suppressed - seen);
        }
    }
}

/// Execute a cached program on a fresh, private machine instance:
/// initialize, run and fingerprint by the one run protocol — identical
/// for either backend (the VM's conformance contract is what makes the
/// cache-key split the only observable difference) and either machine (on
/// the task machine `virtual_time` is wall-clock microseconds). `trace`
/// is at least the movement record the fingerprint reads. Returns the
/// outcome plus the full run report (the caller folds its network/fault
/// counters into metrics and may hand its trace to the flight recorder
/// without cloning).
fn execute(
    cached: &CachedProgram,
    machine: PoolMachine,
    trace: TraceConfig,
) -> Result<(RunOutcome, ExecReport), ServeError> {
    let compiled = &cached.compiled;
    let mut cfg = MachineConfig::new(compiled.nprocs)
        .with_trace(trace)
        .with_faults(cached.faults.clone());
    cfg.cost.mem_budget = compiled.mem_budget;
    let mut exec = xdp_verify::machine(
        machine,
        compiled.backend,
        compiled.program.clone(),
        xdp_apps::app_kernels(),
        cfg,
    );
    let (fingerprint, report) = Fingerprint::of_run(exec.as_mut(), &compiled.program.decls)
        .map_err(|e| ServeError::Run(e.to_string()))?;
    let outcome = RunOutcome {
        key: cached.key,
        cache_hit: false,
        virtual_time: report.virtual_time,
        messages: report.net.messages,
        fingerprint,
        latency_us: 0,
        compile_us: 0,
        queue_us: 0,
        resolve_us: 0,
        execute_us: 0,
    };
    Ok((outcome, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_compiler::{Backend, CompileOptions, SeqMode};

    fn spec(n: i64) -> RequestSpec {
        RequestSpec::new(format!(
            "real A[1:{n}] distribute (BLOCK) onto 2\n\
             do i = 1, {n}\n  iown(A[i]) : {{ A[i] = A[i] + 1.0 }}\nenddo\n"
        ))
    }

    #[test]
    fn run_one_hits_after_first_miss() {
        let pool = ServePool::new(2, 8);
        let a = pool.run_one(&spec(8)).unwrap();
        assert!(!a.cache_hit);
        assert!(a.compile_us > 0, "miss records real compile time");
        let b = pool.run_one(&spec(8)).unwrap();
        assert!(b.cache_hit);
        assert_eq!(b.compile_us, 0, "hit spends no compile time");
        assert_eq!(a.fingerprint, b.fingerprint, "same program, same outcome");
        assert_eq!(pool.cache_stats().compiles, 1);
    }

    #[test]
    fn batch_results_keep_request_order_and_match_solo() {
        let pool = ServePool::new(4, 8);
        let specs: Vec<RequestSpec> = vec![
            spec(8),
            spec(12),
            spec(8).with_opts(CompileOptions::default().optimized()),
            spec(8),
            spec(12),
        ];
        let solo: Vec<RunOutcome> = specs
            .iter()
            .map(|s| ServePool::new(1, 8).run_one(s).unwrap())
            .collect();
        let batch = pool.run_batch(&specs);
        assert_eq!(batch.len(), specs.len());
        for (i, (b, s)) in batch.iter().zip(&solo).enumerate() {
            let b = b.as_ref().unwrap();
            assert_eq!(b.key, specs[i].content_hash(), "slot {i} keeps its spec");
            assert_eq!(
                b.fingerprint, s.fingerprint,
                "slot {i}: batch must match solo"
            );
            assert_eq!(b.virtual_time, s.virtual_time);
        }
        // 3 distinct specs compiled once each; the 2 repeats hit, or
        // arrived mid-compile and joined it.
        let stats = pool.cache_stats();
        assert_eq!(stats.compiles, 3);
        assert_eq!(stats.hits + stats.misses, 5);
    }

    #[test]
    fn batch_reports_bad_requests_in_place() {
        let pool = ServePool::new(2, 8);
        let specs = vec![
            spec(8),
            RequestSpec::new("real A[1:4] distribute (WAT) onto 2\n"),
        ];
        let out = pool.run_batch(&specs);
        assert!(out[0].is_ok());
        assert!(matches!(
            out[1].as_ref().unwrap_err(),
            ServeError::Compile(_)
        ));
        let snap = pool.metrics_snapshot();
        assert_eq!(
            snap.counter("xdp_requests_total", &[("outcome", "ok")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("xdp_requests_total", &[("outcome", "error")]),
            Some(1)
        );
    }

    #[test]
    fn vm_backend_keys_separately_but_matches_interp_exactly() {
        let pool = ServePool::new(2, 8);
        let interp = spec(8);
        let vm = spec(8).with_opts(CompileOptions::default().with_backend(Backend::Vm));
        assert_ne!(interp.content_hash(), vm.content_hash());

        let a = pool.run_one(&interp).unwrap();
        let b = pool.run_one(&vm).unwrap();
        assert!(!b.cache_hit, "different backend, different cache entry");
        assert_eq!(a.fingerprint, b.fingerprint, "backends are conformant");
        assert_eq!(a.virtual_time, b.virtual_time);
        assert_eq!(pool.cache_stats().compiles, 2);

        let snap = pool.metrics_snapshot();
        for backend in ["interp", "vm"] {
            let h = snap
                .histogram("xdp_request_latency_us", &[("backend", backend)])
                .unwrap();
            assert_eq!(h.count, 1, "one {backend} request observed");
            let h = snap
                .histogram("xdp_request_execute_us", &[("backend", backend)])
                .unwrap();
            assert_eq!(h.count, 1);
        }
    }

    #[test]
    fn tasks_machine_is_conformant_with_the_simulator() {
        let sim = ServePool::new(2, 8);
        let tasks = ServePool::new(2, 8).with_machine(PoolMachine::Tasks);
        assert_eq!(tasks.machine(), PoolMachine::Tasks);
        for s in [
            spec(8),
            spec(8).with_opts(CompileOptions::default().with_backend(Backend::Vm)),
        ] {
            let a = sim.run_one(&s).unwrap();
            let b = tasks.run_one(&s).unwrap();
            // Memory, movement, and traffic must agree; the state digest
            // and virtual_time are timing-dependent on a real-parallel
            // machine.
            assert_eq!(a.fingerprint.memory_all(), b.fingerprint.memory_all());
            assert_eq!(a.fingerprint.movement, b.fingerprint.movement);
            assert_eq!(a.messages, b.messages);
        }
    }

    /// A request's `--mem-budget` reaches the runtime planner on the task
    /// machine too: the budgeted plan moves the same data in more, smaller
    /// messages, exactly as it does on the simulator.
    #[test]
    fn tasks_machine_plans_under_the_request_budget() {
        // `membound.xdp`'s incommensurate reblock: 5000 B admits only the
        // 4-round dynamic-slice chain.
        let source = "real B[1:64,1:64] distribute (*,BLOCK) onto 8\n\
                      redistribute B (CYCLIC(6),*) onto 8\n";
        let free = RequestSpec::new(source);
        let tight = free
            .clone()
            .with_opts(CompileOptions::default().with_mem_budget(5000));
        let sim = ServePool::new(2, 8);
        let tasks = ServePool::new(2, 8).with_machine(PoolMachine::Tasks);
        let (sim_free, sim_tight) = (sim.run_one(&free).unwrap(), sim.run_one(&tight).unwrap());
        assert!(
            sim_tight.messages > sim_free.messages,
            "the budget must force a slimmer decomposition ({} vs {})",
            sim_tight.messages,
            sim_free.messages
        );
        let tasks_tight = tasks.run_one(&tight).unwrap();
        assert_eq!(tasks_tight.messages, sim_tight.messages);
        assert_eq!(
            tasks_tight.fingerprint.movement,
            sim_tight.fingerprint.movement
        );
        assert_eq!(
            tasks_tight.fingerprint.memory_all(),
            sim_free.fingerprint.memory_all(),
            "a budget changes the schedule, never the result"
        );
    }

    /// Communication-free IL+XDP over `mylb:myub` has no XDP statement, so
    /// `SeqMode::Auto` takes it for sequential; it must fall back to
    /// running it as written instead of failing the request.
    #[test]
    fn auto_mode_serves_processor_local_source() {
        let source = "real U[1:8,1:8] distribute (BLOCK,*) onto 4\n\
            real V[1:8,1:8] distribute (BLOCK,*) onto 4\n\
            do t = 1, 3 {\n\
              V[mylb(U[*,*], 1):myub(U[*,*], 1),2:7] = \
                (U[mylb(U[*,*], 1):myub(U[*,*], 1),1:6] + U[mylb(U[*,*], 1):myub(U[*,*], 1),3:8])\n\
              U[mylb(U[*,*], 1):myub(U[*,*], 1),2:7] = V[mylb(U[*,*], 1):myub(U[*,*], 1),2:7]\n\
            }\n";
        let pool = ServePool::new(2, 8);
        let as_is = pool.run_one(&RequestSpec::new(source)).unwrap();
        let auto = pool
            .run_one(
                &RequestSpec::new(source)
                    .with_opts(CompileOptions::default().with_seq(SeqMode::Auto)),
            )
            .unwrap();
        assert_eq!(auto.fingerprint, as_is.fingerprint);
        assert_eq!(auto.messages, 0, "owner-local: nothing moves");
    }

    /// The movement record has nothing per executed statement in it: a
    /// request that moves no data hands back an empty trace.
    #[test]
    fn a_communication_free_request_records_no_event() {
        let local = CachedProgram::build(&spec(8)).unwrap();
        let (outcome, report) = execute(&local, PoolMachine::Sim, TraceConfig::movement()).unwrap();
        assert_eq!(outcome.messages, 0);
        assert!(report.trace.events.is_empty(), "{:?}", report.trace.events);
    }

    #[test]
    fn named_runs_resolve_through_registry() {
        let pool = ServePool::new(2, 8);
        let row = pool.register("adder", spec(8)).unwrap();
        assert!(row.cached && row.stmts > 0, "{row:?}");
        let out = pool.run_named("adder").unwrap();
        assert!(out.cache_hit, "registration pre-warms the cache");
        assert_eq!(pool.cache_stats().compiles, 1);
        let snap = pool.metrics_snapshot();
        let compile = snap.histogram("xdp_compile_us", &[]).unwrap();
        assert_eq!(compile.count, 1, "a registration's compile is observed");

        let bad = RequestSpec::new("real A[1:4] distribute (WAT) onto 2\n");
        let e = pool.register("bad", bad).unwrap_err();
        assert!(matches!(e, ServeError::Compile(_)), "{e}");
        assert_eq!(pool.with_registry(|reg, _| reg.len()), 1, "not registered");
        assert!(matches!(
            pool.run_named("nope"),
            Err(ServeError::Unknown(_))
        ));
    }

    #[test]
    fn metrics_mirror_the_serving_path() {
        let pool = ServePool::new(2, 2);
        pool.run_one(&spec(8)).unwrap();
        pool.run_one(&spec(8)).unwrap();
        pool.run_one(&spec(12)).unwrap();
        pool.run_one(&spec(16)).unwrap(); // capacity 2: evicts the LRU
        let snap = pool.metrics_snapshot();
        let stats = pool.cache_stats();
        assert_eq!(
            snap.counter("xdp_cache_hits_total", &[]),
            Some(stats.hits),
            "metric counters mirror cache stats"
        );
        assert_eq!(
            snap.counter("xdp_cache_misses_total", &[]),
            Some(stats.misses)
        );
        assert_eq!(
            snap.counter("xdp_cache_evictions_total", &[]),
            Some(stats.evictions)
        );
        assert!(stats.evictions > 0, "capacity 2 with 3 distinct must evict");
        assert_eq!(
            snap.counter("xdp_cache_compiles_total", &[]),
            Some(stats.compiles)
        );
        let lat = snap.histogram("xdp_request_latency_us", &[]).unwrap();
        assert_eq!(lat.count, 4, "one latency observation per ok request");
        let compile = snap.histogram("xdp_compile_us", &[]).unwrap();
        assert_eq!(compile.count, 3, "one compile-time observation per miss");
        // The corpus program is owner-local, so the net view exists but
        // may legitimately read zero.
        assert!(snap.counter("xdp_net_messages_total", &[]).is_some());
        assert_eq!(snap.gauge("xdp_inflight_runs", &[]), Some(0));
        assert_eq!(snap.gauge("xdp_queue_depth", &[]), Some(0));
    }

    #[test]
    fn latency_decomposition_sums_to_wall() {
        let pool = ServePool::new(2, 8);
        let specs: Vec<RequestSpec> = (0..12).map(|k| spec(8 + (k % 3))).collect();
        let out = pool.run_batch(&specs);
        let mut wall = 0u64;
        let mut parts = 0u64;
        for r in out {
            let r = r.unwrap();
            wall += r.latency_us;
            parts += r.queue_us + r.resolve_us + r.execute_us;
            assert!(r.latency_us >= r.execute_us, "wall covers execution");
        }
        assert!(wall > 0);
        let gap = wall.abs_diff(parts);
        assert!(
            gap * 20 <= wall,
            "queue+resolve+execute ({parts}) within 5% of wall ({wall})"
        );
    }

    #[test]
    fn flight_recorder_dumps_on_error() {
        let dir = std::env::temp_dir().join(format!("xdp-pool-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = ServePool::new(2, 8).with_flight(FlightConfig::new(&dir));
        pool.run_one(&spec(8)).unwrap();
        assert_eq!(pool.flight().unwrap().dumps(), 0, "ok request: no dump");
        let err = pool.run_one(&RequestSpec::new("real A[1:4] distribute (WAT) onto 2\n"));
        assert!(err.is_err());
        assert_eq!(pool.flight().unwrap().dumps(), 1, "error dumps the ring");
        assert_eq!(
            pool.metrics_snapshot()
                .counter("xdp_flight_dumps_total", &[]),
            Some(1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
