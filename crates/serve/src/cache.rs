//! The content-hashed compile cache.
//!
//! `xdpd` exists because production traffic runs *few distinct programs
//! very many times*: the parse→lower→opt→place pipeline is paid once per
//! distinct [`RequestSpec`] and amortized over every subsequent run. The
//! cache is a bounded LRU keyed by [`RequestSpec::content_hash`]; each
//! entry stores the full spec (collision safety), the [`Compiled`]
//! artifact, its parsed [`FaultPlan`], and the `run_traced` provenance of
//! every pass that ran — so "this hit skipped recompilation" is not an
//! inference but a checkable fact: the stored [`CompileTrace`] is the one
//! recorded at miss time, and [`CacheStats::compiles`] does not move on a
//! hit.
//!
//! The cache never compiles while anyone waits on it. A miss goes through
//! three steps, and only the first and last touch the cache:
//!
//! 1. [`begin`](CompileCache::begin) — look up; on a miss either reserve
//!    the spec as a new [`Flight`] (the caller *leads*) or find the flight
//!    already reserved for it (the caller *joins*);
//! 2. [`CachedProgram::build`] — the leader parses the fault spec and
//!    runs the compile pipeline, holding nothing; joiners block in
//!    [`Flight::wait`], on the flight and not on the cache;
//! 3. [`land`](CompileCache::land) — the leader inserts the artifact
//!    (evicting the LRU entry if full), retires the flight and wakes its
//!    joiners with the shared result.
//!
//! So a distinct spec is compiled once however many requests race for it
//! ([`CacheStats::compiles`] counts landed successes), a failed build
//! caches nothing and hands every joiner the leader's error, and hits on
//! other entries are never behind a compile.

use crate::spec::RequestSpec;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use xdp_compiler::{compile, CompileError, Compiled};
use xdp_core::MachineConfig;
use xdp_fault::FaultPlan;
use xdp_trace::TraceConfig;

/// Why a serve-layer operation failed.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The compile pipeline rejected the program.
    Compile(CompileError),
    /// The request's fault spec did not parse.
    BadFaults(String),
    /// A run failed at execution time.
    Run(String),
    /// A run took its machine's statement budget without finishing
    /// (`xdp_core::RtError::StepBudget`).
    OverBudget(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Compile(e) => write!(f, "compile: {e}"),
            ServeError::BadFaults(e) => write!(f, "bad fault spec: {e}"),
            ServeError::Run(e) => write!(f, "run: {e}"),
            ServeError::OverBudget(e) => write!(f, "over budget: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Cache observability counters. `hits + misses` equals lookups;
/// `compiles` counts artifacts built and inserted — it moves only on a
/// miss (a hit provably skips the pipeline), once per flight however many
/// requests joined it, and not at all when the build fails; `evictions`
/// counts LRU displacements, not explicit removals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub compiles: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups so far (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached compile: the artifact plus everything needed to run it and
/// to explain where it came from.
#[derive(Debug)]
pub struct CachedProgram {
    /// Content hash the entry is keyed by.
    pub key: u64,
    /// The full spec (compared on lookup; a 64-bit collision is a miss,
    /// never a wrong answer).
    pub spec: RequestSpec,
    /// The compiled program, machine size, and pass provenance.
    pub compiled: Compiled,
    /// The fault plan parsed once at compile time.
    pub faults: FaultPlan,
    /// Wall time the compile pipeline took, microseconds. Recorded at
    /// miss time; a hit reuses the artifact and spends none.
    pub compile_us: u64,
}

impl CachedProgram {
    /// Everything a miss pays for, and the only place the serve layer
    /// compiles anything. Touches no cache, so it runs unlocked.
    pub fn build(spec: &RequestSpec) -> Result<CachedProgram, ServeError> {
        let started = std::time::Instant::now();
        let faults = spec.fault_plan().map_err(ServeError::BadFaults)?;
        let compiled = compile(&spec.source, &spec.opts).map_err(ServeError::Compile)?;
        Ok(CachedProgram {
            key: spec.content_hash(),
            spec: spec.clone(),
            compiled,
            faults,
            // `as_micros` floors; a sub-microsecond build still counts as
            // time spent (`compile_us == 0` means "did not compile").
            compile_us: (started.elapsed().as_micros() as u64).max(1),
        })
    }

    /// The machine this program was compiled for — its processors, fault
    /// plan and memory budget — recording `trace`.
    pub(crate) fn machine_config(&self, trace: TraceConfig) -> MachineConfig {
        let mut cfg = MachineConfig::new(self.compiled.nprocs)
            .with_trace(trace)
            .with_faults(self.faults.clone());
        cfg.cost.mem_budget = self.compiled.mem_budget;
        cfg
    }
}

/// One build in progress. The leader holds it between
/// [`CompileCache::begin`] and [`CompileCache::land`]; requests for the
/// same spec that arrive in between wait on it.
pub struct Flight {
    spec: RequestSpec,
    landed: Mutex<Option<Result<Arc<CachedProgram>, ServeError>>>,
    wake: Condvar,
}

/// Nothing that can panic runs under a flight's lock.
const FLIGHT_LOCK: &str = "a flight's slot is only assigned or cloned under its lock";

impl Flight {
    /// Block until the leader lands, then share its result — the artifact,
    /// or the error that made the build fail.
    pub fn wait(&self) -> Result<Arc<CachedProgram>, ServeError> {
        let mut landed = self.landed.lock().expect(FLIGHT_LOCK);
        loop {
            match &*landed {
                Some(result) => return result.clone(),
                None => landed = self.wake.wait(landed).expect(FLIGHT_LOCK),
            }
        }
    }
}

/// What [`CompileCache::begin`] found.
pub enum Begin {
    /// Resident: run it.
    Hit(Arc<CachedProgram>),
    /// Not resident and nobody is building it: the caller must
    /// [`build`](CachedProgram::build) and [`land`](CompileCache::land).
    Lead(Arc<Flight>),
    /// Someone is building it: [`wait`](Flight::wait).
    Join(Arc<Flight>),
}

struct Entry {
    last_used: u64,
    cached: Arc<CachedProgram>,
}

/// A bounded LRU compile cache. Not internally synchronized — the serve
/// pool wraps it in a `Mutex`, which is held for a lookup, a reservation
/// or an insertion and never across a build or a run.
pub struct CompileCache {
    capacity: usize,
    tick: u64,
    map: HashMap<u64, Entry>,
    /// Builds begun and not yet landed; at most one per worker thread, so
    /// a scan (full-spec comparison, hence collision-safe) is enough.
    flights: Vec<Arc<Flight>>,
    stats: CacheStats,
}

impl CompileCache {
    /// A cache holding at most `capacity` compiled programs (min 1).
    pub fn new(capacity: usize) -> CompileCache {
        CompileCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
            flights: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up and touch an entry; counts a hit or a miss.
    pub fn lookup(&mut self, spec: &RequestSpec) -> Option<Arc<CachedProgram>> {
        self.tick += 1;
        let key = spec.content_hash();
        match self.map.get_mut(&key) {
            Some(e) if e.cached.spec == *spec => {
                e.last_used = self.tick;
                self.stats.hits += 1;
                Some(e.cached.clone())
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Step 1 of a concurrent miss (see the module docs): look up, and on
    /// a miss join the flight already building `spec` or reserve a new
    /// one. Counts the hit or the miss; a joiner is a miss.
    pub fn begin(&mut self, spec: &RequestSpec) -> Begin {
        if let Some(hit) = self.lookup(spec) {
            return Begin::Hit(hit);
        }
        if let Some(flight) = self.flights.iter().find(|f| f.spec == *spec) {
            return Begin::Join(flight.clone());
        }
        let flight = Arc::new(Flight {
            spec: spec.clone(),
            landed: Mutex::new(None),
            wake: Condvar::new(),
        });
        self.flights.push(flight.clone());
        Begin::Lead(flight)
    }

    /// Step 3: retire `flight` with the leader's build — insert it on
    /// success, cache nothing on failure — and wake every joiner with the
    /// same result the leader gets back.
    pub fn land(
        &mut self,
        flight: &Arc<Flight>,
        built: Result<CachedProgram, ServeError>,
    ) -> Result<Arc<CachedProgram>, ServeError> {
        self.flights.retain(|f| !Arc::ptr_eq(f, flight));
        let result = built.map(|b| self.insert(b));
        *flight.landed.lock().expect(FLIGHT_LOCK) = Some(result.clone());
        flight.wake.notify_all();
        result
    }

    /// The cache's one write path: insert a built artifact, evicting the
    /// least-recently-used entry if the cache is full.
    fn insert(&mut self, built: CachedProgram) -> Arc<CachedProgram> {
        self.stats.compiles += 1;
        let key = built.key;
        let cached = Arc::new(built);
        // A hash collision with a *different* spec overwrites the old
        // entry: correctness is preserved (lookup compares specs), and
        // with 64-bit keys this path is effectively unreachable.
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            self.evict_lru();
        }
        self.tick += 1;
        self.map.insert(
            key,
            Entry {
                last_used: self.tick,
                cached: cached.clone(),
            },
        );
        cached
    }

    /// Serve `spec` from cache, building at most once. The `bool` is
    /// true on a cache hit (compilation skipped). This is the form for a
    /// caller that owns the cache outright: it builds inline, under
    /// whatever exclusion `&mut self` stands for, and neither reserves nor
    /// joins a flight. Anything shared between threads goes through
    /// [`begin`](Self::begin) / [`land`](Self::land) instead.
    pub fn get_or_compile(
        &mut self,
        spec: &RequestSpec,
    ) -> Result<(Arc<CachedProgram>, bool), ServeError> {
        if let Some(hit) = self.lookup(spec) {
            return Ok((hit, true));
        }
        Ok((self.insert(CachedProgram::build(spec)?), false))
    }

    /// Drop the least-recently-used entry.
    fn evict_lru(&mut self) {
        if let Some(&key) = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k)
        {
            self.map.remove(&key);
            self.stats.evictions += 1;
        }
    }

    /// Is the given key resident?
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_compiler::CompileOptions;

    fn spec(n: i64) -> RequestSpec {
        RequestSpec::new(format!(
            "real A[1:{n}] distribute (BLOCK) onto 2\n\
             do i = 1, {n}\n  iown(A[i]) : {{ A[i] = A[i] + 1.0 }}\nenddo\n"
        ))
    }

    #[test]
    fn hit_skips_recompilation() {
        let mut c = CompileCache::new(4);
        let (a, hit) = c.get_or_compile(&spec(8)).unwrap();
        assert!(!hit);
        assert_eq!(c.stats().compiles, 1);
        let (b, hit) = c.get_or_compile(&spec(8)).unwrap();
        assert!(hit);
        assert_eq!(c.stats().compiles, 1, "hit must not recompile");
        assert!(Arc::ptr_eq(&a, &b), "hit serves the same artifact");
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                compiles: 1
            }
        );
    }

    #[test]
    fn lru_capacity_is_respected() {
        let mut c = CompileCache::new(2);
        c.get_or_compile(&spec(4)).unwrap();
        c.get_or_compile(&spec(8)).unwrap();
        // Touch 4 so 8 becomes the LRU victim.
        c.get_or_compile(&spec(4)).unwrap();
        c.get_or_compile(&spec(12)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.contains(spec(4).content_hash()), "recently used survives");
        assert!(!c.contains(spec(8).content_hash()), "LRU entry evicted");
    }

    #[test]
    fn bad_programs_and_fault_specs_are_reported() {
        let mut c = CompileCache::new(2);
        let e = c
            .get_or_compile(&RequestSpec::new("real A[1:4] distribute (WAT) onto 2\n"))
            .unwrap_err();
        assert!(matches!(e, ServeError::Compile(_)), "{e}");
        let e = c
            .get_or_compile(&spec(4).with_faults("drop=banana"))
            .unwrap_err();
        assert!(matches!(e, ServeError::BadFaults(_)), "{e}");
        assert_eq!(c.stats().compiles, 0);
    }

    #[test]
    fn a_flight_is_led_once_joined_by_the_rest_and_retired_on_landing() {
        let mut c = CompileCache::new(4);
        let Begin::Lead(flight) = c.begin(&spec(8)) else {
            panic!("an empty cache leads");
        };
        let Begin::Join(joined) = c.begin(&spec(8)) else {
            panic!("a reserved spec is joined, not compiled again");
        };
        assert!(Arc::ptr_eq(&flight, &joined));
        assert!(
            matches!(c.begin(&spec(12)), Begin::Lead(_)),
            "other specs lead"
        );
        assert_eq!(c.stats().misses, 3, "a joiner is a miss");

        // A failed build lands as the same error for leader and joiner,
        // caches nothing, and frees the spec for the next request.
        let failed = c.land(&flight, Err(ServeError::BadFaults("x".into())));
        assert!(matches!(failed, Err(ServeError::BadFaults(_))));
        assert!(matches!(joined.wait(), Err(ServeError::BadFaults(_))));
        assert_eq!((c.len(), c.stats().compiles), (0, 0));

        let Begin::Lead(flight) = c.begin(&spec(8)) else {
            panic!("a landed flight is retired");
        };
        let landed = c.land(&flight, CachedProgram::build(&spec(8))).unwrap();
        assert!(Arc::ptr_eq(&landed, &flight.wait().unwrap()));
        assert_eq!(c.stats().compiles, 1);
        assert!(matches!(c.begin(&spec(8)), Begin::Hit(hit) if Arc::ptr_eq(&hit, &landed)));
    }

    #[test]
    fn option_variants_occupy_distinct_entries() {
        let mut c = CompileCache::new(8);
        c.get_or_compile(&spec(8)).unwrap();
        c.get_or_compile(&spec(8).with_opts(CompileOptions::default().optimized()))
            .unwrap();
        c.get_or_compile(&spec(8).with_faults("drop=0.1,seed=1"))
            .unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().compiles, 3);
    }
}
