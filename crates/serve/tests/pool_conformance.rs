//! Concurrency conformance: batched execution is bit-identical to solo.
//!
//! For every program in `xdp-programs/` (plain and optimized) and a set
//! of `xdp_verify`-generated programs, N copies run through a concurrent
//! batch must produce exactly the same [`xdp_verify::Fingerprint`] —
//! memory image, movement multiset, state digest, and message count — as
//! a solo run on a fresh pool. Per-run isolation is the serving layer's
//! core correctness claim; this is the test that owns it.
//!
//! The second half owns the cache's concurrency contract (DESIGN §2.22):
//! racing requests for one cold spec compile it once, a failed compile
//! fails every request that waited on it and caches nothing, and a miss
//! being compiled blocks no hit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use xdp_compiler::{Backend, CompileOptions, SeqMode};
use xdp_serve::{Begin, CachedProgram, RequestSpec, RunOutcome, ServeError, ServePool};

fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../xdp-programs")
}

fn program_specs() -> Vec<(String, RequestSpec)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(programs_dir())
        .expect("xdp-programs/ exists")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "xdp"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no programs in {:?}", programs_dir());
    let mut specs = Vec::new();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        let auto = CompileOptions::default().with_seq(SeqMode::Auto);
        specs.push((
            name.clone(),
            RequestSpec::new(source.clone()).with_opts(auto.clone()),
        ));
        specs.push((
            format!("{name}+opt"),
            RequestSpec::new(source).with_opts(auto.optimized()),
        ));
    }
    specs
}

/// N concurrent copies of one spec == its solo fingerprint.
fn assert_batch_matches_solo(name: &str, spec: &RequestSpec, copies: usize) {
    let solo = ServePool::new(1, 4)
        .run_one(spec)
        .unwrap_or_else(|e| panic!("{name}: solo run failed: {e}"));
    let pool = ServePool::new(4, 4);
    let specs = vec![spec.clone(); copies];
    for (i, result) in pool.run_batch(&specs).into_iter().enumerate() {
        let out = result.unwrap_or_else(|e| panic!("{name}: batch run {i} failed: {e}"));
        assert_eq!(
            out.fingerprint, solo.fingerprint,
            "{name}: concurrent copy {i} diverged from solo"
        );
        assert_eq!(out.virtual_time, solo.virtual_time, "{name}: copy {i}");
        assert_eq!(out.messages, solo.messages, "{name}: copy {i}");
    }
}

#[test]
fn every_program_is_batch_solo_identical() {
    for (name, spec) in program_specs() {
        assert_batch_matches_solo(&name, &spec, 3);
    }
}

#[test]
fn mixed_batch_matches_per_spec_sequential_runs() {
    let specs = program_specs();
    // Sequential reference: each spec solo on a private pool.
    let reference: Vec<_> = specs
        .iter()
        .map(|(name, spec)| {
            ServePool::new(1, 4)
                .run_one(spec)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .fingerprint
        })
        .collect();
    // One interleaved batch over everything, twice per spec, shared cache.
    let pool = ServePool::new(4, specs.len());
    let mut batch = Vec::new();
    for (_, spec) in &specs {
        batch.push(spec.clone());
    }
    for (_, spec) in &specs {
        batch.push(spec.clone());
    }
    let results = pool.run_batch(&batch);
    for (i, result) in results.into_iter().enumerate() {
        let (name, _) = &specs[i % specs.len()];
        let out = result.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            out.fingerprint,
            reference[i % specs.len()],
            "{name}: interleaved run {i} diverged"
        );
    }
    // Every spec was compiled once: its second copy hit, or arrived
    // mid-compile and joined it.
    let stats = pool.cache_stats();
    assert_eq!(stats.compiles, specs.len() as u64);
    assert_eq!(stats.hits + stats.misses, 2 * specs.len() as u64);
}

#[test]
fn generated_programs_are_batch_solo_identical() {
    for seed in [3u64, 11, 42] {
        let tp = xdp_verify::gen::executable_program_with(&xdp_verify::GenConfig::default(), seed);
        let spec = RequestSpec::new(xdp_ir::pretty::program(&tp.program));
        assert_batch_matches_solo(&format!("gen-{seed}"), &spec, 3);
    }
}

#[test]
fn faulty_runs_conform_too() {
    // Fault injection is seeded per plan, so a faulty run is as
    // deterministic as a lossless one — batched or not.
    let source = std::fs::read_to_string(programs_dir().join("simple.xdp")).unwrap();
    let spec = RequestSpec::new(source)
        .with_opts(CompileOptions::default().with_seq(SeqMode::Auto))
        .with_faults("drop=0.2,seed=7");
    assert_batch_matches_solo("simple.xdp+faults", &spec, 4);
}

/// `k` independent BLOCK-against-CYCLIC loop nests, compiled the way the
/// benchmark's cold mix compiles them: lowering, the paper pipeline and
/// the placement search all run, so the compile costs milliseconds.
fn knest(k: usize) -> RequestSpec {
    let mut source = String::new();
    for j in 1..=k {
        source.push_str(&format!(
            "real A{j}[1:16] distribute (BLOCK) onto 4\nreal B{j}[1:16] distribute (CYCLIC) onto 4\n"
        ));
    }
    for j in 1..=k {
        source.push_str(&format!(
            "do i = 1, 16\n  A{j}[i] = A{j}[i] + B{j}[i]\nenddo\n"
        ));
    }
    RequestSpec::new(source).with_opts(
        CompileOptions::default()
            .with_seq(SeqMode::Auto)
            .optimized()
            .placed()
            .with_backend(Backend::Vm),
    )
}

/// `run_one(spec)` from `threads` threads released together.
fn race(
    pool: &ServePool,
    spec: &RequestSpec,
    threads: usize,
) -> Vec<Result<RunOutcome, ServeError>> {
    let gate = Barrier::new(threads);
    std::thread::scope(|scope| {
        let racers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    gate.wait();
                    pool.run_one(spec)
                })
            })
            .collect();
        racers.into_iter().map(|t| t.join().unwrap()).collect()
    })
}

#[test]
fn racing_requests_for_one_cold_spec_compile_it_once() {
    let pool = ServePool::new(8, 4);
    let outcomes: Vec<RunOutcome> = race(&pool, &knest(8), 8)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let stats = pool.cache_stats();
    assert_eq!(
        stats.compiles, 1,
        "one compile however the eight interleave"
    );
    assert_eq!(stats.hits + stats.misses, 8, "every request looked up once");
    for out in &outcomes {
        assert_eq!(out.fingerprint, outcomes[0].fingerprint);
    }
    // Exactly one request led the compile; whoever missed without leading
    // waited on it and spent no compile time of its own.
    let led = outcomes.iter().filter(|o| o.compile_us > 0).count();
    assert_eq!(led, 1, "{outcomes:?}");
    let missed = outcomes.iter().filter(|o| !o.cache_hit).count() as u64;
    assert_eq!(missed, stats.misses);
    assert!(outcomes.iter().all(|o| !o.cache_hit || o.compile_us == 0));
    let snap = pool.metrics_snapshot();
    assert_eq!(snap.histogram("xdp_compile_us", &[]).unwrap().count, 1);
    assert_eq!(snap.counter("xdp_cache_compiles_total", &[]), Some(1));
    assert_eq!(
        snap.counter("xdp_cache_misses_total", &[]),
        Some(stats.misses)
    );
}

/// The join itself, with the interleaving forced: the test leads the
/// flight by hand, so the pool's request can only join it.
#[test]
fn a_request_that_joins_a_flight_reports_a_miss_it_did_not_compile() {
    let pool = ServePool::new(2, 4);
    let spec = knest(6);
    let Begin::Lead(flight) = pool.with_cache(|cache| cache.begin(&spec)) else {
        panic!("an empty cache leads");
    };
    std::thread::scope(|scope| {
        let joiner = scope.spawn(|| pool.run_one(&spec));
        // Land only once the request is in: its lookup is the second miss.
        while pool.cache_stats().misses < 2 {
            std::thread::yield_now();
        }
        assert!(!joiner.is_finished(), "a joiner waits for the landing");
        let built = CachedProgram::build(&spec);
        let landed = pool.with_cache(|cache| cache.land(&flight, built)).unwrap();
        let out = joiner.join().unwrap().unwrap();
        assert!(
            !out.cache_hit,
            "it was not resident when this request asked"
        );
        assert_eq!(out.compile_us, 0, "and this request compiled nothing");
        assert_eq!(out.key, landed.key);
    });
    assert_eq!(pool.cache_stats().compiles, 1);
    assert!(pool.run_one(&spec).unwrap().cache_hit);
}

#[test]
fn a_failed_compile_fails_every_racer_and_caches_nothing() {
    let bad_program = RequestSpec::new("real A[1:4] distribute (WAT) onto 2\n");
    let bad_faults = knest(6).with_faults("drop=banana");
    for (bad, want) in [
        (bad_program, "compile: parse"),
        (bad_faults, "bad fault spec"),
    ] {
        let pool = ServePool::new(8, 4);
        for result in race(&pool, &bad, 8) {
            let e = result.unwrap_err().to_string();
            assert!(e.starts_with(want), "{e}");
        }
        let stats = pool.cache_stats();
        assert_eq!((stats.compiles, stats.hits, stats.misses), (0, 0, 8));
        assert!(pool.with_cache(|cache| cache.is_empty()));
        let snap = pool.metrics_snapshot();
        assert_eq!(
            snap.counter("xdp_requests_total", &[("outcome", "error")]),
            Some(8)
        );
        pool.run_one(&knest(6)).expect("the pool still serves");
    }
}

/// The regression test for "a miss blocks every hit": while one thread
/// compiles a large cold program, another keeps getting a warm small one
/// served. With the compile under the cache lock the second thread got at
/// most the reply it was already inside.
#[test]
fn a_miss_being_compiled_does_not_block_hits() {
    let pool = ServePool::new(2, 4);
    let warm = RequestSpec::new(
        "real A[1:8] distribute (BLOCK) onto 2\n\
         do i = 1, 8\n  iown(A[i]) : { A[i] = A[i] + 1.0 }\nenddo\n",
    );
    pool.run_one(&warm).unwrap();
    let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
    let served_meanwhile = std::thread::scope(|scope| {
        scope.spawn(|| {
            started.store(true, Ordering::SeqCst);
            let cold = pool.run_one(&knest(40)).unwrap();
            done.store(true, Ordering::SeqCst);
            assert!(cold.compile_us > 0);
        });
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let mut served = 0;
        loop {
            let out = pool.run_one(&warm).unwrap();
            if done.load(Ordering::SeqCst) {
                break served;
            }
            assert!(out.cache_hit);
            served += 1;
        }
    });
    assert!(
        served_meanwhile >= 20,
        "{served_meanwhile} warm replies during one knest-40 compile"
    );
}
