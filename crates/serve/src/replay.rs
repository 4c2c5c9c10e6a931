//! The load-replay driver behind `xdpd bench`, `xdpd stats` and
//! `e14_metrics`.
//!
//! Replay builds a request corpus — every `.xdp` program in a directory
//! (plain and optimized variants), plus `xdp_verify`-generated programs
//! rendered back to source — then fires a seeded, weighted stream of
//! requests at a [`ServePool`] in batches and reports what a serving
//! operator would watch: latency percentiles, throughput, cache hit
//! rate, and the **warm-recompile count** (resubmitting every distinct
//! corpus item after the replay must not move the compile counter; a
//! nonzero value means a hit recompiled, which is the one thing a
//! compile cache must never do).
//!
//! Latency statistics come from the pool's own
//! `xdp_request_latency_us` histogram — the bench path and the live
//! `xdpd stats` path share one implementation, so a bench percentile and
//! an operator-facing percentile can never drift apart. The raw latency
//! vector is still carried on the report: `e14_metrics` uses it as the
//! sorted-vector oracle the histogram is checked against.
//!
//! The serving contract the binaries enforce lives here too
//! ([`ReplayReport::contract_violations`]): no errors, one compile per
//! distinct requested program, a warm hit rate, and zero warm
//! recompiles. `xdpd bench` (experiment E13) exits nonzero on any
//! violation. A replay asserts and prints; it records nothing — host
//! speed is measured by `benchmark/` alone.

use crate::cache::CacheStats;
use crate::pool::ServePool;
use crate::spec::RequestSpec;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use xdp_compiler::cli::{self, Args};
use xdp_compiler::{Backend, CompileOptions, SeqMode};
use xdp_metrics::{FlightConfig, HistSnapshot};
use xdp_verify::GenConfig;

/// One weighted corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusItem {
    /// Display name (`file.xdp`, `file.xdp+opt`, `gen-3`, ...).
    pub name: String,
    pub spec: RequestSpec,
    /// Sampling weight in the request mix.
    pub weight: u32,
}

/// Replay shape: how many requests, over how many workers, from which
/// corpus.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Total requests to replay.
    pub requests: usize,
    /// Pool worker threads.
    pub workers: usize,
    /// Requests per `run_batch` call.
    pub batch: usize,
    /// Compile-cache capacity (programs).
    pub capacity: usize,
    /// RNG seed for the request mix (and generated-program seeds).
    pub seed: u64,
    /// Number of `xdp_verify`-generated programs to add to the corpus.
    pub gen_count: usize,
    /// Directory of `.xdp` sources; empty name disables file loading.
    pub programs_dir: PathBuf,
    /// Flight-recorder output directory; `None` disables recording.
    pub flight_dir: Option<PathBuf>,
    /// Slow-request trigger for the recorder, microseconds.
    pub slow_us: Option<u64>,
    /// Execution backend every corpus spec is compiled for. Part of the
    /// cache key, so an interp replay and a vm replay never share
    /// entries.
    pub backend: Backend,
    /// Redistribution memory budget (bytes per processor) every corpus
    /// spec is compiled under. Part of the cache key.
    pub mem_budget: Option<u64>,
}

impl ReplayConfig {
    /// The `xdpd bench` defaults over a program directory.
    pub fn new(programs_dir: impl Into<PathBuf>) -> ReplayConfig {
        ReplayConfig {
            requests: 1000,
            workers: 4,
            batch: 64,
            capacity: 64,
            seed: 1993,
            gen_count: 6,
            programs_dir: programs_dir.into(),
            flight_dir: None,
            slow_us: None,
            backend: Backend::default(),
            mem_budget: None,
        }
    }

    /// Read the replay options shared by every binary that replays
    /// (`--requests --workers --batch --capacity --seed --gen --programs`)
    /// over the caller's defaults, and `--backend` and `--mem-budget` as
    /// every tool reads them (absent: interp, unbounded). A malformed
    /// value is a usage error reported under the tool's name (exit code 2).
    pub fn apply_args(&mut self, args: &Args) -> Result<(), ExitCode> {
        self.requests = args.num(cli::REQUESTS, self.requests)?;
        self.workers = args.num(cli::WORKERS, self.workers)?;
        self.batch = args.num(cli::BATCH, self.batch)?;
        self.capacity = args.num(cli::CAPACITY, self.capacity)?;
        self.seed = args.num(cli::SEED, self.seed)?;
        self.gen_count = args.num(cli::GEN, self.gen_count)?;
        if let Some(dir) = args.value(cli::PROGRAMS) {
            self.programs_dir = dir.into();
        }
        let compile = cli::compile_options(args)?;
        (self.backend, self.mem_budget) = (compile.backend, compile.mem_budget);
        Ok(())
    }
}

/// Per-corpus-item replay counters.
#[derive(Clone, Debug, Default)]
pub struct ProgramRow {
    pub name: String,
    pub runs: u64,
    pub hits: u64,
    pub mean_latency_us: f64,
}

/// Everything the replay measured.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    pub requests: usize,
    /// The execution backend the whole replay ran on.
    pub backend: Backend,
    pub errors: usize,
    pub distinct: usize,
    /// Corpus items the seeded mix actually requested at least once
    /// (short replays may never draw a low-weight item).
    pub distinct_requested: usize,
    pub wall_s: f64,
    pub runs_per_sec: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub mean_us: f64,
    /// The latency histogram the percentiles above came from — the same
    /// shard type `xdpd stats` exposes.
    pub latency_hist: HistSnapshot,
    /// Raw per-request latencies, unsorted, successful requests only.
    /// Kept as the oracle the histogram is validated against.
    pub latencies_us: Vec<u64>,
    /// Latency decomposition totals over successful requests (µs).
    pub total_queue_us: u64,
    pub total_resolve_us: u64,
    pub total_execute_us: u64,
    /// Sum of end-to-end wall latencies (µs); the decomposition above
    /// must account for it to within a few percent.
    pub total_wall_us: u64,
    /// Hit rate over the replay phase only (excludes the warm check).
    pub hit_rate: f64,
    /// Cache counters after the replay phase.
    pub stats: CacheStats,
    /// Compiles triggered by resubmitting every *requested* item once,
    /// post-replay. Must be 0 when `capacity >= distinct`: every one of
    /// these specs was compiled during the replay, so a nonzero count
    /// means a hit recompiled.
    pub warm_recompiles: u64,
    /// Flight-recorder dump files written during the replay.
    pub flight_dumps: u64,
    pub per_program: Vec<ProgramRow>,
}

impl ReplayReport {
    /// The serving contract `xdpd bench` enforces. Empty means the
    /// replay is healthy; each entry is one violated invariant,
    /// human-readable.
    pub fn contract_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.errors != 0 {
            v.push(format!("{} requests failed (want 0)", self.errors));
        }
        if self.stats.compiles != self.distinct_requested as u64 {
            v.push(format!(
                "{} compiles for {} distinct requested programs (want exactly one each)",
                self.stats.compiles, self.distinct_requested
            ));
        }
        if self.hit_rate < 0.90 {
            v.push(format!(
                "hit rate {:.3} below the 0.90 serving floor",
                self.hit_rate
            ));
        }
        if self.warm_recompiles != 0 {
            v.push(format!(
                "{} warm recompiles (a cache hit recompiled)",
                self.warm_recompiles
            ));
        }
        v
    }
}

/// Build the replay corpus: directory programs (plain weight 8,
/// optimized weight 4) plus generated programs (weight 1). Files load in
/// sorted name order so the corpus — and therefore the seeded request
/// mix — is reproducible.
pub fn load_corpus(cfg: &ReplayConfig) -> Result<Vec<CorpusItem>, String> {
    let mut corpus = Vec::new();
    if !cfg.programs_dir.as_os_str().is_empty() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&cfg.programs_dir)
            .map_err(|e| format!("cannot read {}: {e}", cfg.programs_dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "xdp"))
            .collect();
        files.sort();
        for path in files {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            // Auto handles both notations: sequential sources (e.g.
            // seq_sum.xdp) lower through owner-computes, parallel
            // sources run as written.
            let mut auto = CompileOptions::default()
                .with_seq(SeqMode::Auto)
                .with_backend(cfg.backend);
            auto.mem_budget = cfg.mem_budget;
            corpus.push(CorpusItem {
                name: name.clone(),
                spec: RequestSpec::new(source.clone()).with_opts(auto.clone()),
                weight: 8,
            });
            corpus.push(CorpusItem {
                name: format!("{name}+opt"),
                spec: RequestSpec::new(source).with_opts(auto.optimized()),
                weight: 4,
            });
        }
    }
    for k in 0..cfg.gen_count {
        let tp = xdp_verify::gen::executable_program_with(
            &GenConfig::default(),
            cfg.seed.wrapping_add(k as u64),
        );
        let mut opts = CompileOptions::default().with_backend(cfg.backend);
        opts.mem_budget = cfg.mem_budget;
        corpus.push(CorpusItem {
            name: format!("gen-{k}"),
            spec: RequestSpec::new(xdp_ir::pretty::program(&tp.program)).with_opts(opts),
            weight: 1,
        });
    }
    if corpus.is_empty() {
        return Err("replay corpus is empty".to_string());
    }
    Ok(corpus)
}

/// Draw a seeded, weighted request mix of `n` corpus indices.
pub fn request_mix(corpus: &[CorpusItem], n: usize, seed: u64) -> Vec<usize> {
    let total: u64 = corpus.iter().map(|c| u64::from(c.weight)).sum();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut pick = rng.gen_range(0..total);
            for (i, item) in corpus.iter().enumerate() {
                let w = u64::from(item.weight);
                if pick < w {
                    return i;
                }
                pick -= w;
            }
            corpus.len() - 1
        })
        .collect()
}

/// Run the full replay: corpus → request mix → batched execution →
/// warm-recompile check. Returns the report and the pool (still warm,
/// for follow-up queries).
pub fn replay(cfg: &ReplayConfig) -> Result<(ReplayReport, ServePool), String> {
    let corpus = load_corpus(cfg)?;
    let mix = request_mix(&corpus, cfg.requests, cfg.seed);
    let mut pool = ServePool::new(cfg.workers, cfg.capacity);
    if let Some(dir) = &cfg.flight_dir {
        let mut fcfg = FlightConfig::new(dir);
        fcfg.slow_us = cfg.slow_us;
        pool = pool.with_flight(fcfg);
    }

    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.requests);
    let mut per: Vec<(u64, u64, u64)> = vec![(0, 0, 0); corpus.len()]; // runs, hits, total us
    let (mut tq, mut tr, mut tx, mut tw) = (0u64, 0u64, 0u64, 0u64);
    let mut errors = 0usize;
    let started = Instant::now();
    for chunk in mix.chunks(cfg.batch.max(1)) {
        let specs: Vec<RequestSpec> = chunk.iter().map(|&i| corpus[i].spec.clone()).collect();
        for (&i, result) in chunk.iter().zip(pool.run_batch(&specs)) {
            match result {
                Ok(out) => {
                    latencies.push(out.latency_us);
                    tq += out.queue_us;
                    tr += out.resolve_us;
                    tx += out.execute_us;
                    tw += out.latency_us;
                    per[i].0 += 1;
                    per[i].1 += u64::from(out.cache_hit);
                    per[i].2 += out.latency_us;
                }
                Err(e) => {
                    errors += 1;
                    eprintln!("replay: {}: {e}", corpus[i].name);
                }
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let stats = pool.cache_stats();
    // One code path for latency stats: the pool's own histogram,
    // snapshotted *before* the warm check adds its own observations.
    let latency_hist = pool
        .metrics_snapshot()
        .histogram("xdp_request_latency_us", &[])
        .cloned()
        .unwrap_or_default();

    // Warm check: every item the replay actually served, one more time.
    // The cache already compiled each of these specs, so the compile
    // counter must not move (when the cache is big enough to hold the
    // whole corpus). Items the mix never drew are skipped — compiling
    // them now would be a first compile, not a recompile.
    let before = pool.cache_stats().compiles;
    for (item, &(runs, _, _)) in corpus.iter().zip(&per) {
        if runs == 0 {
            continue;
        }
        if let Err(e) = pool.run_one(&item.spec) {
            return Err(format!("warm check: {}: {e}", item.name));
        }
    }
    let warm_recompiles = pool.cache_stats().compiles - before;

    let report = ReplayReport {
        requests: cfg.requests,
        backend: cfg.backend,
        errors,
        distinct: corpus.len(),
        distinct_requested: per.iter().filter(|&&(runs, _, _)| runs > 0).count(),
        wall_s,
        runs_per_sec: if wall_s > 0.0 {
            (cfg.requests - errors) as f64 / wall_s
        } else {
            0.0
        },
        p50_us: latency_hist.p50(),
        p99_us: latency_hist.p99(),
        mean_us: latency_hist.mean(),
        latency_hist,
        latencies_us: latencies,
        total_queue_us: tq,
        total_resolve_us: tr,
        total_execute_us: tx,
        total_wall_us: tw,
        hit_rate: stats.hit_rate(),
        stats,
        warm_recompiles,
        flight_dumps: pool.flight().map_or(0, |fr| fr.dumps()),
        per_program: corpus
            .iter()
            .zip(&per)
            .map(|(item, &(runs, hits, total))| ProgramRow {
                name: item.name.clone(),
                runs,
                hits,
                mean_latency_us: if runs > 0 {
                    total as f64 / runs as f64
                } else {
                    0.0
                },
            })
            .collect(),
    };
    Ok((report, pool))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_only(requests: usize) -> ReplayConfig {
        ReplayConfig {
            requests,
            workers: 2,
            batch: 16,
            capacity: 16,
            seed: 7,
            gen_count: 3,
            programs_dir: PathBuf::new(),
            flight_dir: None,
            slow_us: None,
            backend: Backend::Interp,
            mem_budget: None,
        }
    }

    #[test]
    fn corpus_from_generated_programs_only() {
        let corpus = load_corpus(&gen_only(10)).unwrap();
        assert_eq!(corpus.len(), 3);
        assert!(corpus.iter().all(|c| c.name.starts_with("gen-")));
        // Same config, same corpus (generation is seeded).
        let again = load_corpus(&gen_only(10)).unwrap();
        for (a, b) in corpus.iter().zip(&again) {
            assert_eq!(a.spec.content_hash(), b.spec.content_hash());
        }
    }

    #[test]
    fn request_mix_is_seeded_and_weighted() {
        let corpus = vec![
            CorpusItem {
                name: "heavy".into(),
                spec: RequestSpec::new("x"),
                weight: 9,
            },
            CorpusItem {
                name: "light".into(),
                spec: RequestSpec::new("y"),
                weight: 1,
            },
        ];
        let mix = request_mix(&corpus, 1000, 42);
        assert_eq!(mix, request_mix(&corpus, 1000, 42), "seeded = reproducible");
        let heavy = mix.iter().filter(|&&i| i == 0).count();
        assert!(heavy > 800 && heavy < 980, "got {heavy}/1000 heavy");
    }

    #[test]
    fn replay_over_generated_corpus_hits_warm() {
        let (report, _pool) = replay(&gen_only(60)).unwrap();
        assert_eq!(report.errors, 0);
        assert_eq!(report.distinct, 3);
        assert_eq!(report.distinct_requested, 3, "equal weights, 60 draws");
        assert_eq!(
            report.warm_recompiles, 0,
            "warm resubmission must not compile"
        );
        assert_eq!(report.stats.compiles, 3, "one compile per distinct program");
        // 3 first misses, and with 2 workers at most one joiner each.
        assert!(report.hit_rate >= 0.9, "hit rate {}", report.hit_rate);
        assert_eq!(report.per_program.iter().map(|r| r.runs).sum::<u64>(), 60);
        assert!(
            report.contract_violations().is_empty(),
            "healthy replay passes the contract: {:?}",
            report.contract_violations()
        );
        assert_eq!(report.requests, 60);
    }

    #[test]
    fn latency_stats_come_from_the_pool_histogram() {
        let (report, _pool) = replay(&gen_only(40)).unwrap();
        assert_eq!(report.latencies_us.len(), 40, "one raw latency per request");
        assert_eq!(
            report.latency_hist.count, 40,
            "histogram excludes the warm check"
        );
        assert_eq!(
            report.latency_hist.sum,
            report.latencies_us.iter().sum::<u64>(),
            "histogram total is exact"
        );
        assert_eq!(report.p50_us, report.latency_hist.p50());
        // Decomposition accounts for wall latency.
        let parts = report.total_queue_us + report.total_resolve_us + report.total_execute_us;
        let gap = report.total_wall_us.abs_diff(parts);
        assert!(
            gap * 20 <= report.total_wall_us,
            "split {parts} within 5% of wall {}",
            report.total_wall_us
        );
    }

    #[test]
    fn replay_on_the_vm_backend_is_healthy_and_labels_metrics() {
        let mut cfg = gen_only(40);
        cfg.backend = Backend::Vm;
        let (report, pool) = replay(&cfg).unwrap();
        assert_eq!(report.backend, Backend::Vm);
        assert!(
            report.contract_violations().is_empty(),
            "{:?}",
            report.contract_violations()
        );
        assert_eq!(report.backend.as_str(), "vm");
        // Every request (replay + warm check) landed in the vm-labeled
        // histogram; the interp one never fired.
        let snap = pool.metrics_snapshot();
        let vm = snap
            .histogram("xdp_request_latency_us", &[("backend", "vm")])
            .unwrap();
        assert!(vm.count >= 40, "vm-labeled count {}", vm.count);
        let interp = snap
            .histogram("xdp_request_latency_us", &[("backend", "interp")])
            .unwrap();
        assert_eq!(interp.count, 0);
    }

    #[test]
    fn contract_violations_catch_unhealthy_reports() {
        let (mut report, _pool) = replay(&gen_only(30)).unwrap();
        report.errors = 2;
        report.hit_rate = 0.5;
        report.warm_recompiles = 1;
        let v = report.contract_violations();
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().any(|m| m.contains("2 requests failed")));
        assert!(v.iter().any(|m| m.contains("hit rate")));
        assert!(v.iter().any(|m| m.contains("warm recompiles")));
    }
}
