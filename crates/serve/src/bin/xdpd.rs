//! `xdpd` — the XDP serving daemon, driven in one-shot mode.
//!
//! Where `xdpc` compiles a program every time it runs one, `xdpd` is the
//! compile-once/run-many side of the toolchain: requests resolve through
//! a content-hashed compile cache and execute on a bounded worker pool.
//!
//! ```text
//! xdpd run FILE [--repeat N] [--optimize] [--backend interp|vm] [--procs N]
//!          [--faults SPEC] [--workers N] [--mem-budget B]
//! xdpd list [--programs DIR] [--gen N]
//! xdpd bench [--requests N] [--workers N] [--batch N] [--capacity N]
//!            [--seed N] [--gen N] [--programs DIR] [--backend interp|vm]
//!            [--metrics-out FILE] [--slow-ms N] [--flight-dir DIR]
//!            [--mem-budget B]
//! xdpd stats [--requests N] [--workers N] [--programs DIR] [--gen N]
//!            [--backend interp|vm] [--format prom|json]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use xdp_bench::table::{j, Table};
use xdp_compiler::cli::{flag, num, opt_val, parse_backend, parse_mem_budget};
use xdp_compiler::{CompileOptions, SeqMode};
use xdp_serve::{load_corpus, replay, ReplayConfig, RequestSpec, ServePool};

const USAGE: &str = "\
xdpd — XDP serving daemon (compile-once/run-many)

USAGE:
    xdpd run FILE [--repeat N] [--optimize] [--backend interp|vm] [--procs N]
             [--faults SPEC] [--workers N] [--mem-budget B]
    xdpd list [--programs DIR] [--gen N]
    xdpd bench [--requests N] [--workers N] [--batch N] [--capacity N]
               [--seed N] [--gen N] [--programs DIR] [--backend interp|vm]
               [--metrics-out FILE] [--slow-ms N] [--flight-dir DIR]
               [--mem-budget B]
    xdpd stats [--requests N] [--workers N] [--programs DIR] [--gen N]
               [--backend interp|vm] [--format prom|json]

`run` serves one program repeatedly through the compile cache (the first
request compiles, the rest hit). `list` registers a corpus and prints the
registry. `bench` (experiment E13) replays a seeded weighted request
mix, prints the summary and per-program tables, and fails on
serving-contract violations; it records nothing (host speed is measured
by benchmark/). `--metrics-out` writes the pool's full metrics snapshot,
and `--slow-ms`/`--flight-dir` arm the flight recorder. `stats` serves a
short replay and prints the resulting telemetry in Prometheus text
(default) or JSON exposition. `--backend vm` compiles every request for
the bytecode VM instead of the tree-walking interpreter; latency
histograms carry a backend label either way, so `xdpd stats` splits the
two. `--mem-budget B` compiles every request under a per-processor
redistribution memory budget of B bytes (binary k/m/g suffixes
accepted); the planner then picks the fastest
decomposition whose peak live-buffer footprint fits.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(|s| s.as_str()) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    // `Err` carries the exit code of a failure the subcommand has already
    // reported on stderr.
    let done = match cmd {
        "run" => cmd_run(rest),
        "list" => cmd_list(rest),
        "bench" => cmd_bench(rest),
        "stats" => cmd_stats(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => {
            eprintln!("xdpd: unknown command `{other}`\n");
            eprint!("{USAGE}");
            Err(ExitCode::FAILURE)
        }
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn cmd_run(rest: &[String]) -> Result<(), ExitCode> {
    let Some(file) = rest.iter().find(|a| !a.starts_with("--")).cloned() else {
        eprintln!("xdpd: run needs a program file");
        return Err(ExitCode::FAILURE);
    };
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            // Same diagnostic contract as xdpc: exit 2 on unreadable input.
            eprintln!("xdpd: error: cannot read {file}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    let mut opts = CompileOptions::default().with_seq(SeqMode::Auto);
    opts.optimize = flag(rest, "--optimize");
    opts.procs = flag(rest, "--procs")
        .then(|| num("xdpd", rest, "--procs", 0))
        .transpose()?;
    opts.backend = parse_backend("xdpd", rest)?;
    opts.mem_budget = parse_mem_budget("xdpd", rest)?;
    let mut spec = RequestSpec::new(source).with_opts(opts);
    if let Some(f) = opt_val(rest, "--faults") {
        spec = spec.with_faults(f);
    }
    let repeat: usize = num("xdpd", rest, "--repeat", 3)?;
    let workers: usize = num("xdpd", rest, "--workers", 2)?;

    let pool = ServePool::new(workers, 8);
    let specs = vec![spec; repeat.max(1)];
    let mut t = Table::new(
        "xdpd-run",
        &[
            "request",
            "cache",
            "compile_us",
            "latency_us",
            "vtime",
            "messages",
        ],
    );
    for (i, result) in pool.run_batch(&specs).iter().enumerate() {
        match result {
            Ok(out) => t.row(&[
                j::u(i as u64),
                j::s(if out.cache_hit { "hit" } else { "miss" }),
                j::u(out.compile_us),
                j::u(out.latency_us),
                j::f(out.virtual_time),
                j::u(out.messages),
            ]),
            Err(e) => {
                eprintln!("xdpd: error: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    t.print();
    let stats = pool.cache_stats();
    println!(
        "cache: {} compiles, {} hits / {} lookups ({:.0}% hit rate)",
        stats.compiles,
        stats.hits,
        stats.hits + stats.misses,
        stats.hit_rate() * 100.0
    );
    Ok(())
}

fn cmd_list(rest: &[String]) -> Result<(), ExitCode> {
    let mut cfg = ReplayConfig::new(opt_val(rest, "--programs").unwrap_or("xdp-programs"));
    cfg.gen_count = num("xdpd", rest, "--gen", 0)?;
    let corpus = match load_corpus(&cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xdpd: error: {e}");
            return Err(ExitCode::from(2));
        }
    };
    let pool = ServePool::new(1, corpus.len().max(1));
    for item in &corpus {
        if let Err(e) = pool.register(&item.name, item.spec.clone()) {
            eprintln!("xdpd: error: {}: {e}", item.name);
            return Err(ExitCode::FAILURE);
        }
    }
    let rows = pool.with_registry(|reg, cache| reg.list(cache));
    let mut t = Table::new(
        "xdpd-registry",
        &["name", "key", "nprocs", "stmts", "passes", "cached"],
    );
    for r in rows {
        t.row(&[
            j::s(&r.name),
            j::s(&format!("{:016x}", r.key)),
            j::u(r.nprocs as u64),
            j::u(r.stmts as u64),
            j::u(r.passes as u64),
            j::s(if r.cached { "yes" } else { "no" }),
        ]);
    }
    t.print();
    Ok(())
}

fn cmd_bench(rest: &[String]) -> Result<(), ExitCode> {
    let mut cfg = ReplayConfig::new(opt_val(rest, "--programs").unwrap_or("xdp-programs"));
    cfg.apply_args("xdpd", rest)?;
    cfg.flight_dir = opt_val(rest, "--flight-dir").map(PathBuf::from);
    if flag(rest, "--slow-ms") {
        let ms: u64 = num("xdpd", rest, "--slow-ms", 0)?;
        cfg.slow_us = Some(ms.saturating_mul(1000));
        cfg.flight_dir
            .get_or_insert_with(|| PathBuf::from("flight-dumps"));
    }

    let (report, pool) = match replay(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xdpd: error: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let mut t = Table::new(
        "xdpd-bench",
        &[
            "requests",
            "backend",
            "distinct",
            "errors",
            "runs_per_sec",
            "p50_us",
            "p99_us",
            "hit_rate",
            "compiles",
            "warm_recompiles",
            "flight_dumps",
        ],
    );
    t.row(&[
        j::u(report.requests as u64),
        j::s(report.backend.as_str()),
        j::u(report.distinct as u64),
        j::u(report.errors as u64),
        j::f(report.runs_per_sec),
        j::u(report.p50_us),
        j::u(report.p99_us),
        j::f(report.hit_rate),
        j::u(report.stats.compiles),
        j::u(report.warm_recompiles),
        j::u(report.flight_dumps),
    ]);
    t.print();
    let mut per = Table::new(
        "xdpd-bench-programs",
        &["program", "runs", "hits", "mean_latency_us"],
    );
    for row in &report.per_program {
        per.row(&[
            j::s(&row.name),
            j::u(row.runs),
            j::u(row.hits),
            j::f(row.mean_latency_us),
        ]);
    }
    per.print();
    if let Some(metrics_path) = opt_val(rest, "--metrics-out") {
        let snapshot = pool.metrics_snapshot();
        if let Err(e) = std::fs::write(metrics_path, format!("{}\n", snapshot.to_json())) {
            eprintln!("xdpd: error: cannot write {metrics_path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        println!("wrote {metrics_path}");
    }
    // The serving contract: a bench run that errored, recompiled warm
    // hits, or fell off the hit-rate floor fails loudly instead of
    // printing a healthy-looking report.
    let violations = report.contract_violations();
    for v in &violations {
        eprintln!("xdpd: contract violation: {v}");
    }
    if !violations.is_empty() {
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

fn cmd_stats(rest: &[String]) -> Result<(), ExitCode> {
    let mut cfg = ReplayConfig::new(opt_val(rest, "--programs").unwrap_or("xdp-programs"));
    (cfg.requests, cfg.workers, cfg.batch) = (120, 2, 32);
    cfg.apply_args("xdpd", rest)?;
    let format = opt_val(rest, "--format").unwrap_or("prom");

    let (_, pool) = match replay(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xdpd: error: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let snapshot = pool.metrics_snapshot();
    match format {
        "prom" => print!("{}", snapshot.to_prometheus()),
        "json" => println!("{}", snapshot.to_json()),
        other => {
            eprintln!("xdpd: unknown stats format `{other}` (want prom or json)");
            return Err(ExitCode::FAILURE);
        }
    }
    Ok(())
}
