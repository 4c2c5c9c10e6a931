//! `xdpd` — the XDP serving daemon, driven in one-shot mode.
//!
//! Where `xdpc` compiles a program every time it runs one, `xdpd` is the
//! compile-once/run-many side of the toolchain: requests resolve through
//! a content-hashed compile cache and execute on a bounded worker pool.
//!
//! Run `xdpd` for the commands and `xdpd <cmd> --help` for a command's
//! options; both are rendered from the option table in
//! [`xdp_compiler::cli`], which `xdpc` reads too.

use std::path::PathBuf;
use std::process::ExitCode;
use xdp_bench::table::{j, Table};
use xdp_compiler::cli::{self, Args};
use xdp_compiler::SeqMode;
use xdp_serve::{load_corpus, replay, ReplayConfig, RequestSpec, ServePool};

/// `Err` carries the exit code of a failure the command has already
/// reported on stderr.
type Done = Result<(), ExitCode>;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = cli::XDPD.parse(&argv).and_then(|args| {
        let run = match args.command.name {
            "run" => cmd_run,
            "list" => cmd_list,
            "bench" => cmd_bench,
            "stats" => cmd_stats,
            other => unreachable!("`{other}` is not in the command table"),
        };
        run(&args)
    });
    done.err().unwrap_or(ExitCode::SUCCESS)
}

/// Report a failure (exit code 1) as one `xdpd: error: …` line.
fn fail(what: impl std::fmt::Display) -> ExitCode {
    eprintln!("xdpd: error: {what}");
    ExitCode::FAILURE
}

fn cmd_run(args: &Args) -> Done {
    let file = args.operand();
    let source = std::fs::read_to_string(file).map_err(|e| {
        // Same diagnostic contract as xdpc: exit 2 on unreadable input.
        eprintln!("xdpd: error: cannot read {file}: {e}");
        ExitCode::from(2)
    })?;
    let opts = cli::compile_options(args)?.with_seq(SeqMode::Auto);
    let mut spec = RequestSpec::new(source).with_opts(opts);
    if let Some(f) = args.value(cli::FAULTS) {
        spec = spec.with_faults(f);
    }
    let repeat: usize = args.num(cli::REPEAT)?;
    let workers: usize = args.num_or(cli::WORKERS, 2)?;

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
            Err(e) => return Err(fail(e)),
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

fn cmd_list(args: &Args) -> Done {
    let mut cfg = ReplayConfig {
        gen_count: 0,
        ..ReplayConfig::default()
    };
    cfg.apply_args(args)?;
    let corpus = load_corpus(&cfg).map_err(|e| {
        eprintln!("xdpd: error: {e}");
        ExitCode::from(2)
    })?;
    let pool = ServePool::new(1, corpus.len().max(1));
    for item in &corpus {
        let registered = pool.register(&item.name, item.spec.clone());
        registered.map_err(|e| fail(format_args!("{}: {e}", item.name)))?;
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

fn cmd_bench(args: &Args) -> Done {
    let mut cfg = ReplayConfig::default();
    cfg.apply_args(args)?;
    // Recording is on when asked for: a dump directory, or a slow trigger
    // (which dumps into the default directory).
    cfg.slow_us = args
        .num_opt::<u64>(cli::SLOW_MS)?
        .map(|ms| ms.saturating_mul(1000));
    if args.has(cli::FLIGHT_DIR) || cfg.slow_us.is_some() {
        cfg.flight_dir = Some(PathBuf::from(args.path(cli::FLIGHT_DIR)));
    }

    let (report, pool) = replay(&cfg).map_err(fail)?;
    for t in report.tables() {
        t.print();
    }
    if let Some(metrics_path) = args.value(cli::METRICS_OUT) {
        let snapshot = pool.metrics_snapshot();
        std::fs::write(metrics_path, format!("{}\n", snapshot.to_json()))
            .map_err(|e| fail(format_args!("cannot write {metrics_path}: {e}")))?;
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

fn cmd_stats(args: &Args) -> Done {
    let mut cfg = ReplayConfig {
        requests: 120,
        workers: 2,
        batch: 32,
        ..ReplayConfig::default()
    };
    cfg.apply_args(args)?;
    let json = args.read(cli::FORMAT, |format| match format {
        "prom" => Ok(false),
        "json" => Ok(true),
        other => Err(format!(" `{other}` (use prom or json)")),
    })?;

    let (_, pool) = replay(&cfg).map_err(fail)?;
    let snapshot = pool.metrics_snapshot();
    if json == Some(true) {
        println!("{}", snapshot.to_json());
    } else {
        print!("{}", snapshot.to_prometheus());
    }
    Ok(())
}
