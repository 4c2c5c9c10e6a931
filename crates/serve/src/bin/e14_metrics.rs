//! E14 — serving telemetry validation.
//!
//! Exercises the observability stack end to end and checks that what it
//! reports is *true*:
//!
//! * **histogram fidelity** — the pool's `xdp_request_latency_us`
//!   histogram must put p50/p99 within one log-bucket of the
//!   sorted-vector oracle computed from the raw latencies the replay
//!   kept, and its count/sum must be exact;
//! * **latency decomposition** — per-request queue + resolve + execute
//!   must account for end-to-end wall latency to within 5% in aggregate;
//! * **flight recorder** — a deliberately slow request planted among
//!   fast ones must produce **exactly one** dump, and a failing request
//!   exactly one more (with the error recorded);
//! * **exposition** — the Prometheus text and JSON snapshots carry the
//!   expected families and version stamp.
//!
//! `e14_metrics --help` lists the options: the replay's (as `xdpd bench`
//! takes them), `--metrics-out` and `--flight-dir`.

use std::path::PathBuf;
use std::process::ExitCode;
use xdp_bench::table::{j, Table};
use xdp_compiler::cli::{self, Args};
use xdp_metrics::{bucket_index, FlightConfig, FLIGHT_DUMP_VERSION};
use xdp_serve::{replay, ReplayConfig, RequestSpec, ServePool};

/// Nearest-rank quantile over a sorted slice — the oracle convention the
/// histogram is validated against.
fn oracle(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn block_loop(n: usize) -> RequestSpec {
    RequestSpec::new(format!(
        "real A[1:{n}] distribute (BLOCK) onto 2\n\
         do i = 1, {n}\n  iown(A[i]) : {{ A[i] = A[i] + 1.0 }}\nenddo\n"
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse("e14_metrics", &cli::E14_METRICS, &argv) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let mut cfg = ReplayConfig::new("xdp-programs");
    // The corpus holds ~26 distinct programs and each costs one cold
    // miss, so the request count must be high enough for the warm
    // phase to clear the 0.90 hit-rate floor.
    (cfg.requests, cfg.batch, cfg.gen_count) = (400, 32, 4);
    if let Err(code) = cfg.apply_args(&args) {
        return code;
    }
    let metrics_out = args.value(cli::METRICS_OUT);
    let flight_dir = PathBuf::from(args.value(cli::FLIGHT_DIR).unwrap_or("flight-dumps"));

    let mut failures = 0usize;
    let mut check = |ok: bool, what: String| {
        println!("{}  {what}", if ok { "OK  " } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    // ---- Phase 1: replay; histogram vs oracle; decomposition. --------
    let (report, pool) = match replay(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e14_metrics: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sorted = report.latencies_us.clone();
    sorted.sort_unstable();
    let hist = &report.latency_hist;

    check(
        report.contract_violations().is_empty(),
        format!(
            "serving contract holds over {} requests {:?}",
            report.requests,
            report.contract_violations()
        ),
    );
    check(
        hist.count == sorted.len() as u64 && hist.sum == sorted.iter().sum::<u64>(),
        format!(
            "histogram count/sum exact (count {} of {}, sum {})",
            hist.count,
            sorted.len(),
            hist.sum
        ),
    );
    let mut quantile_rows = Vec::new();
    for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        let got = hist.quantile(q);
        let want = oracle(&sorted, q);
        let db = (bucket_index(got) as i64 - bucket_index(want) as i64).abs();
        check(
            db <= 1,
            format!("{label}: histogram {got}us within one log-bucket of oracle {want}us"),
        );
        quantile_rows.push((label, got, want, db));
    }
    let parts = report.total_queue_us + report.total_resolve_us + report.total_execute_us;
    let gap = report.total_wall_us.abs_diff(parts);
    check(
        gap * 20 <= report.total_wall_us,
        format!(
            "queue+resolve+execute {}us accounts for wall {}us (gap {:.2}%)",
            parts,
            report.total_wall_us,
            100.0 * gap as f64 / report.total_wall_us.max(1) as f64
        ),
    );

    let mut t = Table::new(
        "e14-quantiles",
        &["q", "hist_us", "oracle_us", "bucket_gap"],
    );
    for (label, got, want, db) in &quantile_rows {
        t.row(&[j::s(label), j::u(*got), j::u(*want), j::u(*db as u64)]);
    }
    t.print();

    // ---- Phase 2: exposition formats. --------------------------------
    let snapshot = pool.metrics_snapshot();
    let prom = snapshot.to_prometheus();
    check(
        prom.contains("# TYPE xdp_request_latency_us histogram")
            && prom.contains("xdp_requests_total{outcome=\"ok\"}")
            && prom.contains("xdp_cache_hits_total"),
        "Prometheus exposition carries the serving families".to_string(),
    );
    let json = snapshot.to_json();
    check(
        json.get("xdp_metrics_version").and_then(|v| v.as_u64()) == Some(1),
        "JSON exposition is version-stamped".to_string(),
    );
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("e14_metrics: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    // ---- Phase 3: the planted slow request. --------------------------
    let _ = std::fs::remove_dir_all(&flight_dir);
    let fpool = ServePool::new(1, 8).with_flight(FlightConfig::new(&flight_dir));
    let fast = block_loop(4);
    // Calibrate: grow the heavy program until its warm latency clears
    // the fast one by 8x, then arm the trigger halfway (in log space the
    // margin is >= 2x on both sides).
    let mut heavy_n = 512usize;
    let mut fast_max = 0u64;
    let mut slow_lat = 0u64;
    for _ in 0..6 {
        let slow = block_loop(heavy_n);
        fpool.run_one(&fast).unwrap();
        fpool.run_one(&slow).unwrap();
        fast_max = (0..8)
            .map(|_| fpool.run_one(&fast).unwrap().latency_us)
            .max()
            .unwrap_or(0);
        slow_lat = (0..3)
            .map(|_| fpool.run_one(&slow).unwrap().latency_us)
            .min()
            .unwrap_or(0);
        if slow_lat >= fast_max.saturating_mul(8) {
            break;
        }
        heavy_n *= 2;
    }
    let slow = block_loop(heavy_n);
    check(
        slow_lat >= fast_max.saturating_mul(8),
        format!("calibration: slow ({heavy_n} iters) {slow_lat}us >= 8x fast {fast_max}us"),
    );
    let dumps_before = fpool.flight().unwrap().dumps();
    check(
        dumps_before == 0,
        "calibration runs trigger no dumps".to_string(),
    );

    let threshold = slow_lat / 2;
    fpool.set_slow_us(Some(threshold));
    for _ in 0..8 {
        fpool.run_one(&fast).unwrap();
    }
    fpool.run_one(&slow).unwrap();
    let dumps = fpool.flight().unwrap().dumps();
    check(
        dumps == 1,
        format!(
            "planted slow request yields exactly one dump (got {dumps}, threshold {threshold}us)"
        ),
    );
    let dump_path = fpool.flight().unwrap().last_dump();
    let header_ok = dump_path.as_ref().is_some_and(|p| {
        std::fs::read_to_string(p)
            .ok()
            .and_then(|text| serde_json::from_str(text.lines().next().unwrap_or("")).ok())
            .and_then(|h| h.get("xdp_flight_version").and_then(|v| v.as_u64()))
            == Some(FLIGHT_DUMP_VERSION)
    });
    check(
        header_ok,
        format!(
            "dump {} has a versioned header",
            dump_path
                .as_ref()
                .map_or("<none>".into(), |p| p.display().to_string())
        ),
    );
    let chrome_ok = dump_path.as_ref().is_some_and(|p| {
        p.file_stem()
            .map(|s| flight_dir.join(format!("{}.trace.json", s.to_string_lossy())))
            .is_some_and(|t| t.exists())
    });
    check(
        chrome_ok,
        "dump has a replayable Chrome-trace twin".to_string(),
    );

    // A failing request triggers one more dump, carrying the error.
    let bad = RequestSpec::new("real A[1:4] distribute (WAT) onto 2\n");
    let _ = fpool.run_one(&bad);
    check(
        fpool.flight().unwrap().dumps() == 2,
        format!(
            "error dump recorded (total {})",
            fpool.flight().unwrap().dumps()
        ),
    );

    if failures > 0 {
        eprintln!("e14_metrics: {failures} check(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
