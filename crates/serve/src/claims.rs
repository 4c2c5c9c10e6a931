//! E14 — serving telemetry validation (DESIGN §3).
//!
//! Exercises the observability stack end to end and checks that what it
//! reports is *true*:
//!
//! * **histogram fidelity** — the pool's `xdp_request_latency_us`
//!   histogram must put p50/p90/p99 within one log-bucket of the
//!   sorted-vector oracle computed from the raw latencies the replay
//!   kept, and its count/sum must be exact;
//! * **latency decomposition** — per-request queue + resolve + execute
//!   must account for end-to-end wall latency to within 5% in aggregate;
//! * **flight recorder** — a request planted among fast ones and
//!   calibrated to be slow must cross the armed threshold, every request
//!   that crosses it produces **exactly one** dump (with a versioned
//!   header and a Chrome-trace twin), and a failing request exactly one
//!   more;
//! * **exposition** — the Prometheus text and JSON snapshots carry the
//!   expected families and version stamp.
//!
//! The dumps go to a private temporary directory, removed afterwards.

use crate::{replay, ReplayConfig, RequestSpec, ServePool};
use std::path::{Path, PathBuf};
use xdp_bench::table::{j, Table};
use xdp_metrics::{bucket_index, FlightConfig, FLIGHT_DUMP_VERSION};

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

/// A directory removed when dropped, whether the claim held or not.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every check above holds; each prints as one `OK` line under the
/// quantile table.
pub fn e14() -> Vec<Table> {
    let mut held = String::new();
    let mut check = |ok: bool, what: String| {
        assert!(ok, "E14: {what}");
        held.push_str(&format!("OK    {what}\n"));
    };

    // ---- Phase 1: replay; histogram vs oracle; decomposition. --------
    // The corpus holds ~26 distinct programs and each costs one cold
    // miss, so the request count must be high enough for the warm
    // phase to clear the 0.90 hit-rate floor.
    let cfg = ReplayConfig {
        requests: 400,
        batch: 32,
        gen_count: 4,
        programs_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("../../xdp-programs"),
        ..ReplayConfig::default()
    };
    let (report, pool) = replay(&cfg).expect("E14: the replay runs");
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
    let mut t = Table::new(
        "e14-quantiles",
        &["q", "hist_us", "oracle_us", "bucket_gap"],
    );
    for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        let got = hist.quantile(q);
        let want = oracle(&sorted, q);
        let db = (bucket_index(got) as i64 - bucket_index(want) as i64).unsigned_abs();
        check(
            db <= 1,
            format!("{label}: histogram {got}us within one log-bucket of oracle {want}us"),
        );
        t.row(&[j::s(label), j::u(got), j::u(want), j::u(db)]);
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

    // ---- Phase 3: the planted slow request. --------------------------
    let dir = ScratchDir(std::env::temp_dir().join(format!("xdp-e14-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let fpool = ServePool::new(1, 8).with_flight(FlightConfig::new(&dir.0));
    let latency = |spec: &RequestSpec| {
        fpool
            .run_one(spec)
            .expect("E14: the request runs")
            .latency_us
    };
    let fast = block_loop(4);
    // Calibrate: grow the heavy program until its warm latency clears
    // the fast one by 8x, then arm the trigger halfway (in log space the
    // margin is >= 2x on both sides).
    let mut heavy_n = 512usize;
    let mut fast_max = 0u64;
    let mut slow_lat = 0u64;
    for _ in 0..6 {
        let slow = block_loop(heavy_n);
        latency(&fast);
        latency(&slow);
        fast_max = (0..8).map(|_| latency(&fast)).max().unwrap_or(0);
        slow_lat = (0..3).map(|_| latency(&slow)).min().unwrap_or(0);
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
    let flight = fpool.flight().expect("the pool records flights");
    check(
        flight.dumps() == 0,
        "calibration runs trigger no dumps".to_string(),
    );

    // A fast request the host stalls past the threshold is slow too, and
    // dumps: the claim is one dump per request at or over it.
    let threshold = slow_lat / 2;
    fpool.set_slow_us(Some(threshold));
    let mut latencies: Vec<u64> = (0..8).map(|_| latency(&fast)).collect();
    let planted = latency(&slow);
    latencies.push(planted);
    let over = latencies.iter().filter(|&&l| l >= threshold).count() as u64;
    check(
        planted >= threshold && flight.dumps() == over,
        format!(
            "one dump per request at or over {threshold}us, the planted one among them \
             ({over} of 9, {} dump(s))",
            flight.dumps()
        ),
    );
    let dump_path = flight.last_dump();
    let header_ok = dump_path.as_ref().is_some_and(|p| {
        std::fs::read_to_string(p)
            .ok()
            .and_then(|text| serde_json::from_str(text.lines().next().unwrap_or("")).ok())
            .and_then(|h| h.get("xdp_flight_version").and_then(|v| v.as_u64()))
            == Some(FLIGHT_DUMP_VERSION)
    });
    check(header_ok, "the dump has a versioned header".to_string());
    let chrome_ok = dump_path.as_ref().is_some_and(|p| {
        p.file_stem()
            .map(|s| dir.0.join(format!("{}.trace.json", s.to_string_lossy())))
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
        flight.dumps() == over + 1,
        format!("error dump recorded (total {})", flight.dumps()),
    );
    t.note(&held);
    vec![t]
}
