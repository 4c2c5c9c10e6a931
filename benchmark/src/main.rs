//! `xdp-benchmark` — the repo's benchmark.
//!
//! ```text
//! xdp-benchmark run --workload <name|all> --seed <u64> [--seconds <n>]
//!                   [--trace <0|1>] [--smoke] [--golden <file>]
//! xdp-benchmark golden          # print reference digests for golden.json
//! ```
//!
//! One process measures one workload. It prints a table for people and,
//! as the last line of standard output, one JSON object for the driver:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--workload all` runs each workload in a process of its
//! own, so that peak memory is per workload.

mod calib;
mod driver;
mod layers;
mod openloop;
mod prims;
mod procfs;
mod spans;
mod staged;
mod stats;
mod verify;
mod workloads;

use serde_json::{Map, Value as Json};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Complete set-ups per run: at least `SETUP_REPS_MIN`, then more while
/// they are cheap. `setup_s` is their median.
const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Length of the timed part, `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The end-to-end metrics, in the order of `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sat_ops_s", "req/s"),
    ("cpu_ms_per_op", "ms"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    golden: Option<String>,
}

const USAGE: &str = "usage: xdp-benchmark run --workload <name|all> --seed <u64> \
    [--seconds <n>] [--trace <0|1>] [--smoke] [--golden <file>]\n       xdp-benchmark golden";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        golden: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--golden" => args.golden = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload takes one of: all {}",
            workloads::WORKLOADS.join(" ")
        ));
    }
    if args.smoke {
        args.seconds = 5.0;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("golden") if argv.len() == 1 => verify::compute_golden().map(|g| {
            print!("{}", verify::render_golden(&g));
            true
        }),
        Some("run") => parse_args(&argv[1..])
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| {
                if args.workload == "all" {
                    run_all(&argv[1..])
                } else {
                    run_one_workload(&args)
                }
            }),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xdp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Re-run this executable once per workload with the same options.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_ok = true;
    for name in workloads::WORKLOADS {
        let mut child_args = vec!["run".to_string()];
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            child_args.push(a.clone());
            if a == "--workload" {
                it.next();
                child_args.push(name.to_string());
            }
        }
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn metric(value: f64, unit: &str) -> Json {
    let mut m = Map::new();
    m.insert("value".into(), Json::from(value));
    m.insert("unit".into(), Json::from(unit));
    Json::Object(m)
}

/// The driver's result line.
fn result_line(attempted: u64, failed: u64, metrics: Map<String, Json>) -> String {
    let mut m = Map::new();
    m.insert("correct".into(), Json::from(failed == 0));
    m.insert("attempted".into(), Json::from(attempted));
    m.insert("failed".into(), Json::from(failed));
    m.insert("metrics".into(), Json::Object(metrics));
    Json::Object(m).to_string()
}

fn run_one_workload(args: &Args) -> Result<bool, String> {
    let golden_text = match &args.golden {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => verify::GOLDEN_TEXT.to_string(),
    };
    let golden = verify::parse_golden(&golden_text)?;
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());

    let started = Instant::now();
    let mut setup_times = Vec::new();
    let ready = loop {
        let t = Instant::now();
        let ready = verify::set_up(&args.workload, args.seed, clients, &golden)?;
        setup_times.push(t.elapsed().as_secs_f64());
        let n = setup_times.len();
        let cheap = started.elapsed() < SETUP_BUDGET && n < SETUP_REPS_MAX;
        if args.smoke || (n >= SETUP_REPS_MIN && !cheap) {
            break ready;
        }
    };
    let setup_s = stats::median(&setup_times);
    println!(
        "workload {}  seed {}  clients {} (closed loop)  distinct programs {}  machine {:?}",
        args.workload,
        args.seed,
        clients,
        ready.workload.progs.len(),
        ready.workload.machine,
    );
    for f in &ready.failures {
        println!("  verification FAILED: {f}");
    }

    if args.trace {
        let report = layers::traced_run(&ready, args.seed, args.seconds, args.smoke, clients)?;
        let failed = ready.failures.len() as u64 + report.failed;
        println!(
            "{}",
            result_line(ready.checks + report.attempted, failed, report.metrics)
        );
        return Ok(failed == 0);
    }

    let slice = Duration::from_secs_f64(args.seconds / driver::SLICES as f64);
    let warm = if args.smoke {
        Duration::from_millis(250)
    } else {
        Duration::from_secs(2)
    };
    let timed = driver::closed_loop(&ready, clients, args.seed, warm, slice);
    let e2e = driver::reduce(&timed.slices);
    let attempted = ready.checks + e2e.attempted;
    let failed = ready.failures.len() as u64 + e2e.failed;
    for f in &timed.first_failures {
        println!("  request FAILED: {f}");
    }
    if !e2e.unimodal {
        eprintln!(
            "xdp-benchmark: warning: {}: p40/p60 not within 20% of p50; \
             the median may sit between two modes",
            args.workload
        );
    }

    let peak = procfs::peak_rss_mib();
    let values = [
        setup_s,
        e2e.sat_ops_s,
        e2e.cpu_ms_per_op,
        e2e.lat_p50_ms,
        e2e.lat_p99_ms,
        peak,
    ];
    let [ops, cpu, p50, p99] = e2e.measured;
    let measured = [setup_s, ops, cpu, p50, p99, peak];
    println!(
        "  {:<16} {:>14} {:>14}  unit   (host slowdown {:.3})",
        "end-to-end", "at ref. speed", "as measured", e2e.slowdown
    );
    for ((name, unit), (value, raw)) in END_TO_END.iter().zip(values.iter().zip(measured)) {
        println!("  {name:<16} {value:>14.4} {raw:>14.4}  {unit}");
    }
    println!(
        "  timed samples {}  failed {}  fail_share {:.6}  unimodal {}",
        e2e.attempted,
        failed,
        failed as f64 / attempted as f64,
        e2e.unimodal,
    );
    println!(
        "  modelled machine (simulator, exact): virtual_us {:.3}  wire_msgs {}",
        ready.virtual_us, ready.wire_msgs
    );
    let mut map = Map::new();
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        map.insert(name.to_string(), metric(value, unit));
    }
    println!("{}", result_line(attempted, failed, map));
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the code is what runs.
    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let doc = serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names_and_units = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("a list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect("a string");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            names_and_units("end_to_end"),
            owned(
                END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect()
            )
        );
        assert_eq!(
            names_and_units("per_layer"),
            owned(layers::per_layer_metrics())
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("a list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("a name"))
            .collect();
        assert_eq!(workloads, workloads::WORKLOADS);
        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload serve-cold --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-cold", 7, 10.0, true)
        );
        assert!(parse("--workload all --seed 1 --smoke").unwrap().smoke);
        for bad in [
            "--workload nope",
            "--workload all --seed -1",
            "--workload all --seconds 0",
            "--workload all --trace yes",
            "--workload all --frobnicate",
            "--seed 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
