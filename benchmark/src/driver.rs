//! The closed-loop driver and the end-to-end metrics.
//!
//! `clients` threads each call `pool.run_one` and issue their next
//! request when the reply returns — the shape of `xdpd`'s only entry
//! today, where callers wait for their batch. After an untimed warm-up
//! the run is cut into equal slices by the clock. Between requests, every
//! [`CALIB_EVERY`], each client runs one quantum of the calibration kernel
//! ([`crate::calib`]), so every slice carries some forty readings of how
//! fast the host was while it was being measured.

use crate::calib;
use crate::procfs;
use crate::stats;
use crate::verify::{check, Ready};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const SLICES: usize = 10;

/// How often a client interrupts its requests for a calibration quantum
/// of about 2 ms: 2 % of its time.
const CALIB_EVERY: Duration = Duration::from_millis(100);

/// What one client recorded over the whole run; times are offsets from
/// the start of the loop.
#[derive(Default)]
struct ClientLog {
    /// Completion time, latency in ms, correct.
    requests: Vec<(Duration, f64, bool)>,
    /// Start time and duration of each calibration quantum.
    quanta: Vec<(Duration, Duration)>,
}

/// One timed slice over all clients.
#[derive(Clone, Debug)]
pub struct Slice {
    /// Host speed during the slice: mean quantum time over the reference
    /// time; above 1 means a slower host than the reference.
    pub slowdown: f64,
    /// Correct responses per second of serving time.
    pub ops_s: f64,
    pub cpu_ms_per_op: f64,
    /// Sorted latencies of the correct responses.
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
}

pub struct Timed {
    pub slices: Vec<Slice>,
    pub first_failures: Vec<String>,
}

/// Drive `ready.pool`: a warm-up of `warm`, then `SLICES` slices of
/// `slice` each.
pub fn closed_loop(
    ready: &Ready,
    clients: usize,
    seed: u64,
    warm: Duration,
    slice: Duration,
) -> Timed {
    let w = &ready.workload;
    // The mix's programs in an order fixed by the seed. Each client walks
    // the deck from its own offset.
    let deck = w.deck(1024, seed);
    let next_id = AtomicU64::new(0);
    let first_failures = Mutex::new(Vec::new());
    let total = warm + slice * SLICES as u32;
    let start = Instant::now();

    let (logs, cpu_marks) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (deck, next_id, first_failures) = (&deck, &next_id, &first_failures);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut at = c * deck.len() / clients;
                    // Clients calibrate out of step with each other.
                    let mut calib_due = CALIB_EVERY * c as u32 / clients as u32;
                    while start.elapsed() < total {
                        let now = start.elapsed();
                        if now >= calib_due {
                            let took = Duration::from_nanos(calib::quantum() as u64);
                            log.quanta.push((now, took));
                            calib_due = now + CALIB_EVERY;
                        }
                        let k = deck[at % deck.len()];
                        at += 1;
                        let spec = w.request(k, next_id.fetch_add(1, Ordering::Relaxed));
                        let sent = Instant::now();
                        let outcome = ready.pool.run_one(&spec);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let exp = &ready.expected[k];
                        let ok = match check(outcome, &exp.names, exp.digest) {
                            Ok(_) => true,
                            Err(why) => {
                                let mut ff = first_failures.lock().expect("never poisoned");
                                if ff.len() < 5 {
                                    ff.push(format!("{}: {why}", w.progs[k].name));
                                }
                                false
                            }
                        };
                        log.requests.push((start.elapsed(), latency_ms, ok));
                    }
                    log
                })
            })
            .collect();

        // This thread only reads the process CPU clock at each boundary.
        let mut cpu_marks = Vec::with_capacity(SLICES + 1);
        for i in 0..=SLICES as u32 {
            std::thread::sleep((warm + slice * i).saturating_sub(start.elapsed()));
            cpu_marks.push(procfs::cpu_seconds());
        }
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect();
        (logs, cpu_marks)
    });

    let slices = (0..SLICES)
        .map(|i| {
            let (from, to) = (warm + slice * i as u32, warm + slice * (i as u32 + 1));
            let within = |t: Duration| t >= from && t < to;
            let quanta: Vec<f64> = logs
                .iter()
                .flat_map(|l| l.quanta.iter())
                .filter(|(t, _)| within(*t))
                .map(|(_, d)| d.as_secs_f64())
                .collect();
            let requests = || {
                logs.iter()
                    .flat_map(|l| l.requests.iter())
                    .filter(|r| within(r.0))
            };
            let mut latencies_ms: Vec<f64> = requests().filter(|r| r.2).map(|r| r.1).collect();
            stats::sort(&mut latencies_ms);
            let ops = latencies_ms.len() as f64;
            // Calibration is not serving: its time comes off both clocks.
            let calib_s: f64 = quanta.iter().sum();
            let serving_s = slice.as_secs_f64() - calib_s / clients as f64;
            let cpu_s = cpu_marks[i + 1] - cpu_marks[i] - calib_s;
            Slice {
                // A slice too short to hold a quantum is taken at face value.
                slowdown: if quanta.is_empty() {
                    1.0
                } else {
                    stats::mean(&quanta) * 1e9 / calib::REFERENCE_NS
                },
                ops_s: ops / serving_s,
                cpu_ms_per_op: cpu_s * 1e3 / ops.max(1.0),
                latencies_ms,
                failed: requests().filter(|r| !r.2).count() as u64,
            }
        })
        .collect();
    Timed {
        slices,
        first_failures: first_failures.into_inner().expect("never poisoned"),
    }
}

/// The timed slices reduced to the end-to-end figures.
///
/// Every timing is first brought to the reference machine's speed: a
/// slice's rate is multiplied by its slowdown, its times divided by it.
/// Then the rate, the CPU time per request and the median latency are
/// each the **median of the slice values** — one stall inside a single
/// long window moved the figure by more than any change worth measuring —
/// and the tail is the 99th percentile over all scaled samples of the
/// run, which every mix sizes for at least ten samples beyond it.
pub struct EndToEnd {
    pub sat_ops_s: f64,
    pub cpu_ms_per_op: f64,
    pub lat_p50_ms: f64,
    pub lat_p99_ms: f64,
    /// Timed requests, and the ones that failed or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// p40 and p60 within 20 % of p50 over the timed samples.
    pub unimodal: bool,
    /// Median slowdown of the slices, and the same four figures as the
    /// clock read them, unscaled.
    pub slowdown: f64,
    pub measured: [f64; 4],
}

pub fn reduce(slices: &[Slice]) -> EndToEnd {
    let served: Vec<&Slice> = slices
        .iter()
        .filter(|s| !s.latencies_ms.is_empty())
        .collect();
    let failed: u64 = slices.iter().map(|s| s.failed).sum();
    let samples: usize = served.iter().map(|s| s.latencies_ms.len()).sum();
    if served.is_empty() {
        // Nothing succeeded: there is no timing to report, only failures.
        return EndToEnd {
            sat_ops_s: 0.0,
            cpu_ms_per_op: 0.0,
            lat_p50_ms: 0.0,
            lat_p99_ms: 0.0,
            attempted: failed,
            failed,
            unimodal: false,
            slowdown: 1.0,
            measured: [0.0; 4],
        };
    }
    let median_of =
        |f: &dyn Fn(&Slice) -> f64| stats::median(&served.iter().map(|s| f(s)).collect::<Vec<_>>());
    let p50 = |s: &Slice| stats::percentile(&s.latencies_ms, 0.5);
    let pooled = |scale: &dyn Fn(&Slice) -> f64| {
        let mut all: Vec<f64> = served
            .iter()
            .flat_map(|s| s.latencies_ms.iter().map(move |l| l / scale(s)))
            .collect();
        stats::sort(&mut all);
        all
    };
    let raw = pooled(&|_| 1.0);
    EndToEnd {
        sat_ops_s: median_of(&|s| s.ops_s * s.slowdown),
        cpu_ms_per_op: median_of(&|s| s.cpu_ms_per_op / s.slowdown),
        lat_p50_ms: median_of(&|s| p50(s) / s.slowdown),
        lat_p99_ms: stats::percentile(&pooled(&|s| s.slowdown), 0.99),
        attempted: samples as u64 + failed,
        failed,
        unimodal: stats::middle_is_unimodal(&raw, 0.2),
        slowdown: median_of(&|s| s.slowdown),
        measured: [
            median_of(&|s| s.ops_s),
            median_of(&|s| s.cpu_ms_per_op),
            median_of(&p50),
            stats::percentile(&raw, 0.99),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(slowdown: f64, base_ms: f64) -> Slice {
        // 200 requests from base to 3x base, all stretched by the host.
        let latencies_ms: Vec<f64> = (0..200)
            .map(|i| base_ms * (1.0 + i as f64 / 100.0) * slowdown)
            .collect();
        Slice {
            slowdown,
            ops_s: 1000.0 / slowdown,
            cpu_ms_per_op: 2.0 * slowdown,
            latencies_ms,
            failed: 0,
        }
    }

    #[test]
    fn a_slower_host_reduces_to_the_same_figures() {
        let quiet: Vec<Slice> = (0..5).map(|_| slice(1.0, 1.0)).collect();
        let noisy: Vec<Slice> = [1.0, 1.3, 2.0, 1.1, 1.6]
            .iter()
            .map(|&s| slice(s, 1.0))
            .collect();
        let (a, b) = (reduce(&quiet), reduce(&noisy));
        for (x, y) in [
            (a.sat_ops_s, b.sat_ops_s),
            (a.cpu_ms_per_op, b.cpu_ms_per_op),
            (a.lat_p50_ms, b.lat_p50_ms),
            (a.lat_p99_ms, b.lat_p99_ms),
        ] {
            assert!((x - y).abs() < 1e-9 * x, "{x} vs {y}");
        }
        assert_eq!(a.sat_ops_s, 1000.0);
        assert_eq!(a.cpu_ms_per_op, 2.0);
        // What the clock read is kept beside it, and does differ.
        assert_eq!(b.slowdown, 1.3);
        assert!(b.measured[0] < a.measured[0]);
        assert_eq!((a.attempted, a.failed), (1000, 0));
    }

    #[test]
    fn one_stalled_slice_does_not_move_the_medians() {
        let mut slices: Vec<Slice> = (0..5).map(|_| slice(1.0, 1.0)).collect();
        // A stall the calibration did not see.
        slices[2].ops_s = 100.0;
        slices[2].cpu_ms_per_op = 9.0;
        let e = reduce(&slices);
        assert_eq!(e.sat_ops_s, 1000.0);
        assert_eq!(e.cpu_ms_per_op, 2.0);
    }

    #[test]
    fn failures_are_counted_and_nothing_else_is_invented() {
        let mut s = slice(1.0, 1.0);
        s.latencies_ms.clear();
        s.failed = 7;
        let e = reduce(&[s]);
        assert_eq!((e.attempted, e.failed, e.sat_ops_s), (7, 7, 0.0));
        assert!(!e.unimodal);
    }
}
