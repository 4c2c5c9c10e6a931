//! Open-loop load: requests arrive on a seeded Poisson schedule whether
//! or not earlier ones have completed, so queueing shows up as latency.
//!
//! One generator thread feeds a bounded queue that `workers` threads
//! drain through `pool.run_one`. Latency is timed from the instant a
//! request was *due*, which charges a stall to every request it delays,
//! and the generator's own lateness is reported beside it. These rows are
//! informational: at a fixed rate the same schedule gave p50 3.7, 6.6 and
//! 9.2 ms on three runs of one binary on the two-core machine this was
//! written on, which is too loose to gate a change on.

use crate::stats;
use crate::verify::{check, Ready};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const QUEUE_BOUND: usize = 256;

pub struct OpenLoop {
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Longest delay between a request's due instant and the generator
    /// getting it into the queue.
    pub late_max_ms: f64,
    pub depth_max: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// `id_base` starts this run's request ids; the caller keeps the ranges of
/// different runs apart, so a cold source is new in every one of them.
pub fn run(
    ready: &Ready,
    rate: f64,
    horizon_s: f64,
    workers: usize,
    seed: u64,
    id_base: u64,
) -> OpenLoop {
    let w = &ready.workload;
    let due = stats::poisson_schedule(rate, horizon_s, seed);
    let deck = w.deck(due.len(), seed);
    let (tx, rx) = sync_channel::<(usize, u64, Duration)>(QUEUE_BOUND);
    let rx = Mutex::new(rx);
    let depth = AtomicUsize::new(0);
    let start = Instant::now();

    let (late_max, depth_max, per_worker) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (rx, depth) = (&rx, &depth);
                scope.spawn(move || {
                    let mut latencies_ms = Vec::new();
                    let mut failed = 0u64;
                    loop {
                        // Hold the lock only to take one request.
                        let next = rx.lock().expect("no worker panics holding it").recv();
                        let Ok((k, id, due)) = next else { break };
                        depth.fetch_sub(1, Ordering::Relaxed);
                        let outcome = ready.pool.run_one(&w.request(k, id));
                        let latency = start.elapsed().saturating_sub(due);
                        let exp = &ready.expected[k];
                        match check(outcome, &exp.names, exp.digest) {
                            Ok(_) => latencies_ms.push(latency.as_secs_f64() * 1e3),
                            Err(_) => failed += 1,
                        }
                    }
                    (latencies_ms, failed)
                })
            })
            .collect();

        let (mut late_max, mut depth_max) = (Duration::ZERO, 0);
        for (i, &offset) in due.iter().enumerate() {
            let due = Duration::from_secs_f64(offset);
            std::thread::sleep(due.saturating_sub(start.elapsed()));
            depth_max = depth_max.max(depth.fetch_add(1, Ordering::Relaxed) + 1);
            tx.send((deck[i], id_base + i as u64, due))
                .expect("workers outlive the generator");
            late_max = late_max.max(start.elapsed().saturating_sub(due));
        }
        drop(tx);
        let per_worker: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread does not panic"))
            .collect();
        (late_max, depth_max, per_worker)
    });

    let failed: u64 = per_worker.iter().map(|(_, f)| f).sum();
    let mut lat: Vec<f64> = per_worker.into_iter().flat_map(|(l, _)| l).collect();
    stats::sort(&mut lat);
    let pct = |q| {
        if lat.is_empty() {
            0.0
        } else {
            stats::percentile(&lat, q)
        }
    };
    OpenLoop {
        p50_ms: pct(0.5),
        p99_ms: pct(0.99),
        late_max_ms: late_max.as_secs_f64() * 1e3,
        depth_max,
        attempted: due.len() as u64,
        failed,
    }
}
