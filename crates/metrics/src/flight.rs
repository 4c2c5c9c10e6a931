//! The flight recorder: post-hoc diagnosis without always-on trace cost.
//!
//! Serving with full trace *export* permanently on is too expensive, but a
//! slow or failed request is only diagnosable if the evidence was already
//! being collected when it happened. The recorder keeps a bounded
//! per-worker ring of the most recent requests (metadata plus the run's
//! recorded [`Trace`]); when a request errors or exceeds the armed latency
//! threshold, the whole ring is dumped as a JSONL artifact and the
//! triggering run's trace as a replayable Chrome/Perfetto JSON file. The
//! cost of a dump is paid only when something is already wrong.
//!
//! The threshold is an atomic, so a pool can pre-warm its cache with the
//! recorder disarmed and arm it (`set_slow_us`) before taking traffic.

use serde_json::{Map, Value as Json};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xdp_trace::Trace;

/// Version stamp of the dump header line.
pub const FLIGHT_DUMP_VERSION: u64 = 1;

/// Recorder shape: ring capacity, trigger threshold, output location.
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Ring entries kept per worker.
    pub capacity: usize,
    /// Latency threshold in microseconds; `None` = slow-trigger disarmed
    /// (errors still trigger).
    pub slow_us: Option<u64>,
    /// Directory dumps are written into (created on first dump).
    pub dir: PathBuf,
    /// Dump file prefix.
    pub prefix: String,
    /// Hard cap on dump files per recorder lifetime; triggers beyond it
    /// are counted as suppressed instead of written.
    pub max_dumps: u64,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            capacity: 16,
            slow_us: None,
            dir: PathBuf::from("flight"),
            prefix: "flight".to_string(),
            max_dumps: 32,
        }
    }
}

impl FlightConfig {
    /// Config writing into `dir` with defaults otherwise.
    pub fn new(dir: impl Into<PathBuf>) -> FlightConfig {
        FlightConfig {
            dir: dir.into(),
            ..FlightConfig::default()
        }
    }

    /// Builder shorthand: arm the slow trigger at `us` microseconds.
    pub fn slow_at_us(mut self, us: u64) -> FlightConfig {
        self.slow_us = Some(us);
        self
    }
}

/// One served request as the recorder sees it.
#[derive(Clone, Debug)]
pub struct FlightRecord {
    /// Worker (ring) the request ran on.
    pub worker: usize,
    /// Content hash of the request spec.
    pub key: u64,
    /// Latency decomposition, microseconds.
    pub queue_us: u64,
    pub compile_us: u64,
    pub execute_us: u64,
    pub latency_us: u64,
    /// `Some(message)` when the request failed.
    pub error: Option<String>,
    /// The run's recorded trace (empty when the request never executed).
    pub trace: Trace,
}

struct Inner {
    /// Per-worker rings of `(observation id, record)`.
    rings: BTreeMap<usize, VecDeque<(u64, FlightRecord)>>,
    next_id: u64,
    seq: u64,
    dumps: u64,
    suppressed: u64,
    last: Option<PathBuf>,
}

/// The recorder itself. One per serving pool; `observe` is called once
/// per completed (or failed) request.
pub struct FlightRecorder {
    capacity: usize,
    dir: PathBuf,
    prefix: String,
    max_dumps: u64,
    /// 0 = disarmed.
    slow_us: AtomicU64,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    pub fn new(cfg: FlightConfig) -> FlightRecorder {
        FlightRecorder {
            capacity: cfg.capacity.max(1),
            dir: cfg.dir,
            prefix: cfg.prefix,
            max_dumps: cfg.max_dumps,
            slow_us: AtomicU64::new(cfg.slow_us.unwrap_or(0)),
            inner: Mutex::new(Inner {
                rings: BTreeMap::new(),
                next_id: 0,
                seq: 0,
                dumps: 0,
                suppressed: 0,
                last: None,
            }),
        }
    }

    /// Arm (`Some(us)`) or disarm (`None`) the slow trigger. A threshold
    /// of 0 µs is treated as armed-at-zero: every request triggers.
    pub fn set_slow_us(&self, us: Option<u64>) {
        // Encode "armed at 0" as 1 so the disarmed sentinel stays 0.
        self.slow_us
            .store(us.map(|u| u.max(1)).unwrap_or(0), Ordering::Relaxed);
    }

    /// The armed threshold, if any.
    pub fn slow_us(&self) -> Option<u64> {
        match self.slow_us.load(Ordering::Relaxed) {
            0 => None,
            us => Some(us),
        }
    }

    /// Dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.inner.lock().unwrap().dumps
    }

    /// Triggers suppressed by the `max_dumps` cap.
    pub fn suppressed(&self) -> u64 {
        self.inner.lock().unwrap().suppressed
    }

    /// Path of the most recent dump.
    pub fn last_dump(&self) -> Option<PathBuf> {
        self.inner.lock().unwrap().last.clone()
    }

    /// Record one request. Returns the dump path when this request
    /// triggered one (error, or armed threshold exceeded).
    pub fn observe(&self, rec: FlightRecord) -> Result<Option<PathBuf>, String> {
        let armed = self.slow_us.load(Ordering::Relaxed);
        let trigger = rec.error.is_some() || (armed > 0 && rec.latency_us >= armed);
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        inner.next_id += 1;
        let worker = rec.worker;
        let ring = inner.rings.entry(worker).or_default();
        ring.push_back((id, rec));
        while ring.len() > self.capacity {
            ring.pop_front();
        }
        if !trigger {
            return Ok(None);
        }
        if inner.dumps >= self.max_dumps {
            inner.suppressed += 1;
            return Ok(None);
        }
        let path = self.dump(&mut inner, id)?;
        Ok(Some(path))
    }

    /// Write the ring out: `<prefix>-<seq>.jsonl` (header + one line per
    /// ring entry + the triggering run's trace events) and
    /// `<prefix>-<seq>.trace.json` (Chrome/Perfetto, replayable).
    /// `trigger_id` names the observation that tripped the dump.
    fn dump(&self, inner: &mut Inner, trigger_id: u64) -> Result<PathBuf, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        inner.seq += 1;
        let stem = format!("{}-{:04}", self.prefix, inner.seq);
        let path = self.dir.join(format!("{stem}.jsonl"));

        let trigger = inner
            .rings
            .values()
            .flat_map(|r| r.iter())
            .find(|(id, _)| *id == trigger_id)
            .map(|(_, r)| r.clone());
        let entries: usize = inner.rings.values().map(|r| r.len()).sum();

        let mut out = String::new();
        let mut header = Map::new();
        header.insert("xdp_flight_version".into(), Json::from(FLIGHT_DUMP_VERSION));
        header.insert("entries".into(), Json::from(entries));
        header.insert("unix_ms".into(), Json::from(unix_ms()));
        if let Some(t) = &trigger {
            header.insert("trigger".into(), record_json(t, true));
        }
        if let Some(us) = self.slow_us() {
            header.insert("slow_us".into(), Json::from(us));
        }
        out.push_str(&Json::Object(header).to_string());
        out.push('\n');
        for ring in inner.rings.values() {
            for (id, rec) in ring {
                out.push_str(&record_json(rec, *id == trigger_id).to_string());
                out.push('\n');
            }
        }
        if let Some(t) = &trigger {
            // The triggering run's events, replayable line by line.
            out.push_str(&t.trace.to_jsonl());
        }
        std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))?;

        if let Some(t) = &trigger {
            let chrome = self.dir.join(format!("{stem}.trace.json"));
            std::fs::write(&chrome, t.trace.to_chrome_json())
                .map_err(|e| format!("cannot write {}: {e}", chrome.display()))?;
        }
        inner.dumps += 1;
        inner.last = Some(path.clone());
        Ok(path)
    }

    /// Where dumps land.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn record_json(rec: &FlightRecord, is_trigger: bool) -> Json {
    let mut m = Map::new();
    m.insert("worker".into(), Json::from(rec.worker));
    m.insert("key".into(), Json::from(format!("{:016x}", rec.key)));
    m.insert("queue_us".into(), Json::from(rec.queue_us));
    m.insert("compile_us".into(), Json::from(rec.compile_us));
    m.insert("execute_us".into(), Json::from(rec.execute_us));
    m.insert("latency_us".into(), Json::from(rec.latency_us));
    if let Some(e) = &rec.error {
        m.insert("error".into(), Json::from(e.clone()));
    }
    m.insert("trace_events".into(), Json::from(rec.trace.events.len()));
    if is_trigger {
        m.insert("trigger".into(), Json::from(true));
    }
    Json::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_trace::{TraceEvent, TraceKind};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xdp-flight-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rec(worker: usize, latency_us: u64, error: Option<&str>) -> FlightRecord {
        let mut trace = Trace::new(2);
        trace.end = 10.0;
        trace.push(TraceEvent::span(TraceKind::Compute, 0, 0.0, 10.0));
        FlightRecord {
            worker,
            key: 0xdead_beef,
            queue_us: 1,
            compile_us: 2,
            execute_us: latency_us.saturating_sub(3),
            latency_us,
            error: error.map(String::from),
            trace,
        }
    }

    #[test]
    fn slow_request_dumps_exactly_once_and_artifacts_parse() {
        let dir = tmp("slow");
        let fr = FlightRecorder::new(FlightConfig::new(&dir).slow_at_us(1000));
        assert!(
            fr.observe(rec(0, 10, None)).unwrap().is_none(),
            "fast: no dump"
        );
        assert!(fr.observe(rec(1, 50, None)).unwrap().is_none());
        let path = fr.observe(rec(0, 5000, None)).unwrap().expect("slow dumps");
        assert_eq!(fr.dumps(), 1);
        assert_eq!(fr.last_dump(), Some(path.clone()));

        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        let header = serde_json::from_str(lines[0]).expect("header parses");
        assert_eq!(
            header.get("xdp_flight_version").and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(header.get("entries").and_then(|v| v.as_u64()), Some(3));
        assert!(header.get("trigger").is_some());
        for line in &lines[1..] {
            serde_json::from_str(line).expect("every line parses");
        }
        // Exactly one ring entry is marked as the trigger.
        let triggers = lines[1..]
            .iter()
            .filter(|l| {
                serde_json::from_str(l)
                    .ok()
                    .and_then(|v| v.get("trigger").and_then(|t| t.as_bool()))
                    == Some(true)
            })
            .count();
        assert_eq!(triggers, 1, "{body}");

        let chrome = dir.join(format!(
            "{}.trace.json",
            path.file_stem().unwrap().to_string_lossy()
        ));
        let doc = std::fs::read_to_string(&chrome).expect("chrome twin exists");
        let parsed = serde_json::from_str(&doc).expect("chrome trace parses");
        assert!(parsed.get("traceEvents").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_trigger_even_when_disarmed() {
        let dir = tmp("err");
        let fr = FlightRecorder::new(FlightConfig::new(&dir));
        assert!(fr.slow_us().is_none());
        assert!(fr.observe(rec(0, 999_999, None)).unwrap().is_none());
        assert!(fr
            .observe(rec(0, 10, Some("compile: boom")))
            .unwrap()
            .is_some());
        assert_eq!(fr.dumps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_is_bounded_per_worker() {
        let dir = tmp("ring");
        let fr = FlightRecorder::new(FlightConfig {
            capacity: 4,
            ..FlightConfig::new(&dir)
        });
        for i in 0..20 {
            fr.observe(rec(i % 2, 10 + i as u64, None)).unwrap();
        }
        // Trip a dump and count its entries: 2 workers x 4 capacity.
        let path = fr
            .observe(rec(0, 10, Some("x")))
            .unwrap()
            .expect("error dumps");
        let body = std::fs::read_to_string(&path).unwrap();
        let header = serde_json::from_str(body.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("entries").and_then(|v| v.as_u64()), Some(8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_dumps_caps_disk_and_counts_suppressions() {
        let dir = tmp("cap");
        let fr = FlightRecorder::new(FlightConfig {
            max_dumps: 2,
            ..FlightConfig::new(&dir).slow_at_us(1)
        });
        for _ in 0..5 {
            fr.observe(rec(0, 100, None)).unwrap();
        }
        assert_eq!(fr.dumps(), 2);
        assert_eq!(fr.suppressed(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rearming_changes_the_threshold() {
        let dir = tmp("arm");
        let fr = FlightRecorder::new(FlightConfig::new(&dir));
        assert!(
            fr.observe(rec(0, 5000, None)).unwrap().is_none(),
            "disarmed"
        );
        fr.set_slow_us(Some(1000));
        assert!(fr.observe(rec(0, 5000, None)).unwrap().is_some(), "armed");
        fr.set_slow_us(None);
        assert!(
            fr.observe(rec(0, 5000, None)).unwrap().is_none(),
            "disarmed again"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
