//! Trace exporters: Chrome trace-event / Perfetto JSON and compact JSONL.
//!
//! The Chrome format is the JSON object form understood by
//! `chrome://tracing`, Perfetto, and Speedscope: a top-level
//! `{"traceEvents": [...]}` whose entries are complete (`"ph":"X"`) or
//! instant (`"ph":"i"`) events with microsecond timestamps. Processors map
//! to *threads* of a synthetic "processors" process so they stack as
//! adjacent tracks; wire transits render on a second "network" process,
//! one track per receiving processor.

use crate::event::{Trace, TraceEvent, TraceKind};
use serde_json::{Map, Value};

/// Chrome/Perfetto pid for processor-local spans and instants.
const PROC_PROCESS: u64 = 0;
/// Chrome/Perfetto pid for wire-transit slices.
const NET_PROCESS: u64 = 1;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

fn meta(name: &str, process: u64, tid: Option<u64>, label: String) -> Value {
    let mut pairs = vec![
        ("name", Value::from(name)),
        ("ph", Value::from("M")),
        ("pid", Value::from(process)),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid", Value::from(tid)));
    }
    pairs.push(("args", obj(vec![("name", Value::from(label))])));
    obj(pairs)
}

fn args_of(t: &Trace, e: &TraceEvent) -> Value {
    let mut m = Map::new();
    if let Some(sid) = e.sid {
        m.insert("sid".into(), Value::from(sid as u64));
    }
    if let Some(v) = e.var {
        m.insert("var".into(), Value::from(t.var_name(v).to_string()));
    }
    if let Some(s) = e.sec {
        m.insert("sec".into(), Value::from(t.section(s).to_string()));
    }
    if e.bytes > 0 {
        m.insert("bytes".into(), Value::from(e.bytes));
    }
    if let Some(src) = e.src {
        m.insert("src".into(), Value::from(src as u64));
    }
    if let Some(id) = e.msg_id {
        m.insert("msg_id".into(), Value::from(id));
    }
    if let Some(d) = e.detail {
        m.insert("detail".into(), Value::from(t.label(d).to_string()));
    }
    Value::Object(m)
}

fn display_name(t: &Trace, e: &TraceEvent) -> String {
    match (e.var.map(|v| t.var_name(v)), e.sec.map(|s| t.section(s))) {
        (Some(v), Some(s)) => format!("{} {v}{s}", e.kind.name()),
        (Some(v), None) => format!("{} {v}", e.kind.name()),
        _ => match e.detail.map(|d| t.label(d)) {
            Some(d) => format!("{} {d}", e.kind.name()),
            None => e.kind.name().to_string(),
        },
    }
}

impl Trace {
    /// Serialize as Chrome trace-event JSON (object form, `ph: X`/`i`/`M`).
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<Value> = Vec::with_capacity(self.events.len() + 2 * self.nprocs + 2);
        events.push(meta(
            "process_name",
            PROC_PROCESS,
            None,
            "processors".into(),
        ));
        events.push(meta("process_name", NET_PROCESS, None, "network".into()));
        for pid in 0..self.nprocs {
            events.push(meta(
                "thread_name",
                PROC_PROCESS,
                Some(pid as u64),
                format!("p{pid}"),
            ));
            events.push(meta(
                "thread_name",
                NET_PROCESS,
                Some(pid as u64),
                format!("wire -> p{pid}"),
            ));
        }
        for e in &self.events {
            let (process, ph) = match e.kind {
                TraceKind::WireTransit => (NET_PROCESS, "X"),
                TraceKind::SectionState
                | TraceKind::SymtabQuery
                | TraceKind::KernelInvoke
                | TraceKind::CollectiveRound
                | TraceKind::Retry
                | TraceKind::FaultDrop
                | TraceKind::DupSuppressed => (PROC_PROCESS, "i"),
                _ => (PROC_PROCESS, "X"),
            };
            let mut ev = Map::new();
            ev.insert("name".into(), Value::from(display_name(self, e)));
            ev.insert("cat".into(), Value::from(e.kind.name()));
            ev.insert("ph".into(), Value::from(ph));
            ev.insert("ts".into(), Value::from(e.t0));
            ev.insert("pid".into(), Value::from(process));
            ev.insert("tid".into(), Value::from(e.pid as u64));
            if ph == "X" {
                ev.insert("dur".into(), Value::from(e.dur().max(0.0)));
            } else {
                // Thread-scoped instant.
                ev.insert("s".into(), Value::from("t"));
            }
            ev.insert("args".into(), args_of(self, e));
            events.push(Value::Object(ev));
        }
        obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::from("ms")),
            (
                "otherData",
                obj(vec![
                    ("producer", Value::from("xdp-trace")),
                    ("nprocs", Value::from(self.nprocs)),
                    ("end", Value::from(self.end)),
                ]),
            ),
        ])
        .to_string()
    }

    /// Serialize as JSONL: one header line, then one line per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &obj(vec![
                ("xdp_trace_version", Value::from(1u64)),
                ("nprocs", Value::from(self.nprocs)),
                ("end", Value::from(self.end)),
            ])
            .to_string(),
        );
        out.push('\n');
        for e in &self.events {
            let mut m = Map::new();
            m.insert("kind".into(), Value::from(e.kind.name()));
            m.insert("pid".into(), Value::from(e.pid as u64));
            m.insert("t0".into(), Value::from(e.t0));
            m.insert("t1".into(), Value::from(e.t1));
            if let Value::Object(args) = args_of(self, e) {
                for (k, v) in args.iter() {
                    m.insert(k.clone(), v.clone());
                }
            }
            out.push_str(&Value::Object(m).to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LabelId, VarName, WaitCause};
    use xdp_ir::{Section, Triplet};

    fn sample() -> Trace {
        let mut t = Trace::with_vars(2, ["A"].map(std::sync::Arc::<str>::from).into());
        t.end = 10.0;
        let sec = t.push_section(Section::new(vec![Triplet::range(1, 4)]));
        t.push(TraceEvent {
            sid: Some(1),
            ..TraceEvent::span(TraceKind::Compute, 0, 0.0, 4.0)
        });
        t.push(TraceEvent {
            var: Some(VarName(0)),
            sec: Some(sec),
            bytes: 32,
            sid: Some(2),
            ..TraceEvent::span(TraceKind::SendInit, 0, 4.0, 5.0)
        });
        t.push(TraceEvent {
            cause: WaitCause::Message(9),
            ..TraceEvent::span(TraceKind::Wait, 1, 0.0, 9.0)
        });
        t.push(TraceEvent {
            msg_id: Some(9),
            src: Some(0),
            var: Some(VarName(0)),
            bytes: 32,
            ..TraceEvent::span(TraceKind::WireTransit, 1, 5.0, 9.0)
        });
        t.push(TraceEvent {
            detail: Some(LabelId::ACCESSIBLE),
            ..TraceEvent::instant(TraceKind::SectionState, 1, 9.0)
        });
        t
    }

    /// The export reparses as a valid trace-event document: a top-level
    /// object with a `traceEvents` array whose members all carry
    /// name/ph/pid, and whose complete events have `ts` and `dur >= 0`.
    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let s = sample().to_chrome_json();
        let doc = serde_json::from_str(&s).expect("exporter emits parseable JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(events.len() >= 5 + 2 + 4); // data + process + thread metadata
        for ev in events {
            let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
            assert!(ev.get("name").is_some(), "every event is named");
            assert!(ev.get("pid").is_some());
            match ph {
                "X" => {
                    assert!(ev.get("ts").is_some());
                    let dur = ev.get("dur").and_then(|v| v.as_f64()).expect("dur");
                    assert!(dur >= 0.0);
                }
                "i" => assert_eq!(ev.get("s").and_then(|v| v.as_str()), Some("t")),
                "M" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        // The wire slice landed on the network process.
        let wire = events
            .iter()
            .find(|e| e.get("cat").and_then(|v| v.as_str()) == Some("wire-transit"))
            .expect("wire event exported");
        assert_eq!(wire.get("pid").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            wire.get("args")
                .and_then(|a| a.get("src"))
                .and_then(|v| v.as_u64()),
            Some(0)
        );
    }

    #[test]
    fn jsonl_has_header_plus_one_line_per_event() {
        let t = sample();
        let s = t.to_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 1 + t.events.len());
        let header = serde_json::from_str(lines[0]).expect("header parses");
        assert_eq!(
            header.get("xdp_trace_version").and_then(|v| v.as_u64()),
            Some(1)
        );
        for line in &lines[1..] {
            let ev = serde_json::from_str(line).expect("event line parses");
            assert!(ev.get("kind").and_then(|v| v.as_str()).is_some());
        }
    }
}
