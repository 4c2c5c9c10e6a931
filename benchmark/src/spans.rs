//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the crates is instrumented: a span is a pair of
//! clock reads in the benchmark's own code.

use serde_json::{Map, Value as Json};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it stays zero-length until [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    pub fn to_json(&self) -> Json {
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut m = Map::new();
                m.insert("id".into(), Json::from(id));
                m.insert("name".into(), Json::from(s.name));
                m.insert("start_ns".into(), Json::from(s.start_ns));
                m.insert("end_ns".into(), Json::from(s.end_ns));
                m.insert(
                    "parent".into(),
                    s.parent.map(Json::from).unwrap_or(Json::Null),
                );
                m.insert("request".into(), Json::from(s.request));
                Json::Object(m)
            })
            .collect();
        Json::Array(rows)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("request", 0, 100, None),    // 0
            span("parse", 10, 30, Some(0)),   // 1
            span("run", 40, 90, Some(0)),     // 2
            span("match", 50, 60, Some(2)),   // 3
            span("match", 55, 70, Some(2)),   // 4: overlaps 3 on [55,60)
            span("gather", 95, 120, Some(0)), // 5: runs past its parent
        ];
        let own = self_times_ns(&spans);
        // request: 100 - (20 + 50 + 5 clipped to the parent).
        assert_eq!(own[0], 25);
        assert_eq!(own[1], 20);
        // run: 50 - union([50,60), [55,70)) = 50 - 20.
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 15);
        assert_eq!(own[5], 25);
    }

    #[test]
    fn recorder_nests_and_orders() {
        let mut r = Recorder::new();
        let root = r.open("request", None, 7);
        let v = r.time("stage", root, || 41 + 1);
        r.close(root);
        assert_eq!(v, 42);
        assert_eq!(r.spans[1].parent, Some(root));
        assert_eq!(r.spans[1].request, 7);
        assert!(r.spans[0].start_ns <= r.spans[1].start_ns);
        assert!(r.spans[1].end_ns <= r.spans[0].end_ns);
        assert_eq!(r.to_json().as_array().unwrap().len(), 2);
    }
}
