//! Critical-path analysis over the happens-before graph of a [`Trace`].
//!
//! The walk starts at the finish time of the last processor and moves
//! backward. At any cursor `(pid, t)` the span covering `t` on `pid`'s
//! local timeline decides the next move:
//!
//! * a compute / send-init / recv-post / recv-complete span is *on* the
//!   path — its duration is attributed to the **compute** bucket (tagged
//!   with the span's statement id) and the cursor moves to its start;
//! * a wait span caused by a message follows the matching wire-transit
//!   edge: the interval from the message's send time to the cursor is
//!   attributed to the **wire** bucket (tagged with the receiving
//!   statement and variable) and the cursor jumps to the *sender* at the
//!   send time — receiver-side work that overlapped the flight is
//!   correctly skipped as off-path;
//! * a wait span released by a barrier hops, at the same instant, to the
//!   processor that arrived last (the one whose non-wait span ends there);
//! * anything unattributable (gaps, missing edges) falls into the
//!   **wait** bucket.
//!
//! Every move strictly decreases the cursor time or switches processor at
//! a barrier instant (each barrier instant is visited at most once per
//! processor), so the walk terminates; the three buckets sum to exactly
//! the end-to-end time by construction.

use crate::event::{Trace, TraceEvent, TraceKind, VarName, WaitCause};
use std::collections::{HashMap, HashSet};

/// Which bucket a slice of the path fell into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathBucket {
    Compute,
    Wire,
    Wait,
}

/// Aggregated cost of one statement or variable along the path.
#[derive(Clone, Debug, Default)]
pub struct CostRow {
    pub key: String,
    pub compute: f64,
    pub wire: f64,
    pub wait: f64,
}

impl CostRow {
    pub fn total(&self) -> f64 {
        self.compute + self.wire + self.wait
    }
}

/// The result of [`Trace::critical_path`].
#[derive(Clone, Debug, Default)]
pub struct CriticalPathReport {
    /// End-to-end time the walk set out to explain.
    pub total: f64,
    pub compute: f64,
    pub wire: f64,
    pub wait: f64,
    /// Number of wire edges the path crossed (processor hops).
    pub hops: usize,
    /// Per-statement attribution, sorted by descending total.
    pub by_stmt: Vec<CostRow>,
    /// Per-variable attribution of movement time, sorted descending.
    pub by_var: Vec<CostRow>,
}

impl CriticalPathReport {
    /// Time the walk attributed; equals `total` up to rounding.
    pub fn attributed(&self) -> f64 {
        self.compute + self.wire + self.wait
    }

    fn pct(&self, x: f64) -> f64 {
        if self.total > 0.0 {
            100.0 * x / self.total
        } else {
            0.0
        }
    }

    /// Ranked "top movement costs" table, `top` rows per section.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: total {:.1}  =  compute {:.1} ({:.1}%) + wire {:.1} ({:.1}%) + wait {:.1} ({:.1}%)   [{} hops]\n",
            self.total,
            self.compute,
            self.pct(self.compute),
            self.wire,
            self.pct(self.wire),
            self.wait,
            self.pct(self.wait),
            self.hops,
        ));
        let table = |out: &mut String, title: &str, rows: &[CostRow]| {
            if rows.is_empty() {
                return;
            }
            out.push_str(&format!(
                "\n{title:<40} {:>10} {:>10} {:>10} {:>10} {:>7}\n",
                "total", "compute", "wire", "wait", "share"
            ));
            for r in rows.iter().take(top) {
                let mut key = r.key.clone();
                if key.len() > 40 {
                    key.truncate(37);
                    key.push_str("...");
                }
                out.push_str(&format!(
                    "{key:<40} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>6.1}%\n",
                    r.total(),
                    r.compute,
                    r.wire,
                    r.wait,
                    self.pct(r.total()),
                ));
            }
            if rows.len() > top {
                out.push_str(&format!("  ... and {} more\n", rows.len() - top));
            }
        };
        table(&mut out, "top costs by statement", &self.by_stmt);
        table(&mut out, "top movement costs by variable", &self.by_var);
        out
    }
}

/// Spans of one pid sorted by start time; the tiling the walk descends.
struct PidSpans<'a> {
    spans: Vec<&'a TraceEvent>,
}

impl<'a> PidSpans<'a> {
    /// Last span that covers (or ends at) time `t`.
    fn covering(&self, t: f64, eps: f64) -> Option<&'a TraceEvent> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.t0 <= t - eps && s.t1 >= t - eps)
            .copied()
    }
}

pub(crate) fn analyze(trace: &Trace, labels: &HashMap<u32, String>) -> CriticalPathReport {
    let mut per_pid: Vec<PidSpans> = (0..trace.nprocs)
        .map(|_| PidSpans { spans: Vec::new() })
        .collect();
    let mut wires: HashMap<u64, &TraceEvent> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            TraceKind::Compute
            | TraceKind::SendInit
            | TraceKind::RecvPost
            | TraceKind::RecvComplete
            | TraceKind::Wait
                if e.dur() > 0.0 =>
            {
                if let Some(p) = per_pid.get_mut(e.pid as usize) {
                    p.spans.push(e);
                }
            }
            TraceKind::WireTransit => {
                if let Some(id) = e.msg_id {
                    wires.insert(id, e);
                }
            }
            _ => {}
        }
    }
    for p in &mut per_pid {
        p.spans.sort_by(|a, b| a.t0.total_cmp(&b.t0));
    }

    let finish: Vec<f64> = per_pid
        .iter()
        .map(|p| p.spans.iter().fold(0.0f64, |m, s| m.max(s.t1)))
        .collect();
    let total = if trace.end > 0.0 {
        trace.end
    } else {
        finish.iter().fold(0.0f64, |m, &f| m.max(f))
    };
    let mut report = CriticalPathReport {
        total,
        ..CriticalPathReport::default()
    };
    if total <= 0.0 || per_pid.iter().all(|p| p.spans.is_empty()) {
        report.wait = total;
        return report;
    }

    let eps = 1e-9 * total.max(1.0);
    let mut pid = finish
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut t = total;
    let mut by_stmt: HashMap<Option<u32>, CostRow> = HashMap::new();
    let mut by_var: HashMap<VarName, CostRow> = HashMap::new();
    // Each barrier instant may be entered once per pid; a second visit
    // would mean a cycle of zero-time hops, so we bail to `wait` instead.
    let mut barrier_visits: HashSet<(usize, u64)> = HashSet::new();
    let max_iters = 10 * trace.events.len() + 100;

    let mut charge = |bucket: PathBucket,
                      amount: f64,
                      sid: Option<u32>,
                      var: Option<VarName>,
                      report: &mut CriticalPathReport| {
        if amount <= 0.0 {
            return;
        }
        let row = by_stmt.entry(sid).or_default();
        match bucket {
            PathBucket::Compute => {
                report.compute += amount;
                row.compute += amount;
            }
            PathBucket::Wire => {
                report.wire += amount;
                row.wire += amount;
            }
            PathBucket::Wait => {
                report.wait += amount;
                row.wait += amount;
            }
        }
        if let Some(v) = var {
            let vrow = by_var.entry(v).or_default();
            match bucket {
                PathBucket::Compute => vrow.compute += amount,
                PathBucket::Wire => vrow.wire += amount,
                PathBucket::Wait => vrow.wait += amount,
            }
        }
    };

    let mut iters = 0usize;
    while t > eps {
        iters += 1;
        if iters > max_iters {
            // Defensive: never loop forever on a malformed trace.
            charge(PathBucket::Wait, t, None, None, &mut report);
            t = 0.0;
            break;
        }
        let Some(span) = per_pid[pid].covering(t, eps) else {
            // Gap below every recorded span: leading idle time.
            charge(PathBucket::Wait, t, None, None, &mut report);
            t = 0.0;
            break;
        };
        match span.kind {
            TraceKind::Wait => {
                let wire = match span.cause {
                    WaitCause::Message(id) => wires.get(&id).copied(),
                    _ => None,
                };
                match span.cause {
                    WaitCause::Message(_) if wire.is_some() => {
                        let w = wire.unwrap();
                        let jump = w.t0.min(t).max(0.0);
                        charge(PathBucket::Wire, t - jump, w.sid, w.var, &mut report);
                        report.hops += 1;
                        pid = w.src.unwrap_or(span.pid) as usize;
                        t = jump;
                    }
                    WaitCause::Barrier => {
                        // Hop to the processor that arrived last: the one
                        // whose non-wait span ends at this instant.
                        let key = (pid, t.to_bits());
                        let holder = per_pid.iter().enumerate().find(|(q, p)| {
                            *q != pid
                                && !barrier_visits.contains(&(*q, t.to_bits()))
                                && p.spans
                                    .iter()
                                    .any(|s| s.kind != TraceKind::Wait && (s.t1 - t).abs() <= eps)
                        });
                        barrier_visits.insert(key);
                        if let Some((q, _)) = holder {
                            pid = q;
                        } else {
                            charge(PathBucket::Wait, t - span.t0, span.sid, None, &mut report);
                            t = span.t0;
                        }
                    }
                    _ => {
                        charge(
                            PathBucket::Wait,
                            t - span.t0,
                            span.sid,
                            span.var,
                            &mut report,
                        );
                        t = span.t0;
                    }
                }
            }
            _ => {
                charge(
                    PathBucket::Compute,
                    t - span.t0,
                    span.sid,
                    span.var,
                    &mut report,
                );
                t = span.t0;
            }
        }
    }
    // Sub-epsilon residue: fold into compute so buckets sum exactly.
    if t > 0.0 {
        report.compute += t;
    }

    let label_of = |sid: Option<u32>| match sid {
        Some(id) => labels
            .get(&id)
            .map(|l| format!("s{id}: {l}"))
            .unwrap_or_else(|| format!("s{id}")),
        None => "(runtime)".to_string(),
    };
    report.by_stmt = by_stmt
        .into_iter()
        .map(|(sid, mut row)| {
            row.key = label_of(sid);
            row
        })
        .collect();
    report
        .by_stmt
        .sort_by(|a, b| b.total().total_cmp(&a.total()).then(a.key.cmp(&b.key)));
    report.by_var = by_var
        .into_iter()
        .map(|(var, mut row)| {
            row.key = trace.var_name(var).to_string();
            row
        })
        .collect();
    report
        .by_var
        .sort_by(|a, b| b.total().total_cmp(&a.total()).then(a.key.cmp(&b.key)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use std::sync::Arc;

    fn labels() -> HashMap<u32, String> {
        HashMap::new()
    }

    /// p0 computes [0,4], sends; wire [4,10]; p1 waits [0,10] then
    /// computes [10,12]. Path: 2 compute (p1) + 6 wire + 4 compute (p0).
    #[test]
    fn two_proc_message_path() {
        let mut t = Trace::with_vars(2, [Arc::<str>::from("A")].into());
        t.end = 12.0;
        t.push(TraceEvent {
            sid: Some(1),
            ..TraceEvent::span(TraceKind::Compute, 0, 0.0, 4.0)
        });
        t.push(TraceEvent {
            cause: WaitCause::Message(7),
            ..TraceEvent::span(TraceKind::Wait, 1, 0.0, 10.0)
        });
        t.push(TraceEvent {
            msg_id: Some(7),
            src: Some(0),
            sid: Some(2),
            var: Some(VarName(0)),
            ..TraceEvent::span(TraceKind::WireTransit, 1, 4.0, 10.0)
        });
        t.push(TraceEvent {
            sid: Some(3),
            ..TraceEvent::span(TraceKind::Compute, 1, 10.0, 12.0)
        });
        let r = t.critical_path(&labels());
        assert!((r.attributed() - 12.0).abs() < 1e-9);
        assert!((r.compute - 6.0).abs() < 1e-9);
        assert!((r.wire - 6.0).abs() < 1e-9);
        assert_eq!(r.hops, 1);
        assert_eq!(r.by_var[0].key, "A");
        assert!((r.by_var[0].wire - 6.0).abs() < 1e-9);
    }

    /// Receiver-side compute that overlaps the flight is off-path.
    #[test]
    fn overlapped_compute_is_off_path() {
        let mut t = Trace::new(2);
        t.end = 11.0;
        t.push(TraceEvent::span(TraceKind::Compute, 0, 0.0, 2.0)); // send at 2
        t.push(TraceEvent::span(TraceKind::Compute, 1, 0.0, 8.0)); // overlapped
        t.push(TraceEvent {
            cause: WaitCause::Message(1),
            ..TraceEvent::span(TraceKind::Wait, 1, 8.0, 10.0)
        });
        t.push(TraceEvent {
            msg_id: Some(1),
            src: Some(0),
            ..TraceEvent::span(TraceKind::WireTransit, 1, 2.0, 10.0)
        });
        t.push(TraceEvent::span(TraceKind::Compute, 1, 10.0, 11.0));
        let r = t.critical_path(&labels());
        // Path: 1 compute + 8 wire + 2 compute = 11; p1's 8 units of
        // overlapped compute do not appear.
        assert!((r.attributed() - 11.0).abs() < 1e-9);
        assert!((r.compute - 3.0).abs() < 1e-9);
        assert!((r.wire - 8.0).abs() < 1e-9);
    }

    /// A barrier hops to the last arriver without consuming time.
    #[test]
    fn barrier_hops_to_last_arriver() {
        let mut t = Trace::new(2);
        t.end = 10.0;
        t.push(TraceEvent::span(TraceKind::Compute, 0, 0.0, 3.0));
        t.push(TraceEvent {
            cause: WaitCause::Barrier,
            ..TraceEvent::span(TraceKind::Wait, 0, 3.0, 8.0)
        });
        t.push(TraceEvent::span(TraceKind::Compute, 0, 8.0, 10.0));
        t.push(TraceEvent {
            sid: Some(5),
            ..TraceEvent::span(TraceKind::Compute, 1, 0.0, 8.0)
        });
        let r = t.critical_path(&labels());
        assert!((r.attributed() - 10.0).abs() < 1e-9);
        // Path: p0 [8,10] compute, hop at 8 to p1, p1 [0,8] compute.
        assert!((r.compute - 10.0).abs() < 1e-9, "{r:?}");
        assert!(r.wait.abs() < 1e-9);
    }

    /// Attribution is exhaustive even with gaps and missing edges.
    #[test]
    fn always_sums_to_total() {
        let mut t = Trace::new(2);
        t.end = 20.0;
        t.push(TraceEvent::span(TraceKind::Compute, 0, 5.0, 9.0));
        t.push(TraceEvent {
            cause: WaitCause::Message(404), // no wire recorded
            ..TraceEvent::span(TraceKind::Wait, 0, 9.0, 20.0)
        });
        let r = t.critical_path(&labels());
        assert!((r.attributed() - 20.0).abs() < 1e-9, "{r:?}");
        assert!((r.wait - 16.0).abs() < 1e-9); // 11 unresolved + 5 leading gap
    }

    #[test]
    fn render_mentions_buckets() {
        let mut t = Trace::new(1);
        t.end = 4.0;
        t.push(TraceEvent {
            sid: Some(0),
            ..TraceEvent::span(TraceKind::Compute, 0, 0.0, 4.0)
        });
        let mut lab = HashMap::new();
        lab.insert(0u32, "A[i] = B[i]".to_string());
        let r = t.critical_path(&lab);
        let s = r.render(5);
        assert!(s.contains("compute"));
        assert!(s.contains("s0: A[i] = B[i]"));
        assert!(s.contains("100.0%"));
    }
}
