//! The structured event model shared by both executors.

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

/// What a [`TraceEvent`] describes.
///
/// The first four kinds are *spans* (`t1 > t0`) that tile each processor's
/// local timeline; the rest are instants or edges layered on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum TraceKind {
    /// Local work: interpreter step, symbol-table charges, kernel flops.
    #[default]
    Compute,
    /// CPU overhead of initiating a send (the `o` in the cost model).
    SendInit,
    /// CPU overhead of posting a receive before blocking on it.
    RecvPost,
    /// CPU overhead of completing a receive: match + handler + any
    /// unexpected-message copy.
    RecvComplete,
    /// The processor is blocked; [`TraceEvent::cause`] says on what.
    Wait,
    /// A message in flight: `t0` = send time, `t1` = arrival, `pid` = the
    /// receiver, `src` = the sender. The happens-before edges the
    /// critical-path analyzer walks.
    WireTransit,
    /// A section changed state (unowned / transitional / accessible);
    /// `detail` names the new state.
    SectionState,
    /// Run-time symbol-table queries charged in a step; count in `bytes`.
    SymtabQuery,
    /// A local kernel invocation; `detail` is the kernel name, `bytes`
    /// the flop count.
    KernelInvoke,
    /// One planned collective/redistribution was scheduled; `detail`
    /// carries strategy + piece count.
    CollectiveRound,
    /// The delivery layer retransmitted an unacked message (fault
    /// injection); `detail` carries the tag and attempt number.
    Retry,
    /// Fault injection dropped a transmission attempt on the wire.
    FaultDrop,
    /// Receiver-side dedup suppressed an injected or crossed duplicate.
    DupSuppressed,
}

impl TraceKind {
    /// Stable lower-case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Compute => "compute",
            TraceKind::SendInit => "send-init",
            TraceKind::RecvPost => "recv-post",
            TraceKind::RecvComplete => "recv-complete",
            TraceKind::Wait => "wait",
            TraceKind::WireTransit => "wire-transit",
            TraceKind::SectionState => "section-state",
            TraceKind::SymtabQuery => "symtab-query",
            TraceKind::KernelInvoke => "kernel-invoke",
            TraceKind::CollectiveRound => "collective-round",
            TraceKind::Retry => "retry",
            TraceKind::FaultDrop => "fault-drop",
            TraceKind::DupSuppressed => "dup-suppressed",
        }
    }
}

/// Why a processor was blocked during a [`TraceKind::Wait`] span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WaitCause {
    /// Not a wait, or cause unknown (e.g. wall-clock backend).
    #[default]
    None,
    /// Woken by the arrival of the message with this request id; the id
    /// matches the `msg_id` of a [`TraceKind::WireTransit`] event.
    Message(u64),
    /// Released by a barrier.
    Barrier,
    /// End-of-program quiesce: draining outstanding receives after `Done`.
    Quiesce,
}

/// One structured event. Spans use `[t0, t1]`; instants have `t1 == t0`.
///
/// Times are virtual on the simulator and wall-clock microseconds on the
/// task machine — the model does not care, only the exporters scale.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TraceEvent {
    pub kind: TraceKind,
    /// The processor whose timeline this event sits on (the *receiver*
    /// for [`TraceKind::WireTransit`]).
    pub pid: u32,
    pub t0: f64,
    pub t1: f64,
    /// Preorder id of the IR statement that caused the event.
    pub sid: Option<u32>,
    /// Variable being moved/queried, if any (rendered name). Shared: the
    /// events of one transfer — and every event naming the variable —
    /// hold one rendering, so recording and dropping a trace cost one
    /// allocation per transfer, not three per event.
    pub var: Option<Arc<str>>,
    /// Section being moved, if any (rendered, e.g. `[1:4]`).
    pub sec: Option<Arc<str>>,
    /// Payload bytes for movement events; op/flop counts for
    /// [`TraceKind::SymtabQuery`] / [`TraceKind::KernelInvoke`].
    pub bytes: u64,
    /// Sending processor for [`TraceKind::WireTransit`].
    pub src: Option<u32>,
    /// Request id linking a wait / wire-transit / recv-complete triple.
    pub msg_id: Option<u64>,
    /// Why a [`TraceKind::Wait`] span was blocked.
    pub cause: WaitCause,
    /// Free-form annotation (kernel name, section state, strategy...).
    pub detail: Option<Arc<str>>,
}

impl TraceEvent {
    /// A span with everything else defaulted; fill extras via struct update.
    pub fn span(kind: TraceKind, pid: usize, t0: f64, t1: f64) -> Self {
        TraceEvent {
            kind,
            pid: pid as u32,
            t0,
            t1,
            ..TraceEvent::default()
        }
    }

    /// An instant at `t`.
    pub fn instant(kind: TraceKind, pid: usize, t: f64) -> Self {
        Self::span(kind, pid, t, t)
    }

    pub fn dur(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// What the executors record. Off by default: tracing never perturbs a
/// run's result, it only costs memory, but the default stays zero-cost.
///
/// | event kind | recorded when |
/// |---|---|
/// | `Compute`, `Wait` | `spans` |
/// | `SendInit`, `RecvPost`, `RecvComplete` | `spans \|\| messages` |
/// | `WireTransit` | `messages` |
/// | `SectionState` | `instants \|\| messages` |
/// | `SymtabQuery`, `KernelInvoke`, `CollectiveRound`, `Retry`, `FaultDrop`, `DupSuppressed` | `instants` |
///
/// `messages` alone ([`TraceConfig::movement`]) is therefore the
/// data-movement record: exactly the kinds [`Trace::movement_multiset`]
/// and the fingerprint's section-state digest filter for, and nothing a
/// communication-free run would emit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record the spans that tile each processor's timeline: compute and
    /// wait, and the send-init / recv-post / recv-complete overheads.
    pub spans: bool,
    /// Record data movement: the wire-transit edges (required for
    /// critical-path analysis) with the send-init / recv-post /
    /// recv-complete spans and section-state transitions they connect.
    pub messages: bool,
    /// Record instants: section-state transitions, symtab queries, kernel
    /// invocations, collective rounds, injected faults.
    pub instants: bool,
}

impl TraceConfig {
    /// Record nothing.
    pub fn off() -> Self {
        TraceConfig::default()
    }

    /// Spans only — what the old `record_timeline` flag captured.
    pub fn spans_only() -> Self {
        TraceConfig {
            spans: true,
            messages: false,
            instants: false,
        }
    }

    /// The data-movement record only: what a fingerprint reads, and
    /// nothing per executed statement.
    pub fn movement() -> Self {
        TraceConfig {
            spans: false,
            messages: true,
            instants: false,
        }
    }

    /// Everything: spans, message edges, and instants.
    pub fn full() -> Self {
        TraceConfig {
            spans: true,
            messages: true,
            instants: true,
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans || self.messages || self.instants
    }
}

/// A recorded execution: every event from every processor, in emission
/// order, plus the makespan.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub nprocs: usize,
    /// End-to-end time (virtual time on the simulator; wall µs on the task machine).
    pub end: f64,
    pub events: Vec<TraceEvent>,
}

impl Trace {
    pub fn new(nprocs: usize) -> Self {
        Trace {
            nprocs,
            end: 0.0,
            events: Vec::new(),
        }
    }

    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind, in emission order.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Canonical, timing-free keys of every data-movement event, sorted.
    ///
    /// Two backends executing the same program must produce the same
    /// multiset: one `send-init` per send action, one `recv-post` per
    /// posted receive, and one `wire-transit` + `recv-complete` per
    /// completed receive — identified by (kind, pid, statement id,
    /// variable, section, payload bytes). Timing and message ids are
    /// backend-specific and excluded.
    pub fn movement_multiset(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::SendInit
                        | TraceKind::RecvPost
                        | TraceKind::RecvComplete
                        | TraceKind::WireTransit
                )
            })
            .map(|e| {
                let var = e.var.as_deref().unwrap_or("-");
                let sec = e.sec.as_deref().unwrap_or("-");
                let mut key = String::with_capacity(56 + var.len() + sec.len());
                let _ = write!(key, "{} p{} sid=", e.kind.name(), e.pid);
                let _ = match e.sid {
                    Some(s) => write!(key, "{s}"),
                    None => key.write_str("-"),
                };
                let _ = write!(key, " var={var} sec={sec} bytes={}", e.bytes);
                key
            })
            .collect();
        keys.sort();
        keys
    }

    /// ASCII Gantt chart of the span timeline (`#` compute, `s` send
    /// overhead, `r` receive overhead, `.` wait), one row per processor.
    pub fn gantt(&self, width: usize) -> String {
        let total = if self.end > 0.0 {
            self.end
        } else {
            self.events.iter().fold(0.0f64, |m, e| m.max(e.t1))
        };
        if total <= 0.0 || width == 0 {
            return String::new();
        }
        let mut rows = vec![vec![' '; width]; self.nprocs];
        for e in &self.events {
            let ch = match e.kind {
                TraceKind::Compute => '#',
                TraceKind::SendInit => 's',
                TraceKind::RecvPost | TraceKind::RecvComplete => 'r',
                TraceKind::Wait => '.',
                _ => continue,
            };
            let pid = e.pid as usize;
            if pid >= self.nprocs {
                continue;
            }
            let c0 = ((e.t0 / total) * width as f64).floor() as usize;
            let c1 = ((e.t1 / total) * width as f64).ceil() as usize;
            for cell in rows[pid]
                .iter_mut()
                .take(c1.min(width))
                .skip(c0.min(width.saturating_sub(1)))
            {
                *cell = ch;
            }
        }
        let mut out = String::new();
        for (pid, row) in rows.iter().enumerate() {
            out.push_str(&format!("p{pid:<3}|"));
            out.extend(row.iter());
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "     0{:>w$.1}   (# compute, s send, r recv, . wait)\n",
            total,
            w = width.saturating_sub(1)
        ));
        out
    }

    /// Attribute the end-to-end time along the happens-before graph.
    /// `labels` maps statement ids to one-line source summaries (see
    /// `xdp_ir::pretty::stmt_table`); unknown ids print as `s<id>`.
    pub fn critical_path(&self, labels: &HashMap<u32, String>) -> crate::CriticalPathReport {
        crate::critical_path::analyze(self, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_levels() {
        assert!(!TraceConfig::off().enabled());
        assert!(TraceConfig::spans_only().enabled());
        let full = TraceConfig::full();
        assert!(full.spans && full.messages && full.instants);
        let movement = TraceConfig::movement();
        assert!(movement.enabled() && !movement.spans && !movement.instants);
    }

    #[test]
    fn movement_multiset_ignores_timing_and_order() {
        let mut a = Trace::new(2);
        a.push(TraceEvent {
            sid: Some(3),
            var: Some("A".into()),
            bytes: 8,
            ..TraceEvent::span(TraceKind::SendInit, 0, 1.0, 2.0)
        });
        a.push(TraceEvent {
            sid: Some(4),
            var: Some("A".into()),
            bytes: 8,
            ..TraceEvent::span(TraceKind::RecvComplete, 1, 5.0, 6.0)
        });
        let mut b = Trace::new(2);
        // Same logical movement, different times, order, and msg ids.
        b.push(TraceEvent {
            sid: Some(4),
            var: Some("A".into()),
            bytes: 8,
            msg_id: Some(99),
            ..TraceEvent::span(TraceKind::RecvComplete, 1, 0.0, 0.0)
        });
        b.push(TraceEvent {
            sid: Some(3),
            var: Some("A".into()),
            bytes: 8,
            ..TraceEvent::span(TraceKind::SendInit, 0, 7.0, 7.5)
        });
        assert_eq!(a.movement_multiset(), b.movement_multiset());
    }

    /// Movement lines are pinned as text; the hand-rendered key must be
    /// what the `format!` it replaced produced, absent fields included.
    #[test]
    fn movement_lines_are_byte_identical_to_the_format_rendering() {
        let mut t = Trace::new(2);
        t.push(TraceEvent {
            sid: Some(17),
            var: Some("A".into()),
            sec: Some("[1:4,2]".into()),
            bytes: 4096,
            ..TraceEvent::span(TraceKind::WireTransit, 1, 0.0, 1.0)
        });
        t.push(TraceEvent::span(TraceKind::RecvPost, 0, 0.0, 1.0));
        t.push(TraceEvent::span(TraceKind::Compute, 0, 0.0, 1.0)); // not movement
        let mut want: Vec<String> = t
            .events
            .iter()
            .take(2)
            .map(|e| {
                format!(
                    "{} p{} sid={} var={} sec={} bytes={}",
                    e.kind.name(),
                    e.pid,
                    e.sid.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                    e.var.as_deref().unwrap_or("-"),
                    e.sec.as_deref().unwrap_or("-"),
                    e.bytes,
                )
            })
            .collect();
        want.sort();
        assert_eq!(t.movement_multiset(), want);
    }

    #[test]
    fn gantt_marks_kinds() {
        let mut t = Trace::new(2);
        t.end = 10.0;
        t.push(TraceEvent::span(TraceKind::Compute, 0, 0.0, 5.0));
        t.push(TraceEvent::span(TraceKind::Wait, 1, 0.0, 10.0));
        let g = t.gantt(20);
        assert!(g.contains('#'));
        assert!(g.contains('.'));
        assert_eq!(g.lines().count(), 3);
    }
}
