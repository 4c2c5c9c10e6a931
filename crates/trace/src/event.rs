//! The structured event model shared by both executors.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock};
use xdp_ir::Section;

/// What a [`TraceEvent`] describes.
///
/// The first four kinds are *spans* (`t1 > t0`) that tile each processor's
/// local timeline; the rest are instants or edges layered on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
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
    /// An injected duplicate was suppressed: a message is claimed once.
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

/// A declared variable of the traced program, by its ordinal: an index
/// into the names table of the [`Trace`] holding the event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarName(pub u32);

/// A section, by its place in the section table of the [`Trace`] holding
/// the event ([`Trace::push_section`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SecId(pub u32);

/// An annotation, by its place in the label table of the [`Trace`]
/// holding the event ([`Trace::push_label`]). The two section states are
/// fixed ids every trace resolves without a table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub(crate) u32);

impl LabelId {
    /// The section-state label `transitional`.
    pub const TRANSITIONAL: LabelId = LabelId(0);
    /// The section-state label `accessible`.
    pub const ACCESSIBLE: LabelId = LabelId(1);
}

/// The texts of the fixed labels, by id.
pub(crate) static FIXED_LABELS: LazyLock<[Arc<str>; 2]> =
    LazyLock::new(|| ["transitional".into(), "accessible".into()]);

/// One structured event. Spans use `[t0, t1]`; instants have `t1 == t0`.
///
/// Times are virtual on the simulator and wall-clock microseconds on the
/// task machine — the model does not care, only the exporters scale.
/// An event owns nothing: it names its variable, section and annotation
/// by ids its [`Trace`] resolves, so recording and dropping one is a copy.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct TraceEvent {
    pub kind: TraceKind,
    /// The processor whose timeline this event sits on (the *receiver*
    /// for [`TraceKind::WireTransit`]).
    pub pid: u32,
    pub t0: f64,
    pub t1: f64,
    /// Preorder id of the IR statement that caused the event.
    pub sid: Option<u32>,
    /// Variable being moved/queried, if any.
    pub var: Option<VarName>,
    /// Section being moved, if any.
    pub sec: Option<SecId>,
    /// Payload bytes for movement events; op/flop counts for
    /// [`TraceKind::SymtabQuery`] / [`TraceKind::KernelInvoke`].
    pub bytes: u64,
    /// Sending processor for [`TraceKind::WireTransit`].
    pub src: Option<u32>,
    /// Request id linking a wait / wire-transit / recv-complete triple.
    pub msg_id: Option<u64>,
    /// Why a [`TraceKind::Wait`] span was blocked.
    pub cause: WaitCause,
    /// Annotation (kernel name, section state, strategy...).
    pub detail: Option<LabelId>,
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
/// data-movement record: exactly the kinds [`Trace::movement_keys`]
/// and [`Trace::state_keys`] filter for, and nothing a
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
/// order, the makespan, and the tables the events' ids index: the
/// program's declared names, the sections and the labels.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub nprocs: usize,
    /// End-to-end time (virtual time on the simulator; wall µs on the task machine).
    pub end: f64,
    pub events: Vec<TraceEvent>,
    pub(crate) vars: Arc<[Arc<str>]>,
    pub(crate) secs: Vec<Section>,
    pub(crate) labels: Vec<Arc<str>>,
}

impl Trace {
    pub fn new(nprocs: usize) -> Self {
        Self::with_vars(nprocs, Arc::from([]))
    }

    /// An empty trace whose events name variable `k` `vars[k]`.
    pub fn with_vars(nprocs: usize, vars: Arc<[Arc<str>]>) -> Self {
        Trace {
            nprocs,
            end: 0.0,
            events: Vec::new(),
            vars,
            secs: Vec::new(),
            labels: Vec::new(),
        }
    }

    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Add `sec` to the section table; equal sections may be added twice.
    pub fn push_section(&mut self, sec: Section) -> SecId {
        self.secs.push(sec);
        SecId(self.secs.len() as u32 - 1)
    }

    /// Add `text` to the label table.
    pub fn push_label(&mut self, text: Arc<str>) -> LabelId {
        self.labels.push(text);
        LabelId((FIXED_LABELS.len() + self.labels.len() - 1) as u32)
    }

    /// The declared names, by variable ordinal.
    pub fn vars(&self) -> &Arc<[Arc<str>]> {
        &self.vars
    }

    /// The declared name of `var`.
    pub fn var_name(&self, var: VarName) -> &Arc<str> {
        &self.vars[var.0 as usize]
    }

    pub fn section(&self, sec: SecId) -> &Section {
        &self.secs[sec.0 as usize]
    }

    pub fn label(&self, label: LabelId) -> &Arc<str> {
        let k = label.0 as usize;
        match FIXED_LABELS.get(k) {
            Some(text) => text,
            None => &self.labels[k - FIXED_LABELS.len()],
        }
    }

    /// Append the events of `part`, recorded against the same names, with
    /// their section and label ids re-based onto this trace's tables. The
    /// task machine records one part per processor and merges them here,
    /// once, after the run.
    pub fn merge(&mut self, part: Trace) {
        if self.vars.is_empty() {
            self.vars = part.vars;
        } else {
            debug_assert!(part.vars.is_empty() || *part.vars == *self.vars);
        }
        let secs = self.secs.len() as u32;
        let labels = self.labels.len() as u32;
        self.secs.extend(part.secs);
        self.labels.extend(part.labels);
        let fixed = FIXED_LABELS.len() as u32;
        self.events
            .extend(part.events.into_iter().map(|e| TraceEvent {
                sec: e.sec.map(|s| SecId(s.0 + secs)),
                detail: e.detail.map(|l| {
                    if l.0 < fixed {
                        l
                    } else {
                        LabelId(l.0 + labels)
                    }
                }),
                ..e
            }));
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind, in emission order.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
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

/// Append `v` in decimal, the text `{}` writes, without `core::fmt`: a
/// single digit is pushed as it is, longer numbers are spelled into a stack
/// buffer and copied on. Fingerprint lines are mostly small integers, and
/// formatting them was most of what rendering a line cost.
pub fn push_uint(out: &mut String, mut v: u64) {
    if v < 10 {
        out.push(char::from(b'0' + v as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while v > 0 {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// [`push_uint`] with a sign: `i64::MIN` included.
pub fn push_int(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_uint(out, v.unsigned_abs());
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

    /// An event owns nothing, so recording one is a copy and dropping a
    /// trace frees its vectors alone. Checked when the test compiles.
    #[test]
    fn events_are_copy() {
        fn copy<T: Copy>() {}
        copy::<TraceEvent>();
    }

    /// Merged parts keep resolving to what they named: sections and
    /// labels are re-based, the fixed states and the variables are not.
    #[test]
    fn merge_rebases_section_and_label_ids() {
        let vars: Arc<[Arc<str>]> = ["A", "B"].map(Arc::<str>::from).into();
        let part = |sec: Section, label: &str| {
            let mut t = Trace::with_vars(2, vars.clone());
            let sec = t.push_section(sec);
            let label = t.push_label(label.into());
            for detail in [label, LabelId::ACCESSIBLE] {
                t.push(TraceEvent {
                    var: Some(VarName(1)),
                    sec: Some(sec),
                    detail: Some(detail),
                    ..TraceEvent::instant(TraceKind::SectionState, 0, 0.0)
                });
            }
            t
        };
        let (x, y) = (Section::point(&[1]), Section::point(&[2, 3]));
        let mut t = Trace::new(2);
        t.merge(part(x.clone(), "one"));
        t.merge(part(y.clone(), "two"));
        let seen: Vec<(&str, &Section, &str)> = t
            .events
            .iter()
            .map(|e| {
                (
                    &**t.var_name(e.var.unwrap()),
                    t.section(e.sec.unwrap()),
                    &**t.label(e.detail.unwrap()),
                )
            })
            .collect();
        assert_eq!(
            seen,
            [
                ("B", &x, "one"),
                ("B", &x, "accessible"),
                ("B", &y, "two"),
                ("B", &y, "accessible"),
            ]
        );
    }

    #[test]
    fn integers_are_written_as_display_writes_them() {
        for v in [0, 7, -7, 10, -10, i64::MAX, i64::MIN, 1 << 53] {
            let mut out = String::from("x");
            push_int(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
        let mut out = String::new();
        push_uint(&mut out, u64::MAX);
        assert_eq!(out, u64::MAX.to_string());
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
