//! The movement record as data: timing-free keys over canonical tables.
//!
//! Two machines running one program must record the same movement: one
//! `send-init` per send action, one `recv-post` per posted receive, and
//! one `wire-transit` + `recv-complete` per completed receive, each
//! identified by (kind, pid, statement id, variable, section, payload
//! bytes); and the same section-state instants. Timing and message ids are
//! machine-specific and left out.
//!
//! A [`KeySet`] holds those keys as `Copy` structs whose names and
//! sections index tables of the distinct values they name, sorted, and the
//! keys sorted after them. Equal sets are equal values, whichever ids each
//! machine's trace gave a section. The pinned text is a view
//! ([`KeySet::lines`]), rendered only when read.

use crate::event::{push_uint, LabelId, Trace, TraceKind, FIXED_LABELS};
use std::fmt;
use std::sync::Arc;
use xdp_ir::Section;

/// A key of the movement multiset: one `SendInit`, `RecvPost`,
/// `RecvComplete` or `WireTransit` event without its timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MoveKey {
    pub kind: TraceKind,
    pub pid: u32,
    pub sid: Option<u32>,
    /// Index into the set's names.
    pub var: Option<u32>,
    /// Index into the set's sections.
    pub sec: Option<u32>,
    pub bytes: u64,
}

/// A key of the section-state multiset: which section a processor saw
/// turn transitional or accessible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateKey {
    pub pid: u32,
    /// Index into the set's names.
    pub var: Option<u32>,
    /// Index into the set's sections.
    pub sec: Option<u32>,
    /// The new state's label, an index into the set's names.
    pub state: Option<u32>,
}

/// What a [`KeySet`] needs of its keys.
pub trait Key: Copy + Ord {
    /// The variable, label and section fields, to re-base them.
    fn ids(&mut self) -> (&mut Option<u32>, Option<&mut Option<u32>>, &mut Option<u32>);

    /// Append the key's pinned line, its names and sections read from
    /// `names` and the rendered `secs`.
    fn write_line(&self, names: &[Arc<str>], secs: &[String], out: &mut String);
}

/// `field` resolved in `table`, `-` when absent.
fn or_dash<S: AsRef<str>>(table: &[S], field: Option<u32>) -> &str {
    field.map_or("-", |k| table[k as usize].as_ref())
}

impl Key for MoveKey {
    fn ids(&mut self) -> (&mut Option<u32>, Option<&mut Option<u32>>, &mut Option<u32>) {
        (&mut self.var, None, &mut self.sec)
    }

    /// `<kind> p<pid> sid=<sid> var=<var> sec=<section> bytes=<bytes>`.
    fn write_line(&self, names: &[Arc<str>], secs: &[String], out: &mut String) {
        out.push_str(self.kind.name());
        out.push_str(" p");
        push_uint(out, self.pid.into());
        out.push_str(" sid=");
        match self.sid {
            Some(s) => push_uint(out, s.into()),
            None => out.push('-'),
        }
        out.push_str(" var=");
        out.push_str(or_dash(names, self.var));
        out.push_str(" sec=");
        out.push_str(or_dash(secs, self.sec));
        out.push_str(" bytes=");
        push_uint(out, self.bytes);
    }
}

impl Key for StateKey {
    fn ids(&mut self) -> (&mut Option<u32>, Option<&mut Option<u32>>, &mut Option<u32>) {
        (&mut self.var, Some(&mut self.state), &mut self.sec)
    }

    /// `state p<pid> var=<var> sec=<section> <state>`.
    fn write_line(&self, names: &[Arc<str>], secs: &[String], out: &mut String) {
        out.push_str("state p");
        push_uint(out, self.pid.into());
        out.push_str(" var=");
        out.push_str(or_dash(names, self.var));
        out.push_str(" sec=");
        out.push_str(or_dash(secs, self.sec));
        out.push(' ');
        out.push_str(or_dash(names, self.state));
    }
}

/// A sorted multiset of keys with the distinct names and sections they
/// index, each table sorted by value: `==` is equality of the multisets.
#[derive(Clone, PartialEq, Eq)]
pub struct KeySet<K> {
    keys: Vec<K>,
    names: Vec<Arc<str>>,
    secs: Vec<Section>,
}

/// The movement multiset of a run ([`Trace::movement_keys`]).
pub type Movement = KeySet<MoveKey>;
/// The section-state multiset of a run ([`Trace::state_keys`]).
pub type States = KeySet<StateKey>;

impl<K> Default for KeySet<K> {
    fn default() -> Self {
        KeySet {
            keys: Vec::new(),
            names: Vec::new(),
            secs: Vec::new(),
        }
    }
}

impl<K: Key> KeySet<K> {
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The pinned text: one line per key, sorted as text.
    pub fn lines(&self) -> Vec<String> {
        let secs: Vec<String> = self.secs.iter().map(Section::to_string).collect();
        let mut lines: Vec<String> = self
            .keys
            .iter()
            .map(|k| {
                let mut line = String::with_capacity(64);
                k.write_line(&self.names, &secs, &mut line);
                line
            })
            .collect();
        lines.sort_unstable();
        lines
    }

    /// The set of `keys`, whose variables index `trace`'s names, labels
    /// `trace`'s labels offset by the number of names, and sections
    /// `trace`'s sections.
    fn canonical(trace: &Trace, mut keys: Vec<K>) -> Self {
        // Each table slot: UNUSED, then USED when a key names it, then
        // its canonical index.
        const UNUSED: u32 = u32::MAX;
        const USED: u32 = 0;
        let nvars = trace.vars.len();
        let text = |raw: usize| match raw.checked_sub(nvars) {
            None => &trace.vars[raw],
            Some(k) => trace.label(LabelId(k as u32)),
        };
        let mut name_of = vec![UNUSED; nvars + FIXED_LABELS.len() + trace.labels.len()];
        let mut sec_of = vec![UNUSED; trace.secs.len()];
        for k in &mut keys {
            let (var, label, sec) = k.ids();
            let label = label.and_then(|l| *l).map(|l| l as usize + nvars);
            for raw in var.map(|v| v as usize).into_iter().chain(label) {
                name_of[raw] = USED;
            }
            if let Some(s) = *sec {
                sec_of[s as usize] = USED;
            }
        }
        let mut used: Vec<usize> = (0..name_of.len()).filter(|&k| name_of[k] == USED).collect();
        used.sort_unstable_by(|&a, &b| text(a).cmp(text(b)));
        let mut names: Vec<Arc<str>> = Vec::with_capacity(used.len());
        for raw in used {
            if names.last() != Some(text(raw)) {
                names.push(text(raw).clone());
            }
            name_of[raw] = names.len() as u32 - 1;
        }
        let mut used: Vec<usize> = (0..sec_of.len()).filter(|&k| sec_of[k] == USED).collect();
        used.sort_unstable_by(|&a, &b| trace.secs[a].cmp(&trace.secs[b]));
        let mut secs: Vec<Section> = Vec::with_capacity(used.len());
        for raw in used {
            if secs.last() != Some(&trace.secs[raw]) {
                secs.push(trace.secs[raw].clone());
            }
            sec_of[raw] = secs.len() as u32 - 1;
        }
        for k in &mut keys {
            let (var, label, sec) = k.ids();
            *var = var.map(|v| name_of[v as usize]);
            if let Some(label) = label {
                *label = label.map(|l| name_of[l as usize + nvars]);
            }
            *sec = sec.map(|s| sec_of[s as usize]);
        }
        keys.sort_unstable();
        KeySet { keys, names, secs }
    }
}

/// The text view: a failed comparison prints the lines that differ.
impl<K: Key> fmt::Debug for KeySet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.lines()).finish()
    }
}

impl Trace {
    /// The data-movement events as [`MoveKey`]s.
    pub fn movement_keys(&self) -> Movement {
        let moves = |kind| {
            matches!(
                kind,
                TraceKind::SendInit
                    | TraceKind::RecvPost
                    | TraceKind::RecvComplete
                    | TraceKind::WireTransit
            )
        };
        let mut keys = Vec::with_capacity(self.events.iter().filter(|e| moves(e.kind)).count());
        keys.extend(
            self.events
                .iter()
                .filter(|e| moves(e.kind))
                .map(|e| MoveKey {
                    kind: e.kind,
                    pid: e.pid,
                    sid: e.sid,
                    var: e.var.map(|v| v.0),
                    sec: e.sec.map(|s| s.0),
                    bytes: e.bytes,
                }),
        );
        KeySet::canonical(self, keys)
    }

    /// The section-state instants as [`StateKey`]s.
    pub fn state_keys(&self) -> States {
        let mut keys = Vec::with_capacity(self.of_kind(TraceKind::SectionState).count());
        keys.extend(self.of_kind(TraceKind::SectionState).map(|e| StateKey {
            pid: e.pid,
            var: e.var.map(|v| v.0),
            sec: e.sec.map(|s| s.0),
            state: e.detail.map(|l| l.0),
        }));
        KeySet::canonical(self, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, VarName};
    use xdp_ir::Triplet;

    fn vars() -> Arc<[Arc<str>]> {
        ["A", "B"].map(Arc::<str>::from).into()
    }

    #[test]
    fn movement_ignores_timing_order_and_ids() {
        let sec = Section::new(vec![Triplet::range(1, 4)]);
        let mut a = Trace::with_vars(2, vars());
        let s = a.push_section(sec.clone());
        a.push(TraceEvent {
            sid: Some(3),
            var: Some(VarName(0)),
            sec: Some(s),
            bytes: 8,
            ..TraceEvent::span(TraceKind::SendInit, 0, 1.0, 2.0)
        });
        a.push(TraceEvent {
            sid: Some(4),
            var: Some(VarName(0)),
            sec: Some(s),
            bytes: 8,
            ..TraceEvent::span(TraceKind::RecvComplete, 1, 5.0, 6.0)
        });
        // Same logical movement: other times, order, message ids, and
        // the section held twice under other ids.
        let mut b = Trace::with_vars(2, vars());
        b.push_section(Section::point(&[9]));
        let (s1, s2) = (b.push_section(sec.clone()), b.push_section(sec));
        b.push(TraceEvent {
            sid: Some(4),
            var: Some(VarName(0)),
            sec: Some(s2),
            bytes: 8,
            msg_id: Some(99),
            ..TraceEvent::span(TraceKind::RecvComplete, 1, 0.0, 0.0)
        });
        b.push(TraceEvent {
            sid: Some(3),
            var: Some(VarName(0)),
            sec: Some(s1),
            bytes: 8,
            ..TraceEvent::span(TraceKind::SendInit, 0, 7.0, 7.5)
        });
        assert_eq!(a.movement_keys(), b.movement_keys());
        assert_eq!(a.movement_keys().lines(), b.movement_keys().lines());
        b.events[0].var = Some(VarName(1));
        assert_ne!(a.movement_keys(), b.movement_keys());
    }

    /// Movement lines are pinned as text; the hand-rendered key must be
    /// what the `format!` it replaced produced, absent fields included.
    #[test]
    fn movement_lines_are_byte_identical_to_the_format_rendering() {
        let mut t = Trace::with_vars(2, vars());
        let sec = Section::new(vec![Triplet::range(1, 4), Triplet::point(2)]);
        let s = t.push_section(sec.clone());
        t.push(TraceEvent {
            sid: Some(17),
            var: Some(VarName(0)),
            sec: Some(s),
            bytes: 4096,
            ..TraceEvent::span(TraceKind::WireTransit, 1, 0.0, 1.0)
        });
        t.push(TraceEvent::span(TraceKind::RecvPost, 0, 0.0, 1.0));
        t.push(TraceEvent::span(TraceKind::Compute, 0, 0.0, 1.0)); // not movement
        let mut want = vec![
            format!("wire-transit p1 sid=17 var=A sec={sec} bytes=4096"),
            "recv-post p0 sid=- var=- sec=- bytes=0".to_string(),
        ];
        want.sort();
        assert_eq!(t.movement_keys().lines(), want);
        assert_eq!(
            want[1],
            "wire-transit p1 sid=17 var=A sec=[1:4,2] bytes=4096"
        );
    }
}
