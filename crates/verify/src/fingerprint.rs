//! The execution fingerprint oracle.
//!
//! A fingerprint renders everything observable about a run as sorted
//! line multisets, so "two executions agree" reduces to string equality
//! and the first differing line names the disagreement:
//!
//! * **memory** — the final global contents of each declared array as
//!   gathered from the owning processors (`name[index] p<owner> = value`),
//!   grouped per declaration so comparisons can be restricted to the
//!   observable arrays;
//! * **movement** — [`xdp_trace::Trace::movement_multiset`]: every
//!   `SendInit`/`RecvPost`/`RecvComplete`/`WireTransit` event, stripped of
//!   timing;
//! * **states** — the section-state instants (`transitional`/`accessible`)
//!   each processor observed.
//!
//! All generated programs compute dyadic-exact `f64` values, so memory
//! lines compare bit-for-bit (`{:?}` on `f64` is shortest-roundtrip).

use std::collections::BTreeMap;
use std::fmt::Write;
use xdp_core::Gathered;
use xdp_runtime::Value;
use xdp_trace::{Trace, TraceKind};

/// One run's observable outcome.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fingerprint {
    /// Per-declaration memory image lines, keyed by declared name.
    pub memory: BTreeMap<String, Vec<String>>,
    /// Sorted movement multiset.
    pub movement: Vec<String>,
    /// Sorted section-state digest.
    pub states: Vec<String>,
    /// Wire messages (multicast copies counted individually).
    pub messages: u64,
}

impl Fingerprint {
    /// Memory lines of one declaration, `name[i, j] p<owner> = <value>` in
    /// ascending index order. Rendered straight into each line's buffer —
    /// the text is what `format!("{name}{idx:?} p{owner} = {val:?}")`
    /// produces, which golden digests and every conformance suite pin.
    pub fn record_memory(&mut self, name: &str, g: &Gathered) {
        let mut lines = Vec::with_capacity(g.full().volume() as usize);
        g.for_each(|idx, owner, val| {
            let mut line = String::with_capacity(name.len() + 8 * idx.len() + 40);
            line.push_str(name);
            line.push('[');
            for (k, i) in idx.iter().enumerate() {
                if k > 0 {
                    line.push_str(", ");
                }
                let _ = write!(line, "{i}");
            }
            let _ = write!(line, "] p{owner} = ");
            let _ = match val {
                Value::I64(v) => write!(line, "I64({v})"),
                Value::F64(v) => write!(line, "F64({v:?})"),
                Value::C64(_) => write!(line, "{val:?}"),
            };
            lines.push(line);
        });
        self.memory.insert(name.to_string(), lines);
    }

    /// Capture the movement multiset and state digest from a trace.
    pub fn record_trace(&mut self, trace: &Trace) {
        self.movement = trace.movement_multiset();
        self.states = state_digest(trace);
    }

    /// Memory restricted to `names` (pass-equivalence ignores scratch).
    pub fn memory_of(&self, names: &[String]) -> Vec<String> {
        let mut out = Vec::new();
        for n in names {
            if let Some(lines) = self.memory.get(n) {
                out.extend(lines.iter().cloned());
            }
        }
        out
    }

    /// All memory lines.
    pub fn memory_all(&self) -> Vec<String> {
        self.memory.values().flatten().cloned().collect()
    }
}

/// Sorted multiset of section-state instants.
pub fn state_digest(trace: &Trace) -> Vec<String> {
    let mut keys: Vec<String> = trace
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::SectionState)
        .map(|e| {
            format!(
                "state p{} var={} sec={} {}",
                e.pid,
                e.var.as_deref().unwrap_or("-"),
                e.sec.as_deref().unwrap_or("-"),
                e.detail.as_deref().unwrap_or("-"),
            )
        })
        .collect();
    keys.sort();
    keys
}

/// Compare two line multisets; `None` if equal, otherwise a short report
/// naming the first divergence.
pub fn diff_lines(what: &str, a: &[String], b: &[String]) -> Option<String> {
    if a == b {
        return None;
    }
    for (k, (la, lb)) in a.iter().zip(b.iter()).enumerate() {
        if la != lb {
            return Some(format!(
                "{what}: line {k} differs\n  left:  {la}\n  right: {lb}"
            ));
        }
    }
    Some(format!(
        "{what}: {} vs {} lines (first extra: {})",
        a.len(),
        b.len(),
        if a.len() > b.len() {
            &a[b.len()]
        } else {
            &b[a.len()]
        }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_lines_reports_first_difference() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["x".to_string(), "z".to_string()];
        let d = diff_lines("mem", &a, &b).unwrap();
        assert!(d.contains("line 1"), "{d}");
        assert!(d.contains("y") && d.contains("z"), "{d}");
        assert!(diff_lines("mem", &a, &a).is_none());
    }

    #[test]
    fn diff_lines_reports_length_mismatch() {
        let a = vec!["x".to_string()];
        let b = vec!["x".to_string(), "extra".to_string()];
        let d = diff_lines("mov", &a, &b).unwrap();
        assert!(d.contains("1 vs 2"), "{d}");
        assert!(d.contains("extra"), "{d}");
    }

    /// Memory lines are pinned as text (golden digests, conformance
    /// suites): the hand-rendered line must be what `format!` with the
    /// `Debug` formatters produced.
    #[test]
    fn memory_lines_are_byte_identical_to_the_debug_rendering() {
        use xdp_ir::{Section, Triplet};
        use xdp_runtime::Complex;
        let vals = [
            Value::F64(4.0),
            Value::F64(-0.0),
            Value::F64(0.1),
            Value::F64(1e16),
            Value::F64(1.5e-7),
            Value::F64(f64::NAN),
            Value::F64(f64::NEG_INFINITY),
            Value::I64(-42),
            Value::C64(Complex { re: 1.0, im: -2.5 }),
        ];
        let full = Section::new(vec![Triplet::range(-1, 1), Triplet::range(10, 12)]);
        let mut g = Gathered::new(full.clone());
        let mut want = Vec::new();
        for (k, idx) in full.iter().enumerate() {
            let (owner, val) = (k * 7, vals[k]);
            g.insert(&idx, owner, val);
            want.push(format!("Tmp{idx:?} p{owner} = {val:?}"));
        }
        let mut fp = Fingerprint::default();
        fp.record_memory("Tmp", &g);
        assert_eq!(fp.memory["Tmp"], want);

        let mut scalar = Gathered::new(Section::scalar());
        scalar.insert(&[], 3, Value::F64(2.0));
        fp.record_memory("s", &scalar);
        assert_eq!(fp.memory["s"], vec!["s[] p3 = F64(2.0)".to_string()]);
    }

    #[test]
    fn memory_of_filters_by_name() {
        let mut fp = Fingerprint::default();
        fp.memory
            .insert("A".into(), vec!["A[1] p0 = F64(1.0)".into()]);
        fp.memory
            .insert("T0".into(), vec!["T0[0] p0 = F64(2.0)".into()]);
        assert_eq!(fp.memory_of(&["A".to_string()]).len(), 1);
        assert_eq!(fp.memory_all().len(), 2);
    }
}
