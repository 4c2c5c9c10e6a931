//! A fingerprint's text — memory lines, and the view its movement and
//! state records render — is what the golden digests,
//! `tests/symtab_counts.rs` and every conformance suite pin. Whatever
//! renders it must produce what the `Debug`/`Display` formatting it was
//! first written with produced: a memory line is `format!("{name}{idx:?} p{owner} = {val:?}")`,
//! a movement key `format!("{kind} p{pid} sid={sid} var={var} sec={sec}
//! bytes={bytes}")`, a state key `format!("state p{pid} var={var} sec={sec}
//! {detail}")`, and a section is its triplets written one `write!` inside
//! another. These properties hold the renderers to those texts.

use proptest::prelude::*;
use std::fmt::{self, Write};
use xdp::prelude::*;
use xdp_verify::Fingerprint;

/// Every element value a line can hold, weighted toward the integral
/// doubles every generated program computes and the edges of their text:
/// the `1e16` switch to exponent form, signed zero, NaN, the infinities,
/// subnormals, arbitrary bit patterns, the extreme integers.
fn value() -> impl Strategy<Value = Value> {
    let specials = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        9_999_999_999_999_998.0,
        -9_999_999_999_999_998.0,
        1e16,
        -1e16,
        1e15 + 0.5,
        0.5,
        -1.5,
    ];
    prop_oneof![
        6 => (-(1i64 << 54)..=(1i64 << 54)).prop_map(|k| Value::F64(k as f64)),
        2 => (-1000i64..=1000).prop_map(|k| Value::F64(k as f64)),
        2 => (-12i64..=12, any::<bool>()).prop_map(|(d, neg)| {
            let v = 1e16 + 2.0 * d as f64;
            Value::F64(if neg { -v } else { v })
        }),
        2 => (0usize..specials.len()).prop_map(move |k| Value::F64(specials[k])),
        1 => (1u64..(1u64 << 52), any::<bool>()).prop_map(|(m, neg)| {
            Value::F64(f64::from_bits(m | (neg as u64) << 63))
        }),
        3 => any::<u64>().prop_map(|bits| Value::F64(f64::from_bits(bits))),
        2 => any::<i64>().prop_map(Value::I64),
        1 => (0usize..4).prop_map(|k| Value::I64([i64::MIN, i64::MAX, 0, -1][k])),
        1 => (any::<u64>(), -1000i64..1000).prop_map(|(re, im)| {
            Value::C64(Complex {
                re: f64::from_bits(re),
                im: im as f64,
            })
        }),
    ]
}

/// A small index space anywhere on the integer line, negative indices
/// included: rank 0 to 3, at most three elements a dimension.
fn index_space() -> impl Strategy<Value = Section> {
    prop::collection::vec((-(1i64 << 40)..(1i64 << 40), 0i64..3), 0usize..4).prop_map(|dims| {
        Section::new(
            dims.into_iter()
                .map(|(lb, extent)| Triplet::range(lb, lb + extent))
                .collect(),
        )
    })
}

/// A triplet with any fields: `Display` reads them, nothing else.
fn triplet() -> impl Strategy<Value = Triplet> {
    let raw = (any::<i64>(), any::<i64>(), 1i64..=i64::MAX).prop_map(|(lb, ub, st)| Triplet {
        lb,
        ub,
        st,
    });
    let near = (-(1i64 << 40)..(1i64 << 40), -2i64..100, 1i64..8)
        .prop_map(|(lb, span, st)| Triplet::new(lb, lb + span, st));
    let extreme = (0usize..3, any::<bool>()).prop_map(|(k, point)| {
        let v = [i64::MIN, i64::MAX, 0][k];
        if point {
            Triplet::point(v)
        } else {
            Triplet::range(i64::MIN, v)
        }
    });
    prop_oneof![2 => raw, 3 => near, 1 => extreme, 1 => Just(Triplet::EMPTY)]
}

fn section() -> impl Strategy<Value = Section> {
    prop::collection::vec(triplet(), 0usize..5).prop_map(Section::new)
}

/// A section rendered the way its text was first written: each triplet
/// by a `write!` nested in the section's.
struct Nested<'a>(&'a Section);
struct NestedTriplet(Triplet);

impl fmt::Display for Nested<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.0.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", NestedTriplet(*t))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for NestedTriplet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.0;
        if t.is_empty() {
            write!(f, "<empty>")
        } else if t.lb == t.ub {
            write!(f, "{}", t.lb)
        } else if t.st == 1 {
            write!(f, "{}:{}", t.lb, t.ub)
        } else {
            write!(f, "{}:{}:{}", t.lb, t.ub, t.st)
        }
    }
}

const KINDS: [TraceKind; 13] = [
    TraceKind::Compute,
    TraceKind::SendInit,
    TraceKind::RecvPost,
    TraceKind::RecvComplete,
    TraceKind::Wait,
    TraceKind::WireTransit,
    TraceKind::SectionState,
    TraceKind::SymtabQuery,
    TraceKind::KernelInvoke,
    TraceKind::CollectiveRound,
    TraceKind::Retry,
    TraceKind::FaultDrop,
    TraceKind::DupSuppressed,
];

const NAMES: [&str; 4] = ["A", "T0", "GUP", "a_long_array_name"];
const DETAILS: [&str; 3] = ["transitional", "accessible", "direct x4"];

/// One event of any kind as the values its key reads, absent ones
/// included: (kind, pid, sid), (variable, section, detail), bytes.
type RawEvent = (
    (usize, u32, Option<u32>),
    (Option<usize>, Option<Section>, Option<usize>),
    u64,
);

fn event() -> impl Strategy<Value = RawEvent> {
    (
        (
            0usize..KINDS.len(),
            any::<u32>(),
            prop::option::of(any::<u32>()),
        ),
        (
            prop::option::of(0usize..NAMES.len()),
            prop::option::of(section()),
            prop::option::of(0usize..DETAILS.len()),
        ),
        any::<u64>(),
    )
}

/// A trace of `events`, each section and label added once per event that
/// names it (a section twice under two ids, the way two processors'
/// recorders merge), the states sometimes by their fixed ids.
fn trace_of(events: &[RawEvent], fixed: bool) -> Trace {
    let mut trace = Trace::with_vars(4, NAMES.map(std::sync::Arc::<str>::from).into());
    for ((kind, pid, sid), (var, sec, detail), bytes) in events.iter().cloned() {
        let sec = sec.map(|s| trace.push_section(s));
        let detail = detail.map(|k| match k {
            0 if fixed => LabelId::TRANSITIONAL,
            1 if fixed => LabelId::ACCESSIBLE,
            _ => trace.push_label(DETAILS[k].into()),
        });
        trace.push(TraceEvent {
            kind: KINDS[kind],
            pid,
            sid,
            var: var.map(|k| VarName(k as u32)),
            sec,
            detail,
            bytes,
            ..TraceEvent::default()
        });
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memory_lines_are_the_debug_rendering(
        full in index_space(),
        vals in prop::collection::vec(value(), 27usize),
        owners in prop::collection::vec(any::<usize>(), 27usize),
        name in 0usize..3,
    ) {
        let name = ["A", "Tmp_1", "GDN"][name];
        let mut g = Gathered::new(full.clone());
        let mut want = Vec::new();
        for (k, idx) in full.iter().enumerate() {
            g.insert(&idx, owners[k], vals[k]);
            want.push(format!("{name}{idx:?} p{} = {:?}", owners[k], vals[k]));
        }
        let mut fp = Fingerprint::default();
        fp.record_memory(name, &g);
        prop_assert_eq!(&fp.memory[name], &want);
    }

    #[test]
    fn movement_and_state_keys_are_the_format_rendering(
        events in prop::collection::vec(event(), 0usize..24),
        fixed in any::<bool>(),
    ) {
        let or_dash = |s: Option<String>| s.unwrap_or_else(|| "-".to_string());
        let name = |k: Option<usize>| or_dash(k.map(|k| NAMES[k].to_string()));
        let sec = |s: &Option<Section>| or_dash(s.as_ref().map(Section::to_string));
        let mut movement: Vec<String> = events
            .iter()
            .filter(|((kind, ..), ..)| {
                matches!(
                    KINDS[*kind],
                    TraceKind::SendInit
                        | TraceKind::RecvPost
                        | TraceKind::RecvComplete
                        | TraceKind::WireTransit
                )
            })
            .map(|((kind, pid, sid), (var, s, _), bytes)| {
                format!(
                    "{} p{} sid={} var={} sec={} bytes={}",
                    KINDS[*kind].name(),
                    pid,
                    sid.map_or("-".to_string(), |s| s.to_string()),
                    name(*var),
                    sec(s),
                    bytes
                )
            })
            .collect();
        movement.sort();
        let mut states: Vec<String> = events
            .iter()
            .filter(|((kind, ..), ..)| KINDS[*kind] == TraceKind::SectionState)
            .map(|((_, pid, _), (var, s, detail), _)| {
                format!(
                    "state p{} var={} sec={} {}",
                    pid,
                    name(*var),
                    sec(s),
                    or_dash(detail.map(|k| DETAILS[k].to_string()))
                )
            })
            .collect();
        states.sort();
        let mut fp = Fingerprint::default();
        fp.record_trace(&trace_of(&events, fixed));
        prop_assert_eq!(fp.movement.lines(), movement);
        prop_assert_eq!(fp.states.lines(), states);
        // The data is the value: ids given in another order, and the
        // fixed states spelled out, make an equal record.
        let mut reversed = events.clone();
        reversed.reverse();
        let mut other = Fingerprint::default();
        other.record_trace(&trace_of(&reversed, !fixed));
        prop_assert_eq!(&fp.movement, &other.movement);
        prop_assert_eq!(&fp.states, &other.states);
    }

    #[test]
    fn a_section_is_its_nested_write_rendering(sec in section()) {
        prop_assert_eq!(sec.to_string(), Nested(&sec).to_string());
        for t in sec.dims() {
            prop_assert_eq!(t.to_string(), NestedTriplet(*t).to_string());
        }
    }
}

/// The edges named once each, whatever the draw: the largest doubles
/// `{:?}` writes as integers, the first it writes in exponent form, and
/// the integer extremes.
#[test]
fn the_edges_of_the_integral_fast_path_render_as_debug() {
    let vals = [
        Value::F64(9_999_999_999_999_998.0),
        Value::F64(-9_999_999_999_999_998.0),
        Value::F64(1e16),
        Value::F64(-1e16),
        Value::F64(0.0),
        Value::F64(-0.0),
        Value::I64(i64::MIN),
        Value::I64(i64::MAX),
    ];
    let full = Section::new(vec![Triplet::range(-4, 3)]);
    let mut g = Gathered::new(full.clone());
    let mut want = Vec::new();
    for (k, idx) in full.iter().enumerate() {
        g.insert(&idx, k, vals[k]);
        let mut line = String::new();
        write!(line, "E{idx:?} p{k} = {:?}", vals[k]).unwrap();
        want.push(line);
    }
    let mut fp = Fingerprint::default();
    fp.record_memory("E", &g);
    assert_eq!(fp.memory["E"], want);
    assert_eq!(want[0], "E[-4] p0 = F64(9999999999999998.0)");
    assert_eq!(want[2], "E[-2] p2 = F64(1e16)");
    assert_eq!(want[5], "E[1] p5 = F64(-0.0)");
}
