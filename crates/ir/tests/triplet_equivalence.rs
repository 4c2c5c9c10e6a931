//! The triplet algebra against its member-wise definition.
//!
//! `Triplet::intersect` and `Triplet::covers` answer every run-time
//! ownership query (§3.1: "intersecting the query with all segments") and
//! every compile-time one (`analysis::Owners`), so how they decide may
//! change only if what they answer does not. Three oracles, none of which
//! shares arithmetic with the implementation:
//!
//! * an exhaustive grid, where a triplet's members are a bitmask over
//!   `-8..=8` and the normal form is rebuilt from the mask;
//! * a proptest over values to 2^40 and strides to 2^20 whose operands
//!   are built around a known common member, so the common members' count
//!   follows from `lcm` alone, and where `covers` is held to its old
//!   definition (`a.intersect(b).count() == b.count()`);
//! * literal answers on the `i64::MAX` / `i64::MIN` sentinels `mylb` /
//!   `myub` return for an empty ownership, which reach a `Triplet` as a
//!   subscript (ROADMAP item 4a).
//!
//! The symbol table asks its questions of a segment through `Section`'s
//! allocation-free queries, each of which must answer what the section
//! `intersect` builds would: `intersect_volume` its volume, `intersect_dim`
//! its dimension when it is non-empty, `overlaps` whether it is non-empty.
//! They are held to that on rank 0, on every rank-1 pair of a small grid,
//! on rank-2 sections of empty, strided, incommensurate and sentinel
//! triplets, and on the proptest's wide operands.
//!
//! The root package runs this file too (`tests/section_algebra.rs`), so
//! tier-1 sees it.

use proptest::prelude::*;
use xdp_ir::{Section, Triplet};

const LO: i64 = -8;
const HI: i64 = 8;
const MAX_ST: i64 = 7;

/// Members of `lb:ub:st` by the definition — `lb, lb+st, … ≤ ub` — as a
/// bitmask over `LO..=HI`.
fn members(lb: i64, ub: i64, st: i64) -> u32 {
    let mut mask = 0u32;
    let mut i = lb;
    while i <= ub {
        mask |= 1 << (i - LO);
        i += st;
    }
    mask
}

/// The one normal form of a member set: `EMPTY`, a point with stride 1, or
/// first:last:gap.
fn normal_form(mask: u32) -> Triplet {
    let mut it = (LO..=HI).filter(|i| mask & (1 << (i - LO)) != 0);
    match (it.next(), it.next(), it.next_back()) {
        (None, ..) => Triplet::EMPTY,
        (Some(only), None, _) => Triplet {
            lb: only,
            ub: only,
            st: 1,
        },
        (Some(first), Some(second), last) => Triplet {
            lb: first,
            ub: last.unwrap_or(second),
            st: second - first,
        },
    }
}

/// Every `(lb, ub, st)` of the grid with its member mask.
fn grid() -> Vec<(Triplet, u32)> {
    let mut out = Vec::new();
    for lb in LO..=HI {
        for ub in LO..=HI {
            for st in 1..=MAX_ST {
                out.push((Triplet::new(lb, ub, st), members(lb, ub, st)));
            }
        }
    }
    out
}

#[test]
fn grid_normal_form_count_contains_and_index_of_are_member_wise() {
    for (t, mask) in grid() {
        assert_eq!(t, normal_form(mask), "normal form of mask {mask:#b}");
        assert_eq!(t.count(), i64::from(mask.count_ones()), "{t}.count()");
        assert_eq!(t.is_empty(), mask == 0, "{t}.is_empty()");
        let mut position = 0;
        // Two past either end: a non-member outside the range as well.
        for i in LO - 2..=HI + 2 {
            let member = (LO..=HI).contains(&i) && mask & (1 << (i - LO)) != 0;
            assert_eq!(t.contains(i), member, "{t}.contains({i})");
            let want = member.then_some(position);
            assert_eq!(t.index_of(i), want, "{t}.index_of({i})");
            if member {
                assert_eq!(t.nth(position), Some(i), "{t}.nth({position})");
                position += 1;
            }
        }
    }
}

#[test]
fn grid_intersect_and_covers_are_member_wise() {
    let grid = grid();
    for (a, ma) in &grid {
        for (b, mb) in &grid {
            assert_eq!(a.intersect(b), normal_form(ma & mb), "{a} ∩ {b}");
            assert_eq!(a.covers(b), mb & !ma == 0, "{a}.covers({b})");
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A stride in `1..=2^20`, weighted towards the cases programs have: unit,
/// small, and anything.
fn stride() -> impl Strategy<Value = i64> {
    prop_oneof![Just(1i64), 1i64..8, 1i64..=(1 << 20)]
}

/// Two triplets on known residue classes: `a`'s members are `≡ x0 (mod
/// a.st)` and `b`'s `≡ x0 + delta (mod b.st)`, with `delta` either 0 —
/// then the common members are exactly the `x ≡ x0 (mod lcm)` in both
/// ranges — or not a multiple of the strides' gcd — then there are none.
/// Returns `(a, b, x0, delta)`; |values| stay under 2^40.
fn operand_pair() -> impl Strategy<Value = (Triplet, Triplet, i64, i64)> {
    (
        -(1i64 << 39)..(1i64 << 39),
        stride(),
        (0u8..3, 1i64..5, stride()),
        (-1000i64..1000, -1000i64..1000),
        (-1000i64..1000, -1000i64..1000),
        0i64..(1 << 20),
    )
        .prop_map(|(x0, s1, (kind, m, other), (p1, q1), (p2, q2), d)| {
            let s2 = match kind {
                0 => s1,
                1 => (s1 * m).min(1 << 20),
                _ => other,
            };
            let delta = d % gcd(s1, s2);
            let a = Triplet::new(x0 + p1 * s1, x0 + q1 * s1, s1);
            let b = Triplet::new(x0 + delta + p2 * s2, x0 + delta + q2 * s2, s2);
            (a, b, x0, delta)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn intersect_is_the_common_members_counted_from_lcm(pair in operand_pair()) {
        let (a, b, x0, delta) = pair;
        let r = a.intersect(&b);
        prop_assert_eq!(r, b.intersect(&a), "commutes");
        prop_assert_eq!(r, Triplet::new(r.lb, r.ub, r.st), "normal form");

        // The result is a subset of both operands: its ends are members
        // of both, and its stride keeps every step inside both lattices.
        if !r.is_empty() {
            for end in [r.lb, r.ub] {
                prop_assert!(a.contains(end) && b.contains(end), "{} of {}", end, r);
            }
            prop_assert!(r.count() == 1 || (r.st % a.st == 0 && r.st % b.st == 0));
        }

        // ... and it is all of them.
        let lcm = a.st / gcd(a.st, b.st) * b.st;
        let (lo, hi) = (a.lb.max(b.lb), a.ub.min(b.ub));
        let common = if a.is_empty() || b.is_empty() || hi < lo || delta != 0 {
            0
        } else {
            (hi - x0).div_euclid(lcm) - (lo - 1 - x0).div_euclid(lcm)
        };
        prop_assert_eq!(r.count(), common, "{} ∩ {} = {}", a, b, r);

        // `covers` by the definition it had while it called `intersect`.
        prop_assert_eq!(a.covers(&b), r.count() == b.count(), "{}.covers({})", a, b);
        prop_assert_eq!(b.covers(&a), r.count() == a.count(), "{}.covers({})", b, a);
    }

    #[test]
    fn section_queries_read_the_wide_intersection(rows in operand_pair(), cols in operand_pair()) {
        let a = Section::new(vec![rows.0, cols.0]);
        let b = Section::new(vec![rows.1, cols.1]);
        prop_assert_eq!(query_mismatch(&a, &b), None);
    }
}

/// Where `a`'s allocation-free queries against `b` disagree with the
/// section `a.intersect(b)` builds, in either operand order.
fn query_mismatch(a: &Section, b: &Section) -> Option<String> {
    for (x, y) in [(a, b), (b, a)] {
        let built = x.intersect(y);
        if x.intersect_volume(y) != built.volume() {
            return Some(format!("{x}.intersect_volume({y}) vs {built}"));
        }
        if x.overlaps(y) == built.is_empty() {
            return Some(format!("{x}.overlaps({y}) vs {built}"));
        }
        for d in 0..x.rank() {
            let want = (!built.is_empty()).then(|| built.dim(d));
            if x.intersect_dim(y, d) != want {
                return Some(format!("{x}.intersect_dim({y}, {d}) vs {built}"));
            }
        }
    }
    None
}

#[test]
fn section_queries_read_the_intersection() {
    // Rank 0: the one scalar element always meets itself.
    let scalar = Section::scalar();
    assert_eq!(query_mismatch(&scalar, &scalar), None);
    assert_eq!(scalar.intersect_volume(&scalar), 1);
    assert!(scalar.overlaps(&scalar));

    // Rank 1: every pair of a grid small enough to square.
    let mut line = Vec::new();
    for lb in -4..=4 {
        for ub in -4..=4 {
            for st in 1..=4 {
                line.push(Section::new(vec![Triplet::new(lb, ub, st)]));
            }
        }
    }
    for a in &line {
        for b in &line {
            assert_eq!(query_mismatch(a, b), None);
        }
    }

    // Rank 2: empty, dense, strided, incommensurate strides (2, 3, 4, 6)
    // and the empty-ownership sentinels, in every pairing of dimensions.
    // `1:i64::MAX` is left out here: beside a second dimension its volume
    // leaves `i64`, for the built section as for the query.
    const MAX: i64 = i64::MAX;
    const MIN: i64 = i64::MIN;
    let dims = [
        Triplet::EMPTY,
        Triplet::range(1, 10),
        Triplet::new(1, 9, 2),
        Triplet::new(2, 14, 3),
        Triplet::new(3, 99, 4),
        Triplet::new(-6, 12, 6),
        Triplet::point(5),
        Triplet::point(MAX),
        Triplet::point(MIN),
        Triplet::new(MIN, MIN + 10, 1),
    ];
    let mut plane = Vec::new();
    for r in dims {
        for c in dims {
            plane.push(Section::new(vec![r, c]));
        }
    }
    for a in &plane {
        for b in &plane {
            assert_eq!(query_mismatch(a, b), None);
        }
    }

    // The sentinels' answers, literally.
    let up = Section::new(vec![Triplet::range(1, MAX)]);
    let row = Section::new(vec![Triplet::range(1, 10)]);
    let top = Section::new(vec![Triplet::point(MAX)]);
    assert_eq!(query_mismatch(&up, &row), None);
    assert_eq!(query_mismatch(&up, &top), None);
    assert_eq!(up.intersect_volume(&up), MAX);
    assert_eq!(up.intersect_volume(&top), 1);
    assert_eq!(row.intersect_volume(&top), 0);
    assert_eq!(up.intersect_dim(&row, 0), Some(Triplet::range(1, 10)));
    assert_eq!(row.intersect_dim(&top, 0), None);
    assert!(!row.overlaps(&top) && up.overlaps(&top));
}

/// What the algebra answers on the empty-ownership sentinels. Every
/// expression but the last block evaluated without overflow in a debug
/// build while `intersect` was CRT throughout, and answered this.
#[test]
fn sentinel_answers_are_pinned() {
    const MAX: i64 = i64::MAX;
    const MIN: i64 = i64::MIN;
    let raw = |lb, ub, st| Triplet { lb, ub, st };

    // `mylb:myub` of an empty ownership is an empty range at any stride.
    assert_eq!(Triplet::new(MAX, MIN, 1), Triplet::EMPTY);
    assert_eq!(Triplet::new(MAX, MIN, 7), Triplet::EMPTY);
    assert_eq!(Triplet::range(MAX, 10), Triplet::EMPTY);
    assert_eq!(Triplet::range(1, MIN), Triplet::EMPTY);

    // A sentinel as a subscript is a point no segment holds.
    let (top, bottom) = (Triplet::point(MAX), Triplet::point(MIN));
    let row = Triplet::range(1, 10);
    let odd = Triplet::new(1, 9, 2);
    for seg in [row, odd] {
        for p in [top, bottom] {
            assert_eq!(seg.intersect(&p), Triplet::EMPTY, "{seg} ∩ {p}");
            assert_eq!(p.intersect(&seg), Triplet::EMPTY, "{p} ∩ {seg}");
            assert!(!seg.covers(&p), "{seg}.covers({p})");
            assert!(!p.covers(&seg), "{p}.covers({seg})");
        }
    }
    assert_eq!((top.count(), bottom.count()), (1, 1));
    assert!(top.contains(MAX) && !top.contains(MAX - 1));
    assert!(bottom.contains(MIN) && !bottom.contains(MIN + 1));
    assert_eq!(top.index_of(MAX), Some(0));
    assert!(!row.contains(MAX) && !row.contains(MIN));
    assert!(!odd.contains(MAX) && !odd.contains(MIN));
    assert_eq!(odd.index_of(MIN), None);

    // One sentinel as a bound: ranges that reach an end of `i64`.
    let up = Triplet::range(1, MAX);
    assert_eq!(up, raw(1, MAX, 1));
    assert_eq!(up.count(), MAX);
    assert!(up.contains(MAX) && !up.contains(0));
    assert_eq!(up.index_of(MAX), Some(MAX - 1));
    assert_eq!(up.intersect(&row), row);
    assert_eq!(row.intersect(&up), row);
    assert_eq!(up.intersect(&Triplet::new(3, 99, 4)), raw(3, 99, 4));
    assert_eq!(Triplet::new(3, 99, 4).intersect(&up), raw(3, 99, 4));
    assert!(up.covers(&row) && up.covers(&odd));
    assert!(!row.covers(&up));

    let down = Triplet::new(MIN, MIN + 10, 1);
    assert_eq!(down, raw(MIN, MIN + 10, 1));
    assert_eq!(down.count(), 11);
    assert_eq!(
        down.intersect(&Triplet::range(MIN + 5, 0)),
        raw(MIN + 5, MIN + 10, 1)
    );
    assert!(!down.covers(&row));

    // Dense operands that meet at an end of `i64`: the CRT body overflowed
    // here in a debug build (`lo - x + lcm - 1` at `lo = i64::MAX`); the
    // unit-stride form has no arithmetic to overflow.
    assert_eq!(top.intersect(&top), top);
    assert_eq!(up.intersect(&top), top);
    assert_eq!(down.intersect(&bottom), bottom);
    assert!(top.covers(&top) && up.covers(&top) && down.covers(&bottom));
}
