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
//! The root package runs this file too (`tests/section_algebra.rs`), so
//! tier-1 sees it.

use proptest::prelude::*;
use xdp_ir::Triplet;

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
