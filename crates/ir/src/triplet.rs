//! Fortran-90 regular triplets `lb:ub:st`.
//!
//! A triplet denotes the arithmetic progression `lb, lb+st, lb+2*st, ... ≤ ub`
//! with a strictly positive stride. Triplets are the one-dimensional building
//! block of [`crate::section::Section`]s; the XDP paper assumes sections "are
//! defined by Fortran 90 triplet notation" (§2.1).

use std::fmt;

/// A one-dimensional regular section `lb:ub:st` with `st >= 1`.
///
/// The empty progression is represented canonically as `1:0:1` (any triplet
/// with `ub < lb` normalizes to it).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triplet {
    /// Lower bound (inclusive, first element of the progression).
    pub lb: i64,
    /// Upper bound (inclusive; the last element is the largest
    /// `lb + k*st <= ub`).
    pub ub: i64,
    /// Stride, always `>= 1`.
    pub st: i64,
}

impl Triplet {
    /// The canonical empty triplet.
    pub const EMPTY: Triplet = Triplet {
        lb: 1,
        ub: 0,
        st: 1,
    };

    /// `lb:ub:st`, normalized: empty ranges collapse to [`Triplet::EMPTY`],
    /// `ub` is clamped down to the last actual element, and a
    /// single-element triplet gets stride 1.
    ///
    /// # Panics
    /// Panics if `st < 1`; XDP sections use positive strides only.
    pub fn new(lb: i64, ub: i64, st: i64) -> Triplet {
        assert!(st >= 1, "triplet stride must be >= 1, got {st}");
        if ub < lb {
            return Triplet::EMPTY;
        }
        if st == 1 {
            return Triplet { lb, ub, st };
        }
        let last = lb + (ub - lb) / st * st;
        if last == lb {
            Triplet { lb, ub: lb, st: 1 }
        } else {
            Triplet { lb, ub: last, st }
        }
    }

    /// The degenerate triplet holding exactly `i`.
    pub fn point(i: i64) -> Triplet {
        Triplet {
            lb: i,
            ub: i,
            st: 1,
        }
    }

    /// `lb:ub:1`.
    pub fn range(lb: i64, ub: i64) -> Triplet {
        Triplet::new(lb, ub, 1)
    }

    /// Number of elements in the progression.
    pub fn count(&self) -> i64 {
        if self.ub < self.lb {
            0
        } else if self.st == 1 {
            self.ub - self.lb + 1
        } else {
            (self.ub - self.lb) / self.st + 1
        }
    }

    /// True iff the progression has no elements.
    pub fn is_empty(&self) -> bool {
        self.ub < self.lb
    }

    /// True iff `i` is one of the progression's elements.
    pub fn contains(&self, i: i64) -> bool {
        i >= self.lb && i <= self.ub && (self.st == 1 || (i - self.lb) % self.st == 0)
    }

    /// The `k`-th element (0-based). `None` when out of range.
    pub fn nth(&self, k: i64) -> Option<i64> {
        if k < 0 || k >= self.count() {
            None
        } else {
            Some(self.lb + k * self.st)
        }
    }

    /// 0-based position of `i` within the progression, if present.
    pub fn index_of(&self, i: i64) -> Option<i64> {
        if !self.contains(i) {
            None
        } else if self.st == 1 {
            Some(i - self.lb)
        } else {
            Some((i - self.lb) / self.st)
        }
    }

    /// Iterate the progression's elements in increasing order.
    pub fn iter(&self) -> TripletIter {
        TripletIter {
            next: self.lb,
            t: *self,
        }
    }

    /// Intersection of two arithmetic progressions, itself a triplet: the
    /// common solutions of `x ≡ lb1 (mod s1)`, `x ≡ lb2 (mod s2)` over
    /// `[max(lb), min(ub)]`, with stride `lcm(s1, s2)`. Empty when the
    /// congruences are incompatible or the ranges are disjoint.
    ///
    /// The strides decide how much arithmetic that takes. Two dense
    /// triplets meet in the clipped range and nothing else; a dense one
    /// only clips the other's lattice; equal strides are the same lattice
    /// or disjoint ones. Those are the queries a run asks — a segment and
    /// a reference are dense or share the distribution's stride — and only
    /// incommensurate strides (a CYCLIC(3) piece against a CYCLIC(4) one in
    /// the redistribution planner) pay for CRT.
    pub fn intersect(&self, other: &Triplet) -> Triplet {
        if self.is_empty() || other.is_empty() {
            return Triplet::EMPTY;
        }
        let lo = self.lb.max(other.lb);
        let hi = self.ub.min(other.ub);
        if hi < lo {
            return Triplet::EMPTY;
        }
        let (m1, m2) = (self.st, other.st);
        if m1 == 1 && m2 == 1 {
            return Triplet {
                lb: lo,
                ub: hi,
                st: 1,
            };
        }
        if m1 == 1 {
            return other.within(lo, hi);
        }
        if m2 == 1 {
            return self.within(lo, hi);
        }
        if m1 == m2 {
            // One lattice or two disjoint ones; `lo` is the later start,
            // so on the one lattice it is the first common member.
            return if (lo - self.lb.min(other.lb)) % m1 == 0 {
                Triplet::new(lo, hi, m1)
            } else {
                Triplet::EMPTY
            };
        }
        // Solve x ≡ a1 (mod m1) and x ≡ a2 (mod m2) by CRT.
        let (a1, a2) = (self.lb.rem_euclid(m1), other.lb.rem_euclid(m2));
        let (g, p, _q) = ext_gcd(m1, m2);
        if (a2 - a1) % g != 0 {
            return Triplet::EMPTY;
        }
        let lcm = m1 / g * m2;
        // x = a1 + m1 * p * ((a2 - a1) / g)  (mod lcm)
        let mut x = a1
            + mod_mul(
                m1,
                mod_mul(
                    p.rem_euclid(lcm / m1),
                    ((a2 - a1) / g).rem_euclid(lcm / m1),
                    lcm / m1,
                ),
                lcm,
            );
        x = x.rem_euclid(lcm);
        // Smallest solution >= lo.
        let first = if x >= lo {
            x - (x - lo) / lcm * lcm
        } else {
            x + (lo - x + lcm - 1) / lcm * lcm
        };
        if first > hi {
            return Triplet::EMPTY;
        }
        Triplet::new(first, hi, lcm)
    }

    /// The members of `self` in `[lo, hi]`, for `self.lb <= lo <= hi <=
    /// self.ub`: the first one at or after `lo` (at most `self.ub`, itself
    /// a member), then the lattice.
    fn within(&self, lo: i64, hi: i64) -> Triplet {
        let past = (lo - self.lb) % self.st;
        let first = if past == 0 { lo } else { lo + (self.st - past) };
        Triplet::new(first, hi, self.st)
    }

    /// Does `self` wholly contain `other` (every element of `other` is an
    /// element of `self`)? Decided on the normal form: `other`'s ends are
    /// members of it, so it lies inside iff its first element is a member
    /// of `self`, its last is not past `self`'s, and — when it has a
    /// second element — its steps are whole steps of `self`.
    pub fn covers(&self, other: &Triplet) -> bool {
        other.is_empty()
            || (self.contains(other.lb)
                && other.ub <= self.ub
                && (other.lb == other.ub || self.st == 1 || other.st % self.st == 0))
    }

    /// Translate the progression by `delta`.
    pub fn shift(&self, delta: i64) -> Triplet {
        if self.is_empty() {
            *self
        } else {
            Triplet {
                lb: self.lb + delta,
                ub: self.ub + delta,
                st: self.st,
            }
        }
    }
}

/// Iterator over a triplet's elements.
pub struct TripletIter {
    next: i64,
    t: Triplet,
}

impl Iterator for TripletIter {
    type Item = i64;
    fn next(&mut self) -> Option<i64> {
        if self.next > self.t.ub {
            None
        } else {
            let v = self.next;
            self.next += self.t.st;
            Some(v)
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = if self.next > self.t.ub {
            0
        } else {
            ((self.t.ub - self.next) / self.t.st + 1) as usize
        };
        (left, Some(left))
    }
}

impl ExactSizeIterator for TripletIter {}

impl fmt::Debug for Triplet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Triplet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("<empty>")
        } else if self.lb == self.ub {
            write!(f, "{}", self.lb)
        } else if self.st == 1 {
            write!(f, "{}:{}", self.lb, self.ub)
        } else {
            write!(f, "{}:{}:{}", self.lb, self.ub, self.st)
        }
    }
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
fn ext_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = ext_gcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// `(a * b) mod m` for any `i64` operands: in `i64` when the product fits
/// (a 128-bit remainder is a library call, several times the division it
/// stands for), in `i128` when it does not.
fn mod_mul(a: i64, b: i64, m: i64) -> i64 {
    match a.checked_mul(b) {
        Some(product) => product.rem_euclid(m),
        None => ((a as i128 * b as i128).rem_euclid(m as i128)) as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_membership() {
        let t = Triplet::new(1, 10, 3); // 1,4,7,10
        assert_eq!(t.count(), 4);
        assert!(t.contains(7));
        assert!(!t.contains(8));
        assert!(!t.contains(13));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![1, 4, 7, 10]);
    }

    #[test]
    fn normalization_clamps_ub() {
        let t = Triplet::new(1, 11, 3); // 1,4,7,10 -> ub clamps to 10
        assert_eq!(t, Triplet::new(1, 10, 3));
        assert_eq!(t.ub, 10);
    }

    #[test]
    fn empty_forms() {
        assert!(Triplet::new(5, 4, 1).is_empty());
        assert_eq!(Triplet::new(5, 4, 7), Triplet::EMPTY);
        assert_eq!(Triplet::EMPTY.count(), 0);
        assert_eq!(Triplet::EMPTY.iter().count(), 0);
    }

    #[test]
    fn single_element_normalizes_stride() {
        assert_eq!(Triplet::new(3, 5, 9), Triplet::point(3));
    }

    #[test]
    fn nth_and_index_of_roundtrip() {
        let t = Triplet::new(2, 20, 4);
        for k in 0..t.count() {
            let v = t.nth(k).unwrap();
            assert_eq!(t.index_of(v), Some(k));
        }
        assert_eq!(t.nth(-1), None);
        assert_eq!(t.nth(t.count()), None);
        assert_eq!(t.index_of(3), None);
    }

    #[test]
    fn intersect_same_stride() {
        let a = Triplet::new(1, 100, 2); // odds
        let b = Triplet::new(51, 200, 2); // odds from 51
        assert_eq!(a.intersect(&b), Triplet::new(51, 99, 2));
    }

    #[test]
    fn intersect_coprime_strides() {
        let a = Triplet::new(0, 100, 3); // 0,3,6,...
        let b = Triplet::new(0, 100, 5); // 0,5,10,...
        assert_eq!(a.intersect(&b), Triplet::new(0, 90, 15));
    }

    #[test]
    fn intersect_incompatible_congruence() {
        let a = Triplet::new(0, 100, 2); // evens
        let b = Triplet::new(1, 101, 2); // odds
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn intersect_offset_strides() {
        let a = Triplet::new(2, 50, 6); // 2,8,14,20,26,...  ≡2 mod 6
        let b = Triplet::new(8, 40, 4); // 8,12,16,20,...    ≡0 mod 4
                                        // common: ≡8 mod 12 -> 8,20,32 within [8,40]
        assert_eq!(a.intersect(&b), Triplet::new(8, 32, 12));
    }

    #[test]
    fn intersect_disjoint_ranges() {
        let a = Triplet::range(1, 10);
        let b = Triplet::range(11, 20);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn intersect_brute_force_small() {
        // Exhaustive check against element-wise intersection.
        for lb1 in 0..5 {
            for st1 in 1..5 {
                for lb2 in 0..5 {
                    for st2 in 1..5 {
                        let a = Triplet::new(lb1, 24, st1);
                        let b = Triplet::new(lb2, 24, st2);
                        let got: Vec<i64> = a.intersect(&b).iter().collect();
                        let want: Vec<i64> = a.iter().filter(|i| b.contains(*i)).collect();
                        assert_eq!(got, want, "a={a} b={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn mod_mul_is_exact_where_the_product_overflows() {
        let wide = |a: i64, b: i64, m: i64| ((a as i128 * b as i128).rem_euclid(m as i128)) as i64;
        let big = [
            i64::MAX,
            i64::MAX - 6,
            1 << 62,
            (1 << 40) + 17,
            -(1 << 61) - 3,
        ];
        for a in big {
            for b in big {
                for m in [7, (1 << 40) - 87, i64::MAX] {
                    assert_eq!(mod_mul(a, b, m), wide(a, b, m), "{a} * {b} mod {m}");
                    assert_eq!(mod_mul(a, 12, m), wide(a, 12, m), "{a} * 12 mod {m}");
                }
            }
        }
        // A stride wide enough that CRT's inner product leaves `i64`.
        let (m1, m2) = (3, (1 << 40) + 15);
        let a = Triplet::new(1, 1 << 60, m1);
        let b = Triplet::new((1 << 39) + 2, 1 << 60, m2);
        let r = a.intersect(&b);
        assert!(a.contains(r.lb) && b.contains(r.lb) && a.contains(r.ub) && b.contains(r.ub));
        assert_eq!(r.st, m1 * m2);
        assert!(
            r.lb - r.st < b.lb && r.ub + r.st > b.ub,
            "{r} is all of them"
        );
    }

    #[test]
    fn covers() {
        let a = Triplet::new(1, 100, 1);
        assert!(a.covers(&Triplet::new(10, 50, 7)));
        assert!(!Triplet::new(1, 10, 2).covers(&Triplet::range(1, 2)));
        assert!(Triplet::new(1, 9, 2).covers(&Triplet::new(3, 7, 4)));
        // Everything covers empty.
        assert!(Triplet::EMPTY.covers(&Triplet::EMPTY));
        assert!(!Triplet::EMPTY.covers(&Triplet::point(1)));
    }

    #[test]
    fn shift() {
        assert_eq!(Triplet::new(1, 7, 3).shift(10), Triplet::new(11, 17, 3));
        assert!(Triplet::EMPTY.shift(5).is_empty());
    }

    #[test]
    fn display() {
        assert_eq!(Triplet::new(1, 8, 1).to_string(), "1:8");
        assert_eq!(Triplet::new(1, 8, 2).to_string(), "1:7:2");
        assert_eq!(Triplet::point(4).to_string(), "4");
        assert_eq!(Triplet::EMPTY.to_string(), "<empty>");
    }
}
