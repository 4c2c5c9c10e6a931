//! Rank-k regular sections: cross products of [`Triplet`]s.
//!
//! A *section* of a variable is "either a scalar variable or some subset of
//! an array's elements" (§2.1); here, the subset is the cross product of one
//! triplet per dimension — the regular sections of Fortran 90. Sections are
//! the unit of XDP data and ownership transfer and the argument of every
//! intrinsic.

use crate::triplet::Triplet;
use std::fmt;

/// A regular array section: one triplet per dimension.
///
/// Scalars are rank-0 sections (empty triplet vector) with exactly one
/// element.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Section {
    dims: Vec<Triplet>,
}

impl Section {
    /// Build a section from per-dimension triplets.
    pub fn new(dims: Vec<Triplet>) -> Section {
        Section { dims }
    }

    /// The rank-0 scalar section (a single element, no indices).
    pub fn scalar() -> Section {
        Section { dims: Vec::new() }
    }

    /// A single point `[i1, i2, ...]`.
    pub fn point(idx: &[i64]) -> Section {
        Section {
            dims: idx.iter().map(|&i| Triplet::point(i)).collect(),
        }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension triplets.
    pub fn dims(&self) -> &[Triplet] {
        &self.dims
    }

    /// Give up the triplet vector, for a later [`Section::new`] to reuse.
    pub fn into_dims(self) -> Vec<Triplet> {
        self.dims
    }

    /// The triplet for dimension `d` (0-based).
    pub fn dim(&self, d: usize) -> Triplet {
        self.dims[d]
    }

    /// Total number of elements (product of per-dim counts; 1 for scalars).
    pub fn volume(&self) -> i64 {
        self.dims.iter().map(|t| t.count()).product()
    }

    /// True iff the section has no elements.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(|t| t.is_empty())
    }

    /// Empty the section in place, keeping its rank: every dimension
    /// becomes [`Triplet::EMPTY`], and nothing is allocated.
    pub fn clear(&mut self) {
        self.dims.fill(Triplet::EMPTY);
    }

    /// Per-dimension element counts (the section's *shape*).
    pub fn extents(&self) -> Vec<i64> {
        self.dims.iter().map(|t| t.count()).collect()
    }

    /// True iff `idx` is an element of the section.
    pub fn contains(&self, idx: &[i64]) -> bool {
        idx.len() == self.rank() && self.dims.iter().zip(idx).all(|(t, &i)| t.contains(i))
    }

    /// Dimension-wise intersection (the intersection of regular sections is
    /// regular).
    pub fn intersect(&self, other: &Section) -> Section {
        let dims = self.meet(other);
        if self.is_empty() || other.is_empty() {
            return Section::new(self.dims.iter().map(|_| Triplet::EMPTY).collect());
        }
        Section {
            dims: dims.collect(),
        }
    }

    /// The per-dimension intersections, lazily: what the queries below read
    /// of [`Section::intersect`] without building it.
    pub fn meet<'a>(&'a self, other: &'a Section) -> impl Iterator<Item = Triplet> + 'a {
        assert_eq!(self.rank(), other.rank(), "rank mismatch in intersect");
        self.dims
            .iter()
            .zip(&other.dims)
            .map(|(a, b)| a.intersect(b))
    }

    /// `self.intersect(other).volume()`, computed on the triplets.
    pub fn intersect_volume(&self, other: &Section) -> i64 {
        let mut volume = 1;
        for t in self.meet(other) {
            if t.is_empty() {
                return 0;
            }
            volume *= t.count();
        }
        volume
    }

    /// Dimension `d` of the intersection when it is non-empty —
    /// `self.intersect(other).dim(d)` — and `None` when it is empty.
    pub fn intersect_dim(&self, other: &Section, d: usize) -> Option<Triplet> {
        let mut hit = None;
        for (k, t) in self.meet(other).enumerate() {
            if t.is_empty() {
                return None;
            }
            if k == d {
                hit = Some(t);
            }
        }
        Some(hit.unwrap_or_else(|| panic!("dimension {d} of a rank-{} section", self.rank())))
    }

    /// Does `self` wholly contain `other`?
    pub fn covers(&self, other: &Section) -> bool {
        if other.is_empty() {
            return true;
        }
        assert_eq!(self.rank(), other.rank(), "rank mismatch in covers");
        self.dims.iter().zip(&other.dims).all(|(a, b)| a.covers(b))
    }

    /// Is the union of `parts` exactly `self`, assuming the parts are
    /// pairwise disjoint? (The §3.1 `iown()` algorithm: intersect the query
    /// with every segment; because segments partition the local data, the
    /// union covers the query iff the intersection volumes sum to the query
    /// volume.)
    pub fn covered_by_disjoint(&self, parts: &[Section]) -> bool {
        let total: i64 = parts.iter().map(|p| self.intersect_volume(p)).sum();
        total == self.volume()
    }

    /// Is the union of (possibly overlapping) `parts` a superset of `self`?
    /// Exact but enumerative; intended for tests and small sections.
    pub fn covered_by(&self, parts: &[Section]) -> bool {
        self.iter()
            .all(|idx| parts.iter().any(|p| p.contains(&idx)))
    }

    /// True iff the two sections share at least one element.
    pub fn overlaps(&self, other: &Section) -> bool {
        self.meet(other).all(|t| !t.is_empty())
    }

    /// Iterate all elements in row-major (last dimension fastest) order.
    pub fn iter(&self) -> SectionIter<'_> {
        SectionIter::new(self)
    }

    /// Step `idx`, an element of the section, to its row-major successor
    /// in place (innermost dimension fastest, the order [`Section::iter`]
    /// yields, without its per-element allocation). The last element wraps
    /// to the first.
    pub fn advance(&self, idx: &mut [i64]) {
        self.advance_dims(idx, self.rank());
    }

    /// Step `idx` to the start of the next row: [`Section::advance`] over
    /// every dimension but the innermost.
    pub fn advance_row(&self, idx: &mut [i64]) {
        self.advance_dims(idx, self.rank().saturating_sub(1));
    }

    fn advance_dims(&self, idx: &mut [i64], dims: usize) {
        for d in (0..dims).rev() {
            let t = self.dims[d];
            idx[d] += t.st;
            if idx[d] <= t.ub {
                return;
            }
            idx[d] = t.lb;
        }
    }

    /// Row-major ordinal of `idx` within the section, if present.
    pub fn ordinal_of(&self, idx: &[i64]) -> Option<i64> {
        if !self.contains(idx) {
            return None;
        }
        let mut ord = 0i64;
        for (t, &i) in self.dims.iter().zip(idx) {
            ord = ord * t.count() + t.index_of(i).unwrap();
        }
        Some(ord)
    }

    /// The `ord`-th element in row-major order.
    pub fn nth(&self, ord: i64) -> Option<Vec<i64>> {
        if ord < 0 || ord >= self.volume() {
            return None;
        }
        let mut idx = vec![0i64; self.rank()];
        let mut rem = ord;
        for d in (0..self.rank()).rev() {
            let c = self.dims[d].count();
            idx[d] = self.dims[d].nth(rem % c).unwrap();
            rem /= c;
        }
        Some(idx)
    }

    /// Translate by a per-dimension delta.
    pub fn shift(&self, delta: &[i64]) -> Section {
        assert_eq!(delta.len(), self.rank());
        Section {
            dims: self
                .dims
                .iter()
                .zip(delta)
                .map(|(t, &d)| t.shift(d))
                .collect(),
        }
    }

    /// Do `self` and `other` have the same shape (conformable for
    /// element-wise assignment)?
    pub fn conformable(&self, other: &Section) -> bool {
        self.volume() == other.volume()
            && (self.extents() == other.extents()
                || self.volume() <= 1
                || squeeze(&self.extents()) == squeeze(&other.extents()))
    }
}

/// Drop unit dimensions (Fortran conformability ignores them).
fn squeeze(ext: &[i64]) -> Vec<i64> {
    ext.iter().copied().filter(|&e| e != 1).collect()
}

/// Row-major iterator over a section's element indices.
pub struct SectionIter<'a> {
    sec: &'a Section,
    next_ord: i64,
    volume: i64,
}

impl<'a> SectionIter<'a> {
    fn new(sec: &'a Section) -> Self {
        SectionIter {
            sec,
            next_ord: 0,
            volume: sec.volume(),
        }
    }
}

impl<'a> Iterator for SectionIter<'a> {
    type Item = Vec<i64>;
    fn next(&mut self) -> Option<Vec<i64>> {
        if self.next_ord >= self.volume {
            None
        } else {
            let v = self.sec.nth(self.next_ord);
            self.next_ord += 1;
            v
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.volume - self.next_ord).max(0) as usize;
        (left, Some(left))
    }
}

impl<'a> ExactSizeIterator for SectionIter<'a> {}

impl fmt::Debug for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Each triplet is written straight into `f`, with no `write!` around it:
/// a section is rendered per message by the trace recorder.
impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, t) in self.dims.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            fmt::Display::fmt(t, f)?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec(dims: &[(i64, i64, i64)]) -> Section {
        Section::new(
            dims.iter()
                .map(|&(l, u, s)| Triplet::new(l, u, s))
                .collect(),
        )
    }

    #[test]
    fn volume_and_extents() {
        let s = sec(&[(1, 4, 1), (1, 8, 2)]);
        assert_eq!(s.volume(), 16);
        assert_eq!(s.extents(), vec![4, 4]);
        assert_eq!(Section::scalar().volume(), 1);
    }

    #[test]
    fn contains() {
        let s = sec(&[(1, 4, 1), (1, 8, 2)]);
        assert!(s.contains(&[2, 3]));
        assert!(!s.contains(&[2, 4]));
        assert!(!s.contains(&[5, 3]));
        assert!(Section::scalar().contains(&[]));
    }

    #[test]
    fn intersect_2d() {
        let a = sec(&[(1, 4, 1), (1, 8, 1)]);
        let b = sec(&[(3, 6, 1), (5, 12, 1)]);
        assert_eq!(a.intersect(&b), sec(&[(3, 4, 1), (5, 8, 1)]));
    }

    #[test]
    fn intersect_empty_when_any_dim_empty() {
        let a = sec(&[(1, 4, 1), (1, 8, 1)]);
        let b = sec(&[(5, 6, 1), (5, 12, 1)]);
        assert!(a.intersect(&b).is_empty());
        assert_eq!(a.intersect(&b).volume(), 0);
    }

    #[test]
    fn paper_iown_example() {
        // §3.1: C[1:4,1:8] (BLOCK,BLOCK) on 2x2, P3 owns rows 3:4, cols 5:8,
        // segmented 2x1 -> wait, paper says 1x2 segments; its four segments:
        // (3:4,5), (3:4,6), (3:4,7), (3:4,8) under 2x1 shape. Query
        // iown(C[1,5:7]) on P3 must be FALSE (row 1 unowned); the paper's
        // walk-through queries the *intersections* {(1,5),(1,6),(1,7),null}
        // against a P3 that owns row 1 — we reproduce the covering logic.
        let query = sec(&[(1, 1, 1), (5, 7, 1)]);
        let segs = vec![
            sec(&[(1, 2, 1), (5, 5, 1)]),
            sec(&[(1, 2, 1), (6, 6, 1)]),
            sec(&[(1, 2, 1), (7, 7, 1)]),
            sec(&[(1, 2, 1), (8, 8, 1)]),
        ];
        assert!(query.covered_by_disjoint(&segs));
        assert!(query.covered_by(&segs));
        // Remove one segment: no longer covered.
        assert!(!query.covered_by_disjoint(&segs[..2]));
    }

    #[test]
    fn covered_by_disjoint_matches_enumeration() {
        let q = sec(&[(2, 7, 1), (1, 5, 2)]);
        let parts = vec![sec(&[(1, 4, 1), (1, 5, 2)]), sec(&[(5, 8, 1), (1, 5, 2)])];
        assert!(q.covered_by_disjoint(&parts));
        assert!(q.covered_by(&parts));
        let parts2 = vec![sec(&[(1, 4, 1), (1, 5, 2)])];
        assert!(!q.covered_by_disjoint(&parts2));
        assert!(!q.covered_by(&parts2));
    }

    #[test]
    fn ordinal_roundtrip() {
        let s = sec(&[(1, 3, 1), (2, 8, 3)]);
        for ord in 0..s.volume() {
            let idx = s.nth(ord).unwrap();
            assert_eq!(s.ordinal_of(&idx), Some(ord));
        }
        assert_eq!(s.nth(s.volume()), None);
        assert_eq!(s.ordinal_of(&[1, 3]), None);
    }

    #[test]
    fn iter_row_major() {
        let s = sec(&[(1, 2, 1), (5, 7, 2)]);
        let got: Vec<Vec<i64>> = s.iter().collect();
        assert_eq!(got, vec![vec![1, 5], vec![1, 7], vec![2, 5], vec![2, 7]]);
    }

    #[test]
    fn advance_walks_in_iter_order_and_wraps() {
        let s = sec(&[(1, 2, 1), (5, 9, 2), (0, 1, 1)]);
        let mut idx = vec![1, 5, 0];
        for want in s.iter() {
            assert_eq!(idx, want);
            s.advance(&mut idx);
        }
        assert_eq!(idx, vec![1, 5, 0], "the last element wraps to the first");
        s.advance_row(&mut idx);
        assert_eq!(
            idx,
            vec![1, 7, 0],
            "rows step every dimension but the innermost"
        );
    }

    #[test]
    fn conformable() {
        assert!(sec(&[(1, 4, 1)]).conformable(&sec(&[(11, 14, 1)])));
        assert!(sec(&[(1, 4, 1)]).conformable(&sec(&[(1, 1, 1), (1, 4, 1)])));
        assert!(!sec(&[(1, 4, 1)]).conformable(&sec(&[(1, 5, 1)])));
        assert!(sec(&[(1, 1, 1)]).conformable(&Section::scalar()));
    }

    #[test]
    fn shift() {
        let s = sec(&[(1, 4, 1), (2, 8, 2)]);
        assert_eq!(s.shift(&[10, -1]), sec(&[(11, 14, 1), (1, 7, 2)]));
    }

    #[test]
    fn display() {
        assert_eq!(sec(&[(1, 4, 1), (5, 5, 1)]).to_string(), "[1:4,5]");
        assert_eq!(Section::scalar().to_string(), "[]");
    }
}
