//! HPF-style data distributions and the ownership maps they induce.
//!
//! The paper's reference implementation assumes "a fixed, known processor
//! grid and partitioning as allowed in HPF" (§3). A [`Distribution`] gives
//! each array dimension a [`DimDist`] — collapsed (`*`), `BLOCK`, `CYCLIC`,
//! or `CYCLIC(b)` — and maps the distributed dimensions, in order, onto the
//! axes of a [`ProcGrid`].
//!
//! Different arrays in one program may view the same processors through
//! different logical grids (Figure 2 distributes `A` as `(*,BLOCK)` over a
//! linearized view of 4 processors while `B` uses a 2x2 grid); only the
//! total processor count must agree.
//!
//! Ownership here is the *initial, compile-time* ownership. Run-time
//! ownership transfer (the `-=>` / `<=-` statements) mutates the run-time
//! symbol table in `xdp-runtime`, not the `Distribution`.

use crate::expr::{IntBinOp, IntExpr};
use crate::grid::ProcGrid;
use crate::section::Section;
use crate::triplet::Triplet;
use std::fmt;

/// Distribution of a single array dimension.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DimDist {
    /// `*` — collapsed: the dimension is not partitioned.
    Star,
    /// `BLOCK` — contiguous chunks of size `ceil(n / np)`.
    Block,
    /// `CYCLIC` — round-robin single elements.
    Cyclic,
    /// `CYCLIC(b)` — round-robin blocks of `b` elements.
    BlockCyclic(i64),
}

impl DimDist {
    /// Does this dimension consume a processor-grid axis?
    pub fn is_distributed(&self) -> bool {
        !matches!(self, DimDist::Star)
    }
}

impl fmt::Display for DimDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimDist::Star => write!(f, "*"),
            DimDist::Block => write!(f, "BLOCK"),
            DimDist::Cyclic => write!(f, "CYCLIC"),
            DimDist::BlockCyclic(b) => write!(f, "CYCLIC({b})"),
        }
    }
}

/// HPF-style alignment: own elements exactly as a base array owns the
/// mapped index (`ALIGN T(i, j) WITH A(j - c)` — ownership of `T[i,j]`
/// follows `A[j - c]`, with `T`'s dim 0 unconstrained). The compiler's
/// message-vectorization pass aligns communication temporaries with the
/// array whose owner consumes them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Alignment {
    /// The distribution of the base array.
    pub base: Distribution,
    /// The base array's full per-dimension bounds.
    pub base_bounds: Vec<Triplet>,
    /// For each of *this* array's dimensions: `Some((base_dim, offset))`
    /// maps index `i` to base index `i - offset` in `base_dim`; `None`
    /// leaves the dimension unconstrained (every distributed base
    /// dimension must be mapped).
    pub map: Vec<Option<(usize, i64)>>,
}

/// A full distribution: one [`DimDist`] per array dimension plus the
/// processor grid the distributed dimensions map onto, or an alignment to
/// another array's distribution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Distribution {
    dims: Vec<DimDist>,
    grid: ProcGrid,
    align: Option<Box<Alignment>>,
}

impl Distribution {
    /// Build a distribution. The number of non-`*` dimensions must equal the
    /// grid rank (HPF maps distributed dimensions to grid axes in order).
    /// Exception: an all-`*` distribution may pair with any linear grid —
    /// the grid then only records the machine size, and pid 0 owns the whole
    /// array by convention.
    pub fn new(dims: Vec<DimDist>, grid: ProcGrid) -> Distribution {
        let ndist = dims.iter().filter(|d| d.is_distributed()).count();
        assert!(
            ndist == grid.rank() || (ndist == 0 && grid.rank() == 1),
            "distribution has {ndist} distributed dims but grid {grid} has rank {}",
            grid.rank()
        );
        for d in &dims {
            if let DimDist::BlockCyclic(b) = d {
                assert!(*b >= 1, "CYCLIC({b}) block size must be >= 1");
            }
        }
        Distribution {
            dims,
            grid,
            align: None,
        }
    }

    /// Fully unpartitioned: every dimension collapsed, owned in full by
    /// processor 0 of an `nprocs`-processor machine.
    pub fn collapsed(rank: usize, nprocs: usize) -> Distribution {
        Distribution {
            dims: vec![DimDist::Star; rank],
            grid: ProcGrid::linear(nprocs),
            align: None,
        }
    }

    /// Align identically-ranked arrays: element `i` is owned by the owner
    /// of `base[i - offset]` under `base`'s distribution over
    /// `base_bounds`.
    pub fn aligned(
        base: Distribution,
        base_bounds: Vec<Triplet>,
        offset: Vec<i64>,
    ) -> Distribution {
        assert_eq!(offset.len(), base.rank());
        let map = offset
            .iter()
            .enumerate()
            .map(|(d, &o)| Some((d, o)))
            .collect();
        Distribution::aligned_map(base, base_bounds, map)
    }

    /// General alignment: per-dimension map into the base array's index
    /// space. Every *distributed* base dimension must be the image of some
    /// mapped dimension, otherwise ownership would be underdetermined.
    pub fn aligned_map(
        base: Distribution,
        base_bounds: Vec<Triplet>,
        map: Vec<Option<(usize, i64)>>,
    ) -> Distribution {
        assert!(
            base.align.is_none(),
            "cannot align to an aligned distribution"
        );
        assert_eq!(base_bounds.len(), base.rank());
        for (bd, dd) in base.dims.iter().enumerate() {
            if dd.is_distributed() {
                assert!(
                    map.iter().flatten().any(|&(d, _)| d == bd),
                    "distributed base dim {bd} is not mapped"
                );
            }
        }
        // The aligned array's own dims/grid are only descriptive; ownership
        // is entirely delegated. Use Star placeholders of this rank.
        let rank = map.len();
        Distribution {
            dims: vec![DimDist::Star; rank],
            grid: base.grid.clone(),
            align: Some(Box::new(Alignment {
                base,
                base_bounds,
                map,
            })),
        }
    }

    /// The alignment, if any.
    pub fn alignment(&self) -> Option<&Alignment> {
        self.align.as_deref()
    }

    /// True iff no dimension is distributed (pid 0 owns everything).
    pub fn is_collapsed(&self) -> bool {
        self.dims.iter().all(|d| !d.is_distributed())
    }

    /// Per-dimension distributions.
    pub fn dims(&self) -> &[DimDist] {
        &self.dims
    }

    /// The logical processor grid.
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// Array rank this distribution applies to.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total processors in the logical grid.
    pub fn nprocs(&self) -> usize {
        self.grid.nprocs()
    }

    /// The grid axis that array dimension `d` maps to, if distributed.
    pub fn grid_axis(&self, d: usize) -> Option<usize> {
        if !self.dims[d].is_distributed() {
            return None;
        }
        Some(self.dims[..d].iter().filter(|x| x.is_distributed()).count())
    }

    /// Grid coordinate owning index `i` of a dimension with full range
    /// `bound` under `dd`, on an axis of `np` processors.
    fn coord_of(dd: DimDist, bound: Triplet, i: i64, np: usize) -> usize {
        let n = bound.count();
        let off = i - bound.lb;
        debug_assert!(off >= 0 && off < n, "index {i} outside bound {bound}");
        let np = np as i64;
        let c = match dd {
            DimDist::Star => 0,
            DimDist::Block => {
                let chunk = (n + np - 1) / np;
                off / chunk
            }
            DimDist::Cyclic => off % np,
            DimDist::BlockCyclic(b) => (off / b) % np,
        };
        c as usize
    }

    /// [`Distribution::owner_of`] as an expression: the pid owning index
    /// `g` of dimension `d` — `coord_of` spelled in the IL, arm for arm, so
    /// it is right for every in-bounds `g` by construction. Only where
    /// that one coordinate *is* the pid: a plain distribution over a
    /// one-axis grid, `d` its distributed dimension.
    pub fn owner_expr(&self, bounds: &[Triplet], d: usize, g: IntExpr) -> Option<IntExpr> {
        if self.align.is_some() || self.grid.rank() != 1 {
            return None;
        }
        let bin = |op, a, b| IntExpr::Bin(op, Box::new(a), Box::new(IntExpr::Const(b)));
        let off = bin(IntBinOp::Sub, g, bounds[d].lb);
        let np = self.nprocs() as i64;
        Some(match self.dims[d] {
            DimDist::Star => return None,
            DimDist::Block => bin(IntBinOp::Div, off, (bounds[d].count() + np - 1) / np),
            DimDist::Cyclic => bin(IntBinOp::Mod, off, np),
            DimDist::BlockCyclic(b) => bin(IntBinOp::Mod, bin(IntBinOp::Div, off, b), np),
        })
    }

    /// Owned global indices for grid coordinate `c` in a dimension with full
    /// range `bound` under `dd` on an axis of `np` processors. A list of
    /// triplets: one for `*`/`BLOCK`/`CYCLIC`, one per block for
    /// `CYCLIC(b)`.
    fn owned_in_dim(dd: DimDist, bound: Triplet, c: usize, np: usize) -> Vec<Triplet> {
        let n = bound.count();
        let np_ = np as i64;
        let c = c as i64;
        match dd {
            DimDist::Star => vec![bound],
            DimDist::Block => {
                let chunk = (n + np_ - 1) / np_;
                let lb = bound.lb + c * chunk;
                let ub = (lb + chunk - 1).min(bound.ub);
                if lb > bound.ub {
                    vec![]
                } else {
                    vec![Triplet::range(lb, ub)]
                }
            }
            DimDist::Cyclic => {
                let lb = bound.lb + c;
                if lb > bound.ub {
                    vec![]
                } else {
                    vec![Triplet::new(lb, bound.ub, np_)]
                }
            }
            DimDist::BlockCyclic(b) => {
                let mut out = Vec::new();
                let mut j = 0i64;
                loop {
                    let start = bound.lb + (c + j * np_) * b;
                    if start > bound.ub {
                        break;
                    }
                    out.push(Triplet::range(start, (start + b - 1).min(bound.ub)));
                    j += 1;
                }
                out
            }
        }
    }

    /// The pid (in the distribution's logical grid) that initially owns the
    /// element at global index `idx` of an array with per-dim full ranges
    /// `bounds`.
    pub fn owner_of(&self, bounds: &[Triplet], idx: &[i64]) -> usize {
        assert_eq!(idx.len(), self.rank());
        assert_eq!(bounds.len(), self.rank());
        if let Some(a) = &self.align {
            // Unmapped base dims are non-distributed; any in-bounds index
            // works for them.
            let mut base_idx: Vec<i64> = a.base_bounds.iter().map(|t| t.lb).collect();
            for (d, m) in a.map.iter().enumerate() {
                if let Some((bd, off)) = m {
                    base_idx[*bd] = idx[d] - off;
                }
            }
            return a.base.owner_of(&a.base_bounds, &base_idx);
        }
        let mut coords = Vec::with_capacity(self.grid.rank());
        for (d, dd) in self.dims.iter().enumerate() {
            if dd.is_distributed() {
                let axis = coords.len();
                let np = self.grid.extent(axis);
                coords.push(Self::coord_of(*dd, bounds[d], idx[d], np));
            }
        }
        if coords.is_empty() {
            // All-* exclusive array: owned by pid 0 by convention.
            return 0;
        }
        self.grid.pid_of(&coords)
    }

    /// Owned triplets for `pid` in array dimension `d`.
    pub fn owned_triplets(&self, bounds: &[Triplet], pid: usize, d: usize) -> Vec<Triplet> {
        if let Some(a) = &self.align {
            return match a.map[d] {
                // Mapped dim: base ownership shifted into this index space
                // and clipped to these bounds.
                Some((bd, off)) => a
                    .base
                    .owned_triplets(&a.base_bounds, pid, bd)
                    .into_iter()
                    .map(|t| t.shift(off).intersect(&bounds[d]))
                    .filter(|t| !t.is_empty())
                    .collect(),
                // Unconstrained dim: owned in full wherever the mapped
                // dims say this pid owns anything.
                None => vec![bounds[d]],
            };
        }
        let dd = self.dims[d];
        match self.grid_axis(d) {
            None => {
                // Collapsed dim: owned in full by every pid that owns
                // anything in the distributed dims (the caller combines via
                // cross product). For an all-`*` distribution only pid 0
                // owns anything.
                if self.is_collapsed() && pid != 0 {
                    vec![]
                } else {
                    vec![bounds[d]]
                }
            }
            Some(axis) => {
                let coords = self.grid.coords_of(pid);
                Self::owned_in_dim(dd, bounds[d], coords[axis], self.grid.extent(axis))
            }
        }
    }

    /// The rectangular pieces of `pid`'s initial partition, as global-index
    /// sections: the cross product of per-dimension owned triplet lists.
    ///
    /// `*` / `BLOCK` / `CYCLIC` dims contribute one triplet each, so most
    /// partitions are a single regular section; `CYCLIC(b)` dims contribute
    /// one triplet per block, multiplying the rectangle count.
    pub fn owned_rects(&self, bounds: &[Triplet], pid: usize) -> Vec<Section> {
        assert!(pid < self.nprocs(), "pid {pid} out of range");
        if self.rank() == 0 {
            // Rank-0 scalar: a single element, owned by pid 0.
            return if pid == 0 {
                vec![Section::scalar()]
            } else {
                vec![]
            };
        }
        let per_dim: Vec<Vec<Triplet>> = (0..self.rank())
            .map(|d| self.owned_triplets(bounds, pid, d))
            .collect();
        if per_dim.iter().any(|v| v.is_empty()) {
            return vec![];
        }
        let mut rects = vec![Vec::<Triplet>::new()];
        for dim_list in &per_dim {
            let mut next = Vec::with_capacity(rects.len() * dim_list.len());
            for r in &rects {
                for t in dim_list {
                    let mut r2 = r.clone();
                    r2.push(*t);
                    next.push(r2);
                }
            }
            rects = next;
        }
        rects.into_iter().map(Section::new).collect()
    }

    /// Total number of elements initially owned by `pid`.
    pub fn owned_volume(&self, bounds: &[Triplet], pid: usize) -> i64 {
        self.owned_rects(bounds, pid)
            .iter()
            .map(|r| r.volume())
            .sum()
    }

    /// Does `pid` initially own every element of `sec`?
    pub fn owns_section(&self, bounds: &[Triplet], pid: usize, sec: &Section) -> bool {
        sec.covered_by_disjoint(&self.owned_rects(bounds, pid))
    }

    /// The set of pids that initially own at least one element of `sec`.
    pub fn owners_of_section(&self, bounds: &[Triplet], sec: &Section) -> Vec<usize> {
        let mut out = Vec::new();
        for pid in 0..self.nprocs() {
            if self
                .owned_rects(bounds, pid)
                .iter()
                .any(|r| r.overlaps(sec))
            {
                out.push(pid);
            }
        }
        out
    }
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(a) = &self.align {
            // Self-contained alignment form, parseable by xdp-lang:
            //   align (BLOCK) onto 4 bounds [1:16] map (d0+1,*)
            write!(f, "align (")?;
            for (i, d) in a.base.dims.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{d}")?;
            }
            write!(f, ") onto {} bounds [", a.base.grid)?;
            for (i, t) in a.base_bounds.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, "] map (")?;
            for (i, m) in a.map.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                match m {
                    None => write!(f, "*")?,
                    Some((bd, off)) => {
                        write!(f, "d{bd}")?;
                        match off.cmp(&0) {
                            std::cmp::Ordering::Greater => write!(f, "+{off}")?,
                            std::cmp::Ordering::Less => write!(f, "{off}")?,
                            std::cmp::Ordering::Equal => {}
                        }
                    }
                }
            }
            return write!(f, ")");
        }
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ") onto {}", self.grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lb: i64, ub: i64) -> Triplet {
        Triplet::range(lb, ub)
    }

    /// Figure 2's array A: A[1:4,1:8] distributed (*,BLOCK) over 4 procs.
    fn fig2_a() -> (Distribution, Vec<Triplet>) {
        (
            Distribution::new(vec![DimDist::Star, DimDist::Block], ProcGrid::linear(4)),
            vec![b(1, 4), b(1, 8)],
        )
    }

    /// Figure 2's array B: B[1:16,1:16] distributed (BLOCK,CYCLIC) over 2x2.
    fn fig2_b() -> (Distribution, Vec<Triplet>) {
        (
            Distribution::new(vec![DimDist::Block, DimDist::Cyclic], ProcGrid::grid2(2, 2)),
            vec![b(1, 16), b(1, 16)],
        )
    }

    #[test]
    fn fig2_a_partition() {
        let (d, bounds) = fig2_a();
        // Each of the 4 procs owns 2 columns (8 cols / 4 procs), all rows.
        for pid in 0..4 {
            let rects = d.owned_rects(&bounds, pid);
            assert_eq!(rects.len(), 1);
            let lo = 1 + 2 * pid as i64;
            assert_eq!(
                rects[0],
                Section::new(vec![b(1, 4), b(lo, lo + 1)]),
                "pid {pid}"
            );
            assert_eq!(d.owned_volume(&bounds, pid), 8);
        }
        assert_eq!(d.owner_of(&bounds, &[3, 5]), 2);
    }

    #[test]
    fn fig2_b_partition() {
        let (d, bounds) = fig2_b();
        // P3 = grid (1,1): rows 9:16 block, cols 2:16:2 cyclic.
        let rects = d.owned_rects(&bounds, 3);
        assert_eq!(rects.len(), 1);
        assert_eq!(
            rects[0],
            Section::new(vec![b(9, 16), Triplet::new(2, 16, 2)])
        );
        assert_eq!(d.owned_volume(&bounds, 3), 64);
        assert_eq!(d.owner_of(&bounds, &[10, 4]), 3);
        assert_eq!(d.owner_of(&bounds, &[10, 5]), 2);
        assert_eq!(d.owner_of(&bounds, &[1, 1]), 0);
        assert_eq!(d.owner_of(&bounds, &[1, 2]), 1);
    }

    #[test]
    fn ownership_partitions_every_element() {
        // Every element is owned by exactly one pid, and owner_of agrees
        // with owned_rects — for a mix of distributions.
        let cases: Vec<(Distribution, Vec<Triplet>)> = vec![
            fig2_a(),
            fig2_b(),
            (
                Distribution::new(
                    vec![DimDist::Cyclic, DimDist::BlockCyclic(3)],
                    ProcGrid::grid2(2, 3),
                ),
                vec![b(1, 7), b(0, 16)],
            ),
            (
                Distribution::new(vec![DimDist::Block], ProcGrid::linear(3)),
                vec![b(1, 10)],
            ),
            (Distribution::collapsed(2, 4), vec![b(1, 3), b(1, 3)]),
        ];
        for (d, bounds) in cases {
            let full = Section::new(bounds.clone());
            let mut total = 0i64;
            for pid in 0..d.nprocs() {
                let rects = d.owned_rects(&bounds, pid);
                for r in &rects {
                    for idx in r.iter() {
                        assert_eq!(d.owner_of(&bounds, &idx), pid, "dist {d} idx {idx:?}");
                    }
                    total += r.volume();
                }
            }
            assert_eq!(total, full.volume(), "dist {d}");
        }
    }

    #[test]
    fn block_uneven_trailing_processor() {
        // 10 elements over 4 procs: chunk = 3 -> 3,3,3,1.
        let d = Distribution::new(vec![DimDist::Block], ProcGrid::linear(4));
        let bounds = vec![b(1, 10)];
        assert_eq!(d.owned_volume(&bounds, 0), 3);
        assert_eq!(d.owned_volume(&bounds, 3), 1);
        // 9 elements over 4 procs with chunk 3: last proc owns nothing.
        let bounds = vec![b(1, 9)];
        assert_eq!(d.owned_volume(&bounds, 3), 0);
        assert!(d.owned_rects(&bounds, 3).is_empty());
    }

    #[test]
    fn owns_section_and_owners() {
        let (d, bounds) = fig2_a();
        let sec = Section::new(vec![b(1, 4), b(3, 4)]); // P1's columns
        assert!(d.owns_section(&bounds, 1, &sec));
        assert!(!d.owns_section(&bounds, 0, &sec));
        let span = Section::new(vec![b(1, 4), b(2, 5)]); // P0..P2
        assert_eq!(d.owners_of_section(&bounds, &span), vec![0, 1, 2]);
    }

    #[test]
    fn collapsed_owned_by_p0() {
        let d = Distribution::collapsed(1, 4);
        let bounds = vec![b(1, 5)];
        assert_eq!(d.owner_of(&bounds, &[3]), 0);
        assert_eq!(d.owned_volume(&bounds, 0), 5);
        for pid in 1..4 {
            assert!(d.owned_rects(&bounds, pid).is_empty());
        }
    }

    #[test]
    fn rank0_scalar_owned_by_p0() {
        let d = Distribution::collapsed(0, 3);
        assert_eq!(d.owned_rects(&[], 0), vec![Section::scalar()]);
        assert!(d.owned_rects(&[], 1).is_empty());
        assert_eq!(d.owner_of(&[], &[]), 0);
    }

    #[test]
    fn block_cyclic_rects() {
        // CYCLIC(2) of 1:8 over 2 procs: P0 gets 1:2, 5:6; P1 gets 3:4, 7:8.
        let d = Distribution::new(vec![DimDist::BlockCyclic(2)], ProcGrid::linear(2));
        let bounds = vec![b(1, 8)];
        let r0 = d.owned_rects(&bounds, 0);
        assert_eq!(r0.len(), 2);
        assert_eq!(r0[0], Section::new(vec![b(1, 2)]));
        assert_eq!(r0[1], Section::new(vec![b(5, 6)]));
    }

    #[test]
    #[should_panic]
    fn rank_mismatch_panics() {
        Distribution::new(vec![DimDist::Block, DimDist::Cyclic], ProcGrid::linear(4));
    }

    #[test]
    fn display() {
        let (d, _) = fig2_b();
        assert_eq!(d.to_string(), "(BLOCK,CYCLIC) onto 2x2");
    }

    #[test]
    fn aligned_distribution_shifts_ownership() {
        // A[1:8] BLOCK over 4 procs; T[2:9] aligned with A at offset +1:
        // T[i] lives with A[i-1].
        let a = Distribution::new(vec![DimDist::Block], ProcGrid::linear(4));
        let abounds = vec![b(1, 8)];
        let t = Distribution::aligned(a.clone(), abounds.clone(), vec![1]);
        let tbounds = vec![b(2, 9)];
        for i in 2..=9 {
            assert_eq!(
                t.owner_of(&tbounds, &[i]),
                a.owner_of(&abounds, &[i - 1]),
                "i={i}"
            );
        }
        // Owned rects partition T's bounds.
        let mut total = 0;
        for pid in 0..4 {
            for r in t.owned_rects(&tbounds, pid) {
                for idx in r.iter() {
                    assert_eq!(t.owner_of(&tbounds, &idx), pid);
                    total += 1;
                }
            }
        }
        assert_eq!(total, 8);
        // Clipping: T bounds narrower than the shifted base partition.
        let narrow = vec![b(4, 5)];
        let mut owned = 0;
        for pid in 0..4 {
            owned += t
                .owned_rects(&narrow, pid)
                .iter()
                .map(|r| r.volume())
                .sum::<i64>();
        }
        assert_eq!(owned, 2);
    }
}
