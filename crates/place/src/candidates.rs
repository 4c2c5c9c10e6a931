//! Candidate-distribution enumeration.
//!
//! For an array of rank `r` on `P` processors the search considers:
//!
//! * the fully collapsed distribution (serial on processor 0) — always
//!   legal, the fallback when every dimension must stay local;
//! * for every non-empty dimension subset of size `<= max_dist_dims`,
//!   every *ordered factorization* of `P` into that many factors `>= 2`,
//!   with each distributed dimension `BLOCK` or (optionally) `CYCLIC`.
//!
//! Enumeration order is deliberate: `BLOCK` variants precede `CYCLIC`
//! ones and lower-numbered dimensions precede higher ones, so the
//! deterministic first-wins tie-break of the search prefers the simplest
//! placement when costs tie.

use crate::phase::Phase;
use xdp_ir::{DimDist, Distribution, ProcGrid};

/// Ordered factorizations of `p` into exactly `k` factors, each `>= 2`.
fn factorizations(p: usize, k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return if p == 1 { vec![vec![]] } else { vec![] };
    }
    let mut out = Vec::new();
    for f in 2..=p {
        if !p.is_multiple_of(f) {
            continue;
        }
        for mut rest in factorizations(p / f, k - 1) {
            let mut v = vec![f];
            v.append(&mut rest);
            out.push(v);
        }
    }
    out
}

/// Size-`k` ascending index subsets of `0..rank`.
fn subsets(rank: usize, k: usize) -> Vec<Vec<usize>> {
    fn go(start: usize, rank: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k == 0 {
            out.push(cur.clone());
            return;
        }
        for d in start..rank {
            cur.push(d);
            go(d + 1, rank, k - 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    go(0, rank, k, &mut Vec::new(), &mut out);
    out
}

/// All candidate distributions for a rank-`rank` array on `nprocs`
/// processors. Collapsed first, then per subset/factorization the
/// `BLOCK`/`CYCLIC` cartesian (all-`BLOCK` first).
pub fn enumerate(
    rank: usize,
    nprocs: usize,
    max_dist_dims: usize,
    allow_cyclic: bool,
) -> Vec<Distribution> {
    let mut out = vec![Distribution::collapsed(rank, nprocs)];
    if nprocs < 2 || rank == 0 {
        return out;
    }
    let kinds: &[DimDist] = if allow_cyclic {
        &[DimDist::Block, DimDist::Cyclic]
    } else {
        &[DimDist::Block]
    };
    for k in 1..=max_dist_dims.min(rank) {
        for dims_set in subsets(rank, k) {
            for factors in factorizations(nprocs, k) {
                // Cartesian product of kinds over the k distributed dims,
                // counting in base `kinds.len()` so all-BLOCK comes first.
                let nk = kinds.len();
                for mask in 0..nk.pow(k as u32) {
                    let mut dims = vec![DimDist::Star; rank];
                    let mut m = mask;
                    for &d in &dims_set {
                        dims[d] = kinds[m % nk];
                        m /= nk;
                    }
                    out.push(Distribution::new(dims, ProcGrid::new(factors.clone())));
                }
            }
        }
    }
    out
}

/// Is `dist` legal for `phase` — i.e. does every dimension the phase
/// needs local stay collapsed?
fn compatible(dist: &Distribution, phase: &Phase) -> bool {
    phase
        .local_dims()
        .iter()
        .all(|&d| !dist.dims()[d].is_distributed())
}

/// The candidates legal for each phase. Never empty per phase: the
/// collapsed distribution is always compatible.
pub fn per_phase(all: &[Distribution], phases: &[Phase]) -> Vec<Vec<usize>> {
    phases
        .iter()
        .map(|ph| {
            all.iter()
                .enumerate()
                .filter(|(_, d)| compatible(d, ph))
                .map(|(i, _)| i)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{DimNeed, Phase};

    fn phase_needing(needs: Vec<DimNeed>) -> Phase {
        Phase {
            index: 0,
            stmts: (0, 1),
            label: "t".into(),
            work: 1.0,
            needs,
            shifts: vec![],
        }
    }

    #[test]
    fn factorizations_ordered() {
        assert_eq!(factorizations(8, 1), vec![vec![8]]);
        assert_eq!(factorizations(8, 2), vec![vec![2, 4], vec![4, 2]]);
        assert_eq!(
            factorizations(12, 2),
            vec![vec![2, 6], vec![3, 4], vec![4, 3], vec![6, 2]]
        );
        assert!(factorizations(7, 2).is_empty());
    }

    #[test]
    fn collapsed_first_block_before_cyclic() {
        let c = enumerate(2, 4, 2, true);
        assert!(c[0].is_collapsed());
        // First distributed candidate: (BLOCK,*) on a linear grid.
        assert_eq!(c[1].to_string(), "(BLOCK,*) onto 4");
        assert_eq!(c[2].to_string(), "(CYCLIC,*) onto 4");
        // Every candidate has 4 processors.
        assert!(c.iter().all(|d| d.nprocs() == 4));
        // 2-D candidates present (2x2 factorization).
        assert!(c.iter().any(|d| d.to_string() == "(BLOCK,BLOCK) onto 2x2"));
    }

    #[test]
    fn no_cyclic_when_disallowed() {
        let c = enumerate(3, 8, 2, false);
        assert!(c
            .iter()
            .all(|d| d.dims().iter().all(|x| *x != DimDist::Cyclic)));
        // Rank 3, P=8: subsets {0},{1},{2} linear + pairs x {2x4,4x2}.
        assert!(c.len() > 4);
    }

    #[test]
    fn compatibility_respects_local_dims() {
        let all = enumerate(2, 4, 2, false);
        let ph = phase_needing(vec![DimNeed::Local, DimNeed::Free]);
        let legal = per_phase(&all, std::slice::from_ref(&ph));
        assert!(!legal[0].is_empty());
        for &i in &legal[0] {
            assert!(!all[i].dims()[0].is_distributed());
        }
        // Fully-local phase: only collapsed remains.
        let ph2 = phase_needing(vec![DimNeed::Local, DimNeed::Local]);
        let legal2 = per_phase(&all, std::slice::from_ref(&ph2));
        assert_eq!(legal2[0], vec![0]);
    }
}
