//! Property tests: the run-time symbol table's answers must agree with
//! brute-force element-by-element computation over the distribution.

use proptest::prelude::*;
use xdp_ir::build as b;
use xdp_ir::{Decl, DimDist, ElemType, ProcGrid, Section, Triplet, VarId};
use xdp_runtime::symtab::SecState;
use xdp_runtime::{RtSymbolTable, Value};

fn dimdist() -> impl Strategy<Value = DimDist> {
    prop_oneof![
        Just(DimDist::Block),
        Just(DimDist::Cyclic),
        (1i64..4).prop_map(DimDist::BlockCyclic),
    ]
}

fn decl(n: i64, dd: DimDist, seg: i64, nprocs: usize) -> Decl {
    b::array_seg(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![dd],
        ProcGrid::linear(nprocs),
        vec![seg],
    )
}

fn dimdist_or_star() -> impl Strategy<Value = DimDist> {
    prop_oneof![
        Just(DimDist::Star),
        Just(DimDist::Block),
        Just(DimDist::Cyclic),
        (1i64..4).prop_map(DimDist::BlockCyclic),
    ]
}

/// What every driver's `init_exclusive` did before `init_owned`: offer
/// every index of the array to `write`, which scans the segments.
fn init_by_index(t: &mut RtSymbolTable, var: VarId, full: &Section, f: impl Fn(&[i64]) -> Value) {
    for idx in full.iter() {
        let _ = t.write(var, &idx, f(&idx));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// iown(X) == "every element of X is owned by this pid" for arbitrary
    /// query sections, distributions and segment shapes.
    #[test]
    fn iown_matches_bruteforce(
        n in 4i64..40,
        dd in dimdist(),
        seg in 1i64..6,
        nprocs in 1usize..5,
        qlb in 1i64..40,
        qlen in 0i64..12,
        qst in 1i64..4,
    ) {
        let d = decl(n, dd, seg, nprocs);
        let dist = d.dist.clone().unwrap();
        let bounds = d.bounds.clone();
        let q = Triplet::new(qlb.min(n), (qlb + qlen).min(n), qst);
        prop_assume!(!q.is_empty());
        let qsec = Section::new(vec![q]);
        for pid in 0..nprocs {
            let mut st = RtSymbolTable::build(pid, std::slice::from_ref(&d));
            let want = qsec.iter().all(|idx| dist.owner_of(&bounds, &idx) == pid);
            prop_assert_eq!(
                st.iown(VarId(0), &qsec),
                want,
                "pid {} dist {:?} seg {} query {}", pid, dd, seg, qsec
            );
        }
    }

    /// mylb/myub match the min/max owned index within the query.
    #[test]
    fn mylb_myub_match_bruteforce(
        n in 4i64..40,
        dd in dimdist(),
        seg in 1i64..6,
        nprocs in 2usize..5,
        qlb in 1i64..40,
        qlen in 0i64..12,
    ) {
        let d = decl(n, dd, seg, nprocs);
        let dist = d.dist.clone().unwrap();
        let bounds = d.bounds.clone();
        let q = Triplet::new(qlb.min(n), (qlb + qlen).min(n), 1);
        prop_assume!(!q.is_empty());
        let qsec = Section::new(vec![q]);
        for pid in 0..nprocs {
            let mut st = RtSymbolTable::build(pid, std::slice::from_ref(&d));
            let owned: Vec<i64> = qsec
                .iter()
                .map(|idx| idx[0])
                .filter(|&i| dist.owner_of(&bounds, &[i]) == pid)
                .collect();
            let want_lb = owned.first().copied().unwrap_or(i64::MAX);
            let want_ub = owned.last().copied().unwrap_or(i64::MIN);
            prop_assert_eq!(st.mylb(VarId(0), &qsec, 1), want_lb);
            prop_assert_eq!(st.myub(VarId(0), &qsec, 1), want_ub);
        }
    }

    /// read_section(gather) inverts write_section(scatter) on owned data.
    #[test]
    fn gather_scatter_roundtrip(
        n in 4i64..32,
        dd in dimdist(),
        seg in 1i64..5,
        nprocs in 1usize..4,
    ) {
        let d = decl(n, dd, seg, nprocs);
        let dist = d.dist.clone().unwrap();
        let bounds = d.bounds.clone();
        for pid in 0..nprocs {
            let mut st = RtSymbolTable::build(pid, std::slice::from_ref(&d));
            // Scatter pid-specific values into every owned element.
            for rect in dist.owned_rects(&bounds, pid) {
                for idx in rect.iter() {
                    prop_assert!(st.write(VarId(0), &idx, Value::F64(idx[0] as f64 * 2.0)));
                }
                let buf = st.read_section(VarId(0), &rect).expect("owned gather");
                for (ord, idx) in rect.iter().enumerate() {
                    prop_assert_eq!(buf.get(ord), Value::F64(idx[0] as f64 * 2.0));
                }
            }
        }
    }

    /// Ownership transfer conservation: moving every segment of P0's data
    /// to P1 preserves values and leaves exactly one owner per element.
    #[test]
    fn ownership_transfer_conserves(
        n in 4i64..24,
        seg in 1i64..4,
    ) {
        let d = decl(n, DimDist::Block, seg, 2);
        let mut t0 = RtSymbolTable::build(0, std::slice::from_ref(&d));
        let mut t1 = RtSymbolTable::build(1, std::slice::from_ref(&d));
        let dist = d.dist.clone().unwrap();
        let rects = dist.owned_rects(&d.bounds, 0);
        for rect in &rects {
            for idx in rect.iter() {
                t0.write(VarId(0), &idx, Value::F64(idx[0] as f64 + 0.5));
            }
        }
        // Transfer per segment (the XDP granularity).
        let segs: Vec<Section> = t0
            .entry(VarId(0))
            .unwrap()
            .segments
            .iter()
            .map(|s| s.section.clone())
            .collect();
        for sec in segs {
            let data = t0.remove_ownership(VarId(0), &sec).unwrap();
            let sid = t1.begin_ownership_recv(VarId(0), &sec).unwrap();
            t1.complete_ownership_recv(VarId(0), sid, Some(&data)).unwrap();
        }
        // P1 now owns everything; P0 owns nothing; transferred values
        // intact and accessible.
        prop_assert_eq!(t0.owned_volume(VarId(0)), 0);
        prop_assert_eq!(t1.owned_volume(VarId(0)), n);
        for rect in &rects {
            for idx in rect.iter() {
                prop_assert_eq!(
                    t1.read(VarId(0), &idx),
                    Some(Value::F64(idx[0] as f64 + 0.5))
                );
                prop_assert_eq!(
                    t1.classify(VarId(0), &Section::new(vec![Triplet::point(idx[0])])).0,
                    SecState::Accessible
                );
            }
        }
        // Storage fully released on P0.
        prop_assert_eq!(t0.stats.live_bytes, 0);
    }

    /// `init_owned` leaves a table bit-equal to the per-index `write` loop
    /// it replaced, and `visit_owned` sees exactly what per-index `read`
    /// sees — over BLOCK/CYCLIC/CYCLIC(k)/`*` distributions, refined
    /// segment shapes, and tables whose ownership has moved (a released
    /// segment, a placeholder awaiting its data, a received segment).
    #[test]
    fn owner_walk_matches_the_per_index_loops(
        n0 in 3i64..14,
        n1 in 3i64..14,
        d0 in dimdist_or_star(),
        d1 in dimdist_or_star(),
        s0 in 1i64..5,
        s1 in 1i64..5,
        p0 in 1usize..4,
        p1 in 1usize..3,
        complete in any::<bool>(),
    ) {
        let grid = match (d0, d1) {
            (DimDist::Star, DimDist::Star) => return Ok(()), // not a distribution
            (DimDist::Star, _) | (_, DimDist::Star) => ProcGrid::linear(p0),
            _ => ProcGrid::grid2(p0, p1),
        };
        let nprocs = grid.nprocs();
        let d = b::array_seg(
            "A", ElemType::F64, vec![(1, n0), (0, n1)], vec![d0, d1], grid, vec![s0, s1],
        );
        let var = VarId(0);
        let full = Section::new(d.bounds.clone());
        let mut tables: Vec<RtSymbolTable> = (0..nprocs)
            .map(|pid| RtSymbolTable::build(pid, std::slice::from_ref(&d)))
            .collect();
        // Move p0's first segment to the last processor (possibly only
        // half-way: released there, a storage-less placeholder here).
        let first = tables[0].entry(var).unwrap().segments.first().map(|s| s.section.clone());
        if let (Some(sec), true) = (first, nprocs > 1) {
            let data = tables[0].remove_ownership(var, &sec).unwrap();
            let sid = tables[nprocs - 1].begin_ownership_recv(var, &sec).unwrap();
            if complete {
                tables[nprocs - 1].complete_ownership_recv(var, sid, Some(&data)).unwrap();
            }
        }
        let f = |idx: &[i64]| Value::F64((idx[0] * 100 + idx[1]) as f64 + 0.5);
        for t in &tables {
            let (mut walked, mut indexed) = (t.clone(), t.clone());
            walked.init_owned(var, f);
            init_by_index(&mut indexed, var, &full, f);
            prop_assert_eq!(format!("{walked:?}"), format!("{indexed:?}"));
            prop_assert_eq!(format!("{:?}", walked.stats), format!("{:?}", t.stats));

            let mut seen = Vec::new();
            walked.visit_owned(var, &full, |ord, v| seen.push((ord, v)));
            seen.sort_by_key(|(ord, _)| *ord);
            let want: Vec<(usize, Value)> = full
                .iter()
                .enumerate()
                .filter_map(|(ord, idx)| walked.read(var, &idx).map(|v| (ord, v)))
                .collect();
            prop_assert_eq!(seen, want);
        }
    }
}
