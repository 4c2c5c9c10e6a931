//! Property tests: the run-time symbol table's answers must agree with
//! brute-force element-by-element computation over the distribution.

use proptest::prelude::*;
use xdp_ir::build as b;
use xdp_ir::{Decl, DimDist, ElemType, ProcGrid, Section, Triplet, VarId};
use xdp_runtime::symtab::{SecState, SymtabError};
use xdp_runtime::{Buffer, RtSymbolTable, SegStatus, SegmentDesc, SymtabStats, Value};

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

/// §3.1's symbol table as the paper states it: every query intersects the
/// query with every descriptor, and every copy resolves each element's
/// index through a scan of the descriptors. The table must answer, count
/// and end up exactly as this does, however it finds its candidates.
#[derive(Clone)]
struct Linear {
    var: VarId,
    elem: ElemType,
    segs: Vec<SegmentDesc>,
    stats: SymtabStats,
}

impl Linear {
    fn of(t: &RtSymbolTable, var: VarId) -> Linear {
        let e = t.entry(var).expect("exclusive");
        Linear {
            var,
            elem: e.elem,
            segs: e.segments.clone(),
            stats: t.stats,
        }
    }

    fn classify(&self, q: &Section) -> (SecState, u64) {
        let (mut covered, mut transitional, mut scanned) = (0, false, 0);
        for s in &self.segs {
            scanned += 1;
            let shared = s.section.intersect(q).volume();
            if shared == 0 {
                continue;
            }
            if !s.status.is_owned() {
                return (SecState::Unowned, scanned);
            }
            transitional |= s.status == SegStatus::Transitional;
            covered += shared;
        }
        let state = match (covered == q.volume(), transitional) {
            (false, _) => SecState::Unowned,
            (true, true) => SecState::Transitional,
            (true, false) => SecState::Accessible,
        };
        (state, scanned)
    }

    fn state_of(&mut self, q: &Section) -> SecState {
        let (state, scanned) = self.classify(q);
        self.stats.queries += 1;
        self.stats.segments_scanned += scanned;
        state
    }

    /// `mylb` (`lb`) or `myub` over dimension `d`.
    fn bound(&mut self, q: &Section, d: usize, lb: bool) -> i64 {
        self.stats.queries += 1;
        let ends = self
            .segs
            .iter()
            .filter(|s| s.status.is_owned())
            .filter_map(|s| {
                let meet = s.section.intersect(q);
                (!meet.is_empty()).then(|| if lb { meet.dim(d).lb } else { meet.dim(d).ub })
            });
        if lb {
            ends.min().unwrap_or(i64::MAX)
        } else {
            ends.max().unwrap_or(i64::MIN)
        }
    }

    fn read(&self, q: &Section) -> Option<Buffer> {
        let mut out = Buffer::zeros(self.elem, q.volume() as usize);
        for (ord, idx) in q.iter().enumerate() {
            out.set(ord, self.segs.iter().find_map(|s| s.read(&idx))?);
        }
        Some(out)
    }

    /// Row-major, stopping at the first element without storage.
    fn write(&mut self, q: &Section, buf: &Buffer) -> bool {
        q.iter()
            .enumerate()
            .all(|(ord, idx)| self.segs.iter_mut().any(|s| s.write(&idx, buf.get(ord))))
    }

    fn not_owned(&self, q: &Section) -> SymtabError {
        SymtabError::NotOwned {
            var: self.var,
            sec: q.clone(),
        }
    }

    fn begin_value_recv(&mut self, q: &Section) -> Result<Vec<usize>, SymtabError> {
        if self.state_of(q) == SecState::Unowned {
            return Err(self.not_owned(q));
        }
        let mut touched = Vec::new();
        for (i, s) in self.segs.iter_mut().enumerate() {
            if s.status.is_owned() && s.section.overlaps(q) {
                s.status = SegStatus::Transitional;
                touched.push(i);
            }
        }
        Ok(touched)
    }

    fn complete_value_recv(
        &mut self,
        q: &Section,
        touched: &[usize],
        payload: &Buffer,
    ) -> Result<(), SymtabError> {
        if payload.len() as i64 != q.volume() {
            return Err(SymtabError::SizeMismatch {
                var: self.var,
                sec: q.clone(),
                payload: payload.len(),
            });
        }
        for &i in touched {
            self.segs[i].status = SegStatus::Accessible;
        }
        match self.write(q, payload) {
            true => Ok(()),
            false => Err(self.not_owned(q)),
        }
    }

    fn begin_ownership_recv(&mut self, q: &Section) -> Result<usize, SymtabError> {
        if self
            .segs
            .iter()
            .any(|s| s.status.is_owned() && s.section.overlaps(q))
        {
            return Err(SymtabError::AlreadyOwned {
                var: self.var,
                sec: q.clone(),
            });
        }
        let slot = SegmentDesc::placeholder(q.clone());
        match self
            .segs
            .iter()
            .position(|s| s.status == SegStatus::Unowned)
        {
            Some(i) => {
                self.segs[i] = slot;
                self.stats.slots_reused += 1;
                Ok(i)
            }
            None => {
                self.segs.push(slot);
                Ok(self.segs.len() - 1)
            }
        }
    }

    fn complete_ownership_recv(&mut self, seg_id: usize, payload: Option<&Buffer>) {
        let seg = &mut self.segs[seg_id];
        let len = seg.section.volume() as usize;
        let mut buf = Buffer::zeros(self.elem, len);
        if let Some(p) = payload {
            buf.copy_from(0, p, 0, len);
        }
        let bytes = buf.size_bytes();
        seg.data = Some(buf);
        seg.status = SegStatus::Accessible;
        self.stats.live_bytes += bytes;
        self.stats.allocated_bytes += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
    }

    fn remove_ownership(&mut self, q: &Section) -> Result<Buffer, SymtabError> {
        match self.state_of(q) {
            SecState::Unowned => return Err(self.not_owned(q)),
            SecState::Transitional => {
                return Err(SymtabError::NotAccessible {
                    var: self.var,
                    sec: q.clone(),
                })
            }
            SecState::Accessible => {}
        }
        let sends = |s: &SegmentDesc| s.status.is_owned() && s.section.overlaps(q);
        if self.segs.iter().any(|s| sends(s) && !q.covers(&s.section)) {
            return Err(SymtabError::NotSegmentAligned {
                var: self.var,
                sec: q.clone(),
            });
        }
        let data = self.read(q).ok_or_else(|| self.not_owned(q))?;
        let freed: u64 = self
            .segs
            .iter_mut()
            .filter(|s| sends(s))
            .map(|s| s.release())
            .sum();
        self.stats.live_bytes -= freed;
        self.stats.released_bytes += freed;
        Ok(data)
    }
}

/// A receive begun on both sides and not yet completed.
enum Begun {
    Value {
        pid: usize,
        sec: Section,
        touched: Vec<usize>,
    },
    Own {
        pid: usize,
        seg_id: usize,
        len: usize,
    },
}

/// SplitMix64: one op's seed unfolds into as many choices as it needs.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n.max(1)
    }
}

/// A query for one of `lin`'s tables: a live segment whole (what an
/// ownership send names), the hull of two segments, or a random strided
/// section that may reach past the bounds.
fn query(m: &mut Mix, bounds: &[Triplet], lin: &Linear) -> Section {
    let live: Vec<&Section> = lin
        .segs
        .iter()
        .map(|s| &s.section)
        .filter(|s| !s.is_empty())
        .collect();
    let pick = |m: &mut Mix| live[m.below(live.len() as u64) as usize];
    match m.below(4) {
        0 | 1 if !live.is_empty() => {
            let (a, b) = (pick(m), pick(m));
            if m.below(2) == 0 {
                return a.clone();
            }
            Section::new(
                a.dims()
                    .iter()
                    .zip(b.dims())
                    .map(|(x, y)| {
                        let st = if x.st == y.st { x.st } else { 1 };
                        Triplet::new(x.lb.min(y.lb), x.ub.max(y.ub), st)
                    })
                    .collect(),
            )
        }
        _ => Section::new(
            bounds
                .iter()
                .map(|t| {
                    let n = t.count() as u64;
                    let lb = t.lb - 1 + m.below(n + 2) as i64;
                    let len = m.below(n + 1) as i64;
                    Triplet::new(lb, lb + len, 1 + m.below(4) as i64)
                })
                .collect(),
        ),
    }
}

fn ramp(elem: ElemType, len: usize, base: f64) -> Buffer {
    let mut b = Buffer::zeros(elem, len);
    for i in 0..len {
        b.set(i, Value::F64(base + i as f64));
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The table against [`Linear`] over random declarations (BLOCK,
    /// CYCLIC, CYCLIC(k) and `*`, rank 1 and 2, refined segment shapes, so
    /// strided CYCLIC tiles), random legal ownership moves (whole
    /// segments sent and received, completed later or never), value
    /// receives, and random queries: `classify`'s state and scan count,
    /// `mylb`/`myub`, the touched set of a value receive, the results and
    /// errors of both ownership halves, the section copies, and after
    /// every operation the descriptors and statistics of every table.
    #[test]
    fn the_table_answers_as_a_linear_scan_would(
        rank2 in any::<bool>(),
        n0 in 2i64..24,
        n1 in 2i64..10,
        d0 in dimdist(),
        d1 in dimdist_or_star(),
        shape in (1i64..5, 1i64..4),
        procs in (1usize..5, 1usize..3),
        ops in prop::collection::vec((0u64..7, any::<u64>()), 1..48),
    ) {
        let d = if rank2 {
            let grid = match d1 {
                DimDist::Star => ProcGrid::linear(procs.0),
                _ => ProcGrid::grid2(procs.0, procs.1),
            };
            b::array_seg("A", ElemType::F64, vec![(1, n0), (0, n1)], vec![d0, d1], grid,
                vec![shape.0, shape.1])
        } else {
            b::array_seg("A", ElemType::F64, vec![(1, n0)], vec![d0],
                ProcGrid::linear(procs.0), vec![shape.0])
        };
        let var = VarId(0);
        let nprocs = d.dist.as_ref().unwrap().nprocs();
        let mut tables: Vec<RtSymbolTable> = (0..nprocs)
            .map(|pid| {
                let mut t = RtSymbolTable::build(pid, std::slice::from_ref(&d));
                t.init_owned(var, |idx| Value::F64(idx.iter().fold(0, |a, &i| a * 100 + i) as f64));
                t
            })
            .collect();
        let mut lins: Vec<Linear> = tables.iter().map(|t| Linear::of(t, var)).collect();
        let mut begun: Vec<Begun> = Vec::new();
        for (step, (op, seed)) in ops.into_iter().enumerate() {
            let mut m = Mix(seed);
            let pid = m.below(nprocs as u64) as usize;
            let q = query(&mut m, &d.bounds, &lins[pid]);
            let (t, lin) = (&mut tables[pid], &mut lins[pid]);
            let at = format!("step {step} op {op} on p{pid}, {q}");
            match op {
                0 => {
                    prop_assert_eq!(t.classify(var, &q), lin.classify(&q), "{}", at);
                    prop_assert_eq!(t.state_of(var, &q), lin.state_of(&q), "{}", at);
                    for dim in 0..q.rank() {
                        let k = dim as u32 + 1;
                        prop_assert_eq!(t.mylb(var, &q, k), lin.bound(&q, dim, true), "{}", at);
                        prop_assert_eq!(t.myub(var, &q, k), lin.bound(&q, dim, false), "{}", at);
                    }
                }
                1 => {
                    let want = lin.read(&q);
                    let mut out = Buffer::zeros(ElemType::F64, q.volume() as usize);
                    prop_assert_eq!(t.read_section_into(var, &q, &mut out), want.is_some(), "{}", at);
                    if let Some(w) = want {
                        prop_assert_eq!(out, w, "{}", at);
                    }
                }
                2 => {
                    let buf = ramp(ElemType::F64, q.volume() as usize, 0.5 + step as f64 * 1000.0);
                    prop_assert_eq!(t.write_section_from(var, &q, &buf), lin.write(&q, &buf), "{}", at);
                }
                3 => {
                    // `<-` waits for its target to be accessible: a value
                    // receive never lands on a transitional section.
                    if lin.classify(&q).0 == SecState::Transitional {
                        continue;
                    }
                    let got = t.begin_value_recv(var, &q);
                    prop_assert_eq!(&got, &lin.begin_value_recv(&q), "{}", at);
                    if let Ok(touched) = got {
                        begun.push(Begun::Value { pid, sec: q, touched });
                    }
                }
                4 | 5 => {
                    // An ownership send of `q` here, received whole by
                    // `to` (op 4); or a receive of `q` begun with no send
                    // at all (op 5), which only an unowned section admits.
                    let to = m.below(nprocs as u64) as usize;
                    let payload = if op == 4 {
                        let got = t.remove_ownership(var, &q);
                        prop_assert_eq!(&got, &lin.remove_ownership(&q), "{}", at);
                        got.ok()
                    } else {
                        None
                    };
                    if op == 4 && payload.is_none() {
                        continue;
                    }
                    let got = tables[to].begin_ownership_recv(var, &q);
                    prop_assert_eq!(&got, &lins[to].begin_ownership_recv(&q), "{} to p{}", at, to);
                    if let Ok(seg_id) = got {
                        begun.push(Begun::Own { pid: to, seg_id, len: q.volume() as usize });
                    }
                }
                _ => {
                    if begun.is_empty() {
                        continue;
                    }
                    match begun.swap_remove(m.below(begun.len() as u64) as usize) {
                        Begun::Value { pid, sec, touched } => {
                            let len = sec.volume() as usize + (m.below(5) == 0) as usize;
                            let buf = ramp(ElemType::F64, len, -(step as f64));
                            prop_assert_eq!(
                                tables[pid].complete_value_recv(var, &sec, &touched, &buf),
                                lins[pid].complete_value_recv(&sec, &touched, &buf),
                                "{}", at
                            );
                        }
                        Begun::Own { pid, seg_id, len } => {
                            let buf = ramp(ElemType::F64, len, 7.0 * step as f64);
                            let payload = (m.below(2) == 0).then_some(&buf);
                            prop_assert_eq!(
                                tables[pid].complete_ownership_recv(var, seg_id, payload),
                                Ok(())
                            );
                            lins[pid].complete_ownership_recv(seg_id, payload);
                        }
                    }
                }
            }
            for (t, lin) in tables.iter().zip(&lins) {
                let e = t.entry(var).unwrap();
                prop_assert_eq!(format!("{:?}", e.segments), format!("{:?}", lin.segs), "{}", at);
                prop_assert_eq!(format!("{:?}", t.stats), format!("{:?}", lin.stats), "{}", at);
            }
        }
    }
}
