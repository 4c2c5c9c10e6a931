//! The per-processor run-time XDP symbol table (§3.1, Figure 2).
//!
//! "Each processor must maintain and update its own local copy of the XDP
//! symbol table structure at run-time ... In contrast to a regular symbol
//! table, the run-time XDP symbol table only contains information about
//! exclusive sections."
//!
//! Every intrinsic is a lookup here; receives and ownership transfers are
//! updates here. The table also doubles as the element storage manager: a
//! processor's owned data lives in its segments' buffers, and transferring
//! ownership out releases the storage (§2.6's address-space-reuse benefit —
//! tracked by [`SymtabStats`]).

use crate::segment::{segment_sections, SegStatus, SegmentDesc};
use crate::value::{Buffer, Value};
use xdp_ir::{Decl, ElemType, Section, Triplet, VarId};

/// Coarse state of a whole section on this processor (Figure 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SecState {
    /// Some element not owned here.
    Unowned,
    /// Owned, with at least one uncompleted receive touching it.
    Transitional,
    /// Owned and quiescent.
    Accessible,
}

/// Operation counters and storage accounting.
#[derive(Clone, Copy, Default, Debug)]
pub struct SymtabStats {
    /// Intrinsic predicate evaluations (`iown`/`accessible`/`await` polls).
    pub queries: u64,
    /// Segment descriptors examined across all queries.
    pub segments_scanned: u64,
    /// Live storage in bytes.
    pub live_bytes: u64,
    /// High-water mark of live storage.
    pub peak_bytes: u64,
    /// Total bytes ever allocated.
    pub allocated_bytes: u64,
    /// Bytes released by outbound ownership transfers.
    pub released_bytes: u64,
    /// Unowned descriptor slots reused by inbound ownership transfers.
    pub slots_reused: u64,
}

impl SymtabStats {
    fn alloc(&mut self, bytes: u64) {
        self.live_bytes += bytes;
        self.allocated_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }
    fn free(&mut self, bytes: u64) {
        self.live_bytes -= bytes;
        self.released_bytes += bytes;
    }
}

/// One variable's entry: the run-time half of a Figure 2 row. The
/// declaration half (name, rank, global shape, partitioning, segment
/// shape) is the program's [`Decl`], shared by every processor.
#[derive(Clone)]
pub struct SymEntry {
    /// symtab index == VarId.
    pub var: VarId,
    /// Element type.
    pub elem: ElemType,
    /// Segment descriptors — the shaded, run-time-maintained field.
    pub segments: Vec<SegmentDesc>,
    /// Where `segments` lie, derived from them; not part of `Debug`.
    index: SegIndex,
}

impl SymEntry {
    /// Number of segments currently owned (transitional or accessible).
    pub fn owned_segment_count(&self) -> usize {
        self.segments.iter().filter(|s| s.status.is_owned()).count()
    }

    /// The segments that may meet `sec`, with their ids; see [`SegIndex`].
    fn hits(&self, sec: &Section) -> impl Iterator<Item = (usize, &SegmentDesc)> + '_ {
        self.index.hits(sec, &self.segments)
    }

    /// The segment holding storage that covers all of `sec`, if one does.
    /// A one-segment entry, every array of a communication-free sweep,
    /// asks its segment directly.
    fn covering(&self, sec: &Section) -> Option<usize> {
        let holds = |s: &SegmentDesc| s.data.is_some() && s.section.covers(sec);
        if self.segments.len() == 1 {
            Some(0).filter(|_| holds(&self.segments[0]))
        } else {
            self.hits(sec).find(|(_, s)| holds(s)).map(|(i, _)| i)
        }
    }
}

impl std::fmt::Debug for SymEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymEntry")
            .field("var", &self.var)
            .field("elem", &self.elem)
            .field("segments", &self.segments)
            .finish()
    }
}

/// Where an entry's live segments lie along dimension 0, so that a query
/// visits only the segments it can meet. Derived from the descriptors and
/// updated with them by every method that changes a section; no setting
/// chooses it. §3.1 still charges the scan of every descriptor: a
/// released one has an empty section, so the paper's scan never stops
/// early, and [`RtSymbolTable::classify`] counts `segments.len()`.
#[derive(Clone, Default)]
struct SegIndex {
    /// `(dim-0 lower bound, id)` of every segment with a non-empty
    /// section, ascending.
    by_lb: Vec<(i64, u32)>,
    /// No live segment spans more than this along dimension 0 (`ub - lb`).
    span: i64,
    /// Ids of released descriptors, ascending: the slots an ownership
    /// receive reuses, lowest first.
    free: Vec<u32>,
}

/// Dimension 0 of a section; a rank-0 section is the one point 0.
fn dim0(sec: &Section) -> Triplet {
    sec.dims().first().copied().unwrap_or(Triplet::point(0))
}

impl SegIndex {
    fn of(segments: &[SegmentDesc]) -> SegIndex {
        let mut ix = SegIndex::default();
        for (id, seg) in segments.iter().enumerate() {
            if !seg.section.is_empty() {
                let t = dim0(&seg.section);
                ix.by_lb.push((t.lb, id as u32));
                ix.span = ix.span.max(t.ub - t.lb);
            }
        }
        ix.by_lb.sort_unstable();
        ix
    }

    /// Segment `id` now holds `sec`, in what was a free slot or a new one.
    fn insert(&mut self, id: usize, sec: &Section) {
        let id = id as u32;
        if let Ok(at) = self.free.binary_search(&id) {
            self.free.remove(at);
        }
        if !sec.is_empty() {
            let t = dim0(sec);
            let at = self.by_lb.partition_point(|&k| k < (t.lb, id));
            self.by_lb.insert(at, (t.lb, id));
            self.span = self.span.max(t.ub - t.lb);
        }
    }

    /// The segment at `by_lb[k]` was released.
    fn release(&mut self, k: usize) {
        let (_, id) = self.by_lb.remove(k);
        let at = self.free.partition_point(|&f| f < id);
        self.free.insert(at, id);
    }

    /// The segments among `segs`, the descriptors indexed, that may meet
    /// `sec`, with their ids: the ones [`Cursor`] visits.
    fn hits<'a>(
        &'a self,
        sec: &Section,
        segs: &'a [SegmentDesc],
    ) -> impl Iterator<Item = (usize, &'a SegmentDesc)> + 'a {
        let mut cur = self.cursor(sec);
        std::iter::from_fn(move || {
            let (_, id) = cur.next(&self.by_lb)?;
            Some((id as usize, &segs[id as usize]))
        })
    }

    fn cursor(&self, sec: &Section) -> Cursor {
        let t = dim0(sec);
        let mut cur = Cursor {
            t,
            span: self.span,
            pos: self.by_lb.len(),
            hi: t.lb,
        };
        if !t.is_empty() {
            cur.pos = self.by_lb.partition_point(|&(lb, _)| lb < t.lb - self.span);
            cur.hi = cur.run_end(t.lb);
        }
        cur
    }
}

/// A walk over the positions in `by_lb` of the segments whose dim-0
/// extent may hold one of a query's dim-0 points `p`: those with a lower
/// bound in `[p - span, p]`. Consecutive points closer than `span + 1`
/// join their windows into one run of `by_lb`, so a dense query scans one
/// range; a query strided wider than any segment has a run per point, and
/// the lower bounds between runs are skipped by binary search. Every
/// segment that meets the query is visited once; a visited one need not
/// meet it.
struct Cursor {
    t: Triplet,
    span: i64,
    pos: usize,
    /// The last lower bound in the current run.
    hi: i64,
}

impl Cursor {
    /// Where the run holding point `p`'s window ends: at the last point
    /// when the windows join, else at `p`.
    fn run_end(&self, p: i64) -> i64 {
        if self.t.st <= self.span + 1 {
            self.t.ub
        } else {
            p
        }
    }

    /// The next candidate: its position in `by_lb` and its id.
    #[inline]
    fn next(&mut self, by_lb: &[(i64, u32)]) -> Option<(usize, u32)> {
        loop {
            let &(lb, id) = by_lb.get(self.pos)?;
            if lb <= self.hi {
                self.pos += 1;
                return Some((self.pos - 1, id));
            }
            self.seek(lb, by_lb)?;
        }
    }

    /// Open the run of the first point at or after `lb`, a lower bound
    /// past the current run; `None` past the query's last point. Kept out
    /// of the inlined step: a dense query has one run.
    #[cold]
    fn seek(&mut self, lb: i64, by_lb: &[(i64, u32)]) -> Option<()> {
        if lb > self.t.ub {
            self.pos = by_lb.len();
            return None;
        }
        let st = self.t.st;
        let p = self.t.lb + (lb - self.t.lb + st - 1) / st * st;
        self.hi = self.run_end(p);
        let floor = p - self.span;
        self.pos += by_lb[self.pos..].partition_point(|&(l, _)| l < floor);
        Some(())
    }
}

/// Errors from symbol-table updates (incorrect XDP usage caught by the
/// checked runtime).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SymtabError {
    /// Variable is universal or undeclared — not in the run-time table.
    NotExclusive(VarId),
    /// An ownership transfer's section does not line up with whole
    /// segments.
    NotSegmentAligned { var: VarId, sec: Section },
    /// Ownership send of a section not fully accessible here.
    NotAccessible { var: VarId, sec: Section },
    /// Ownership receive of a section some element of which is already
    /// owned here ("ownership of a section can only be received if the
    /// section was unowned", §2.7).
    AlreadyOwned { var: VarId, sec: Section },
    /// Value receive into a section not owned here.
    NotOwned { var: VarId, sec: Section },
    /// Completion did not find the matching in-flight receive.
    NoMatchingReceive { var: VarId, sec: Section },
    /// A received payload's size does not match the receive target —
    /// "it is incorrect usage of XDP if the sections transferred in send
    /// and receive operations do not match" (§2.7).
    SizeMismatch {
        var: VarId,
        sec: Section,
        payload: usize,
    },
}

impl std::fmt::Display for SymtabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymtabError::NotExclusive(v) => write!(f, "{v} is not an exclusive variable"),
            SymtabError::NotSegmentAligned { var, sec } => {
                write!(f, "ownership transfer of {var}{sec} is not segment-aligned")
            }
            SymtabError::NotAccessible { var, sec } => {
                write!(f, "section {var}{sec} is not accessible")
            }
            SymtabError::AlreadyOwned { var, sec } => {
                write!(f, "ownership receive of already-owned {var}{sec}")
            }
            SymtabError::NotOwned { var, sec } => {
                write!(f, "receive into unowned {var}{sec}")
            }
            SymtabError::NoMatchingReceive { var, sec } => {
                write!(f, "no in-flight receive matches {var}{sec}")
            }
            SymtabError::SizeMismatch { var, sec, payload } => {
                write!(
                    f,
                    "received payload of {payload} element(s) does not match {var}{sec}"
                )
            }
        }
    }
}

impl std::error::Error for SymtabError {}

/// The per-processor run-time symbol table.
///
/// ```
/// use xdp_ir::{build, DimDist, ElemType, ProcGrid, Section, Triplet, VarId};
/// use xdp_runtime::RtSymbolTable;
///
/// // A[1:8] block-distributed over 2 processors, element segments.
/// let decls = vec![build::array_seg(
///     "A", ElemType::F64, vec![(1, 8)], vec![DimDist::Block],
///     ProcGrid::linear(2), vec![1],
/// )];
/// let mut p0 = RtSymbolTable::build(0, &decls);
/// let mine = Section::new(vec![Triplet::range(1, 4)]);
/// assert!(p0.iown(VarId(0), &mine));
/// assert_eq!(p0.mylb(VarId(0), &Section::new(vec![Triplet::range(1, 8)]), 1), 1);
///
/// // Ownership leaves: the storage is released and iown flips.
/// let data = p0.remove_ownership(VarId(0), &mine).unwrap();
/// assert_eq!(data.len(), 4);
/// assert!(!p0.iown(VarId(0), &mine));
/// ```
#[derive(Clone, Debug)]
pub struct RtSymbolTable {
    pid: usize,
    entries: Vec<Option<SymEntry>>,
    /// Operation counters (public for the experiment harnesses).
    pub stats: SymtabStats,
}

impl RtSymbolTable {
    /// Build processor `pid`'s table from the program's declarations:
    /// exclusive variables get their initial partition segmented and
    /// allocated; universal variables get no entry.
    pub fn build(pid: usize, decls: &[Decl]) -> RtSymbolTable {
        let mut t = RtSymbolTable {
            pid,
            entries: Vec::new(),
            stats: SymtabStats::default(),
        };
        for (i, d) in decls.iter().enumerate() {
            let var = VarId(i as u32);
            if !d.is_exclusive() {
                t.entries.push(None);
                continue;
            }
            let dist = d.dist.as_ref().expect("exclusive decl has distribution");
            let mut segments = Vec::new();
            for rect in dist.owned_rects(&d.bounds, pid) {
                for sec in segment_sections(&rect, d.segment_shape.as_deref()) {
                    let seg = SegmentDesc::owned(sec, d.elem);
                    t.stats.alloc(seg.storage_bytes());
                    segments.push(seg);
                }
            }
            t.entries.push(Some(SymEntry {
                var,
                elem: d.elem,
                index: SegIndex::of(&segments),
                segments,
            }));
        }
        t
    }

    /// This table's processor id.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// The entry for `var`, if exclusive.
    pub fn entry(&self, var: VarId) -> Option<&SymEntry> {
        self.entries.get(var.index()).and_then(|e| e.as_ref())
    }

    fn entry_mut(&mut self, var: VarId) -> Result<&mut SymEntry, SymtabError> {
        self.entries
            .get_mut(var.index())
            .and_then(|e| e.as_mut())
            .ok_or(SymtabError::NotExclusive(var))
    }

    /// Evaluate the §3.1 `iown()` algorithm: intersect the query with all
    /// segments; true iff the disjoint union covers the query and no
    /// intersecting segment is unowned.
    pub fn iown(&mut self, var: VarId, sec: &Section) -> bool {
        self.state_of(var, sec) != SecState::Unowned
    }

    /// `accessible()`: owned and no uncompleted receives.
    pub fn accessible(&mut self, var: VarId, sec: &Section) -> bool {
        self.state_of(var, sec) == SecState::Accessible
    }

    /// Classify a section's state on this processor, counting the query in
    /// the statistics (the run-time cost every un-eliminated compute rule
    /// pays, §3.1).
    pub fn state_of(&mut self, var: VarId, sec: &Section) -> SecState {
        self.stats.queries += 1;
        let (state, scanned) = self.classify(var, sec);
        self.stats.segments_scanned += scanned;
        state
    }

    /// Classify without touching the statistics — used by the checked
    /// runtime's internal validation, which is a debugging aid rather than
    /// program-visible work. The count is §3.1's: every descriptor, since
    /// a released one meets no query and so never ends the scan early;
    /// the host visits only the segments the index names.
    pub fn classify(&self, var: VarId, sec: &Section) -> (SecState, u64) {
        let entry = match self.entry(var) {
            Some(e) => e,
            None => return (SecState::Unowned, 0),
        };
        let tally = if entry.segments.len() == 1 {
            tally(entry.segments.iter(), sec)
        } else {
            tally(entry.hits(sec).map(|(_, s)| s), sec)
        };
        let state = match tally {
            Some((covered, transitional)) if covered == sec.volume() => {
                if transitional {
                    SecState::Transitional
                } else {
                    SecState::Accessible
                }
            }
            _ => SecState::Unowned,
        };
        (state, entry.segments.len() as u64)
    }

    /// `mylb(X, d)`: smallest dth-dimension index (1-based `d`, as in the
    /// paper) of any element of `sec` owned here; `i64::MAX` if none.
    pub fn mylb(&mut self, var: VarId, sec: &Section, d: u32) -> i64 {
        self.stats.queries += 1;
        let dim = (d - 1) as usize;
        match self.entry(var) {
            None => i64::MAX,
            Some(e) => e
                .hits(sec)
                .map(|(_, s)| s)
                .filter(|s| s.status.is_owned())
                .filter_map(|s| s.section.intersect_dim(sec, dim))
                .map(|t| t.lb)
                .min()
                .unwrap_or(i64::MAX),
        }
    }

    /// `myub(X, d)`: largest dth-dimension index owned here; `i64::MIN` if
    /// none.
    pub fn myub(&mut self, var: VarId, sec: &Section, d: u32) -> i64 {
        self.stats.queries += 1;
        let dim = (d - 1) as usize;
        match self.entry(var) {
            None => i64::MIN,
            Some(e) => e
                .hits(sec)
                .map(|(_, s)| s)
                .filter(|s| s.status.is_owned())
                .filter_map(|s| s.section.intersect_dim(sec, dim))
                .map(|t| t.ub)
                .max()
                .unwrap_or(i64::MIN),
        }
    }

    /// Read one element (owned storage only).
    pub fn read(&self, var: VarId, idx: &[i64]) -> Option<Value> {
        let entry = self.entry(var)?;
        entry.segments.iter().find_map(|s| s.read(idx))
    }

    /// Write one element; false if the index isn't in owned storage.
    pub fn write(&mut self, var: VarId, idx: &[i64], val: Value) -> bool {
        if let Ok(entry) = self.entry_mut(var) {
            for seg in &mut entry.segments {
                if seg.write(idx, val) {
                    return true;
                }
            }
        }
        false
    }

    /// Set every element of `var` held in this processor's storage to
    /// `f(global index)`, walking the owned segments' buffers directly: the
    /// cost is O(owned elements), independent of the array's global size
    /// and of how many segments the table holds. Segments without storage
    /// (released, or placeholders of an uncompleted ownership receive) are
    /// skipped, universal variables have no entry, and no statistic is
    /// touched — initialization is not program-visible work.
    pub fn init_owned(&mut self, var: VarId, f: impl Fn(&[i64]) -> Value) {
        let Ok(entry) = self.entry_mut(var) else {
            return;
        };
        for seg in &mut entry.segments {
            let Some(data) = seg.data.as_mut() else {
                continue;
            };
            let mut idx: Vec<i64> = seg.section.dims().iter().map(|t| t.lb).collect();
            for ord in 0..data.len() {
                data.set(ord, f(&idx));
                seg.section.advance(&mut idx);
            }
        }
    }

    /// Visit every element of `var` held in this processor's storage as
    /// (row-major ordinal within `full`, value) — the read-side twin of
    /// [`RtSymbolTable::init_owned`], O(owned elements), no statistic
    /// touched. `full` is the array's global index space; anything a
    /// segment holds outside it is not visited.
    pub fn visit_owned(&self, var: VarId, full: &Section, mut visit: impl FnMut(usize, Value)) {
        let Some(entry) = self.entry(var) else {
            return;
        };
        for seg in &entry.segments {
            let Some(data) = seg.data.as_ref() else {
                continue;
            };
            let sec = seg.section.intersect(full);
            if sec.is_empty() {
                continue;
            }
            let (rows, inner, seg_step) = row_shape(sec.dims(), seg.section.dims());
            let (_, _, full_step) = row_shape(sec.dims(), full.dims());
            let mut idx: Vec<i64> = sec.dims().iter().map(|t| t.lb).collect();
            for _ in 0..rows {
                let from = seg
                    .section
                    .ordinal_of(&idx)
                    .expect("row lies in its segment") as usize;
                let to = full.ordinal_of(&idx).expect("row lies in the array") as usize;
                for k in 0..inner {
                    visit(to + k * full_step, data.get(from + k * seg_step));
                }
                sec.advance_row(&mut idx);
            }
        }
    }

    /// Gather a section's values in row-major order. `None` if any element
    /// lacks owned storage.
    pub fn read_section(&self, var: VarId, sec: &Section) -> Option<Buffer> {
        let entry = self.entry(var)?;
        let mut out = Buffer::zeros(entry.elem, sec.volume() as usize);
        let mut last_hit = 0usize;
        for (ord, idx) in sec.iter().enumerate() {
            let n = entry.segments.len();
            let mut found = false;
            for k in 0..n {
                let si = (last_hit + k) % n;
                if let Some(v) = entry.segments[si].read(&idx) {
                    out.set(ord, v);
                    last_hit = si;
                    found = true;
                    break;
                }
            }
            if !found {
                return None;
            }
        }
        Some(out)
    }

    /// Scatter a row-major buffer into a section. Returns false if any
    /// element lacks owned storage.
    ///
    /// # Panics
    /// Panics when the buffer size disagrees with the section volume;
    /// callers on the message path validate sizes first (see
    /// [`RtSymbolTable::complete_value_recv`]).
    pub fn write_section(&mut self, var: VarId, sec: &Section, buf: &Buffer) -> bool {
        assert_eq!(
            buf.len() as i64,
            sec.volume(),
            "payload/section size mismatch"
        );
        for (ord, idx) in sec.iter().enumerate() {
            if !self.write(var, &idx, buf.get(ord)) {
                return false;
            }
        }
        true
    }

    /// Initiate a value receive into an owned section: mark every touched
    /// segment transitional (Figure 1). Returns the touched segment ids.
    pub fn begin_value_recv(
        &mut self,
        var: VarId,
        sec: &Section,
    ) -> Result<Vec<usize>, SymtabError> {
        if self.state_of(var, sec) == SecState::Unowned {
            return Err(SymtabError::NotOwned {
                var,
                sec: sec.clone(),
            });
        }
        let entry = self.entry_mut(var)?;
        let mut touched: Vec<usize> = entry
            .hits(sec)
            .filter(|(_, s)| s.status.is_owned() && s.section.overlaps(sec))
            .map(|(i, _)| i)
            .collect();
        touched.sort_unstable();
        for &i in &touched {
            entry.segments[i].status = SegStatus::Transitional;
        }
        Ok(touched)
    }

    /// Complete a value receive: write the payload and return the touched
    /// segments to accessible.
    pub fn complete_value_recv(
        &mut self,
        var: VarId,
        sec: &Section,
        touched: &[usize],
        payload: &Buffer,
    ) -> Result<(), SymtabError> {
        if payload.len() as i64 != sec.volume() {
            return Err(SymtabError::SizeMismatch {
                var,
                sec: sec.clone(),
                payload: payload.len(),
            });
        }
        {
            let entry = self.entry_mut(var)?;
            for &i in touched {
                entry.segments[i].status = SegStatus::Accessible;
            }
        }
        if !self.write_section_from(var, sec, payload) {
            return Err(SymtabError::NotOwned {
                var,
                sec: sec.clone(),
            });
        }
        Ok(())
    }

    /// Initiate an ownership receive (`U <=` / `U <=-`): the section must
    /// be wholly unowned here; a transitional placeholder segment is
    /// installed so that `iown`/`await` see the section as owned (this is
    /// what lets the FFT example's `await(A[*,mypid,*])` block rather than
    /// fail). Reuses an unowned descriptor slot when one exists. Returns
    /// the placeholder's segment id.
    pub fn begin_ownership_recv(
        &mut self,
        var: VarId,
        sec: &Section,
    ) -> Result<usize, SymtabError> {
        // Reject if any element already owned.
        let entry = self.entry_mut(var)?;
        if entry
            .hits(sec)
            .any(|(_, s)| s.status.is_owned() && s.section.overlaps(sec))
        {
            return Err(SymtabError::AlreadyOwned {
                var,
                sec: sec.clone(),
            });
        }
        let slot = SegmentDesc::placeholder(sec.clone());
        let reuse = entry.index.free.first().map(|&i| i as usize);
        let id = match reuse {
            Some(i) => {
                entry.segments[i] = slot;
                i
            }
            None => {
                entry.segments.push(slot);
                entry.segments.len() - 1
            }
        };
        entry.index.insert(id, sec);
        self.stats.slots_reused += reuse.is_some() as u64;
        Ok(id)
    }

    /// Complete an ownership receive: allocate storage (filled from the
    /// payload for `<=-`, zeroed for `<=`) and mark accessible.
    pub fn complete_ownership_recv(
        &mut self,
        var: VarId,
        seg_id: usize,
        payload: Option<&Buffer>,
    ) -> Result<(), SymtabError> {
        let elem = self.entry(var).ok_or(SymtabError::NotExclusive(var))?.elem;
        let entry = self.entry_mut(var)?;
        let seg = &mut entry.segments[seg_id];
        debug_assert_eq!(seg.status, SegStatus::Transitional);
        let len = seg.section.volume() as usize;
        let buf = match payload {
            Some(p) => {
                assert_eq!(p.len(), len, "ownership payload size mismatch");
                let mut b = Buffer::zeros(elem, len);
                b.copy_from(0, p, 0, len);
                b
            }
            None => Buffer::zeros(elem, len),
        };
        let bytes = buf.size_bytes();
        seg.data = Some(buf);
        seg.status = SegStatus::Accessible;
        self.stats.alloc(bytes);
        Ok(())
    }

    /// Execute the sending half of an ownership transfer (`E =>` /
    /// `E -=>`): the section must be accessible and must decompose into
    /// whole segments (ownership granularity is the segment, §3.1).
    /// Releases those segments' storage and returns the gathered values
    /// (for `-=>`; the caller discards them for `=>`). The segments it
    /// checks are the ones it then copies out and releases, each row by
    /// row; a refused send changes nothing.
    pub fn remove_ownership(&mut self, var: VarId, sec: &Section) -> Result<Buffer, SymtabError> {
        match self.state_of(var, sec) {
            SecState::Unowned => {
                return Err(SymtabError::NotOwned {
                    var,
                    sec: sec.clone(),
                })
            }
            SecState::Transitional => {
                return Err(SymtabError::NotAccessible {
                    var,
                    sec: sec.clone(),
                })
            }
            SecState::Accessible => {}
        }
        // Every intersecting segment must be wholly inside the section,
        // and hold storage.
        let entry = self.entry_mut(var)?;
        let (mut split, mut bare) = (false, false);
        for (_, seg) in entry.hits(sec) {
            if seg.status.is_owned() && seg.section.overlaps(sec) {
                split |= !sec.covers(&seg.section);
                bare |= seg.data.is_none();
            }
        }
        if split {
            return Err(SymtabError::NotSegmentAligned {
                var,
                sec: sec.clone(),
            });
        }
        if bare {
            return Err(SymtabError::NotOwned {
                var,
                sec: sec.clone(),
            });
        }
        let mut data = Buffer::zeros(entry.elem, sec.volume() as usize);
        let mut freed = 0;
        let mut cur = entry.index.cursor(sec);
        while let Some((k, id)) = cur.next(&entry.index.by_lb) {
            let seg = &mut entry.segments[id as usize];
            if !seg.section.overlaps(sec) {
                continue;
            }
            let held = seg.section.dims();
            copy_share(
                held,
                held,
                seg.data.as_ref().unwrap(),
                sec.dims(),
                &mut data,
            );
            freed += seg.release();
            entry.index.release(k);
            cur.pos = k;
        }
        self.stats.free(freed);
        Ok(data)
    }

    /// Gather a section's values in row-major order into a pre-allocated
    /// buffer. Observable behavior matches [`RtSymbolTable::read_section`]
    /// — same values, `false` iff any element lacks owned storage (what
    /// `out` then holds is unspecified), no statistics touched — but the
    /// copy runs strided row by row instead of resolving every element's
    /// index vector: from the one segment covering the query, allocating
    /// nothing, which is what makes the compiled backend's hot loops
    /// cheap; else each segment's share of it in turn.
    ///
    /// # Panics
    /// Debug builds assert `out.len()` equals the section volume.
    pub fn read_section_into(&self, var: VarId, sec: &Section, out: &mut Buffer) -> bool {
        let entry = match self.entry(var) {
            Some(e) => e,
            None => return false,
        };
        debug_assert_eq!(out.len() as i64, sec.volume(), "out sized to section");
        if sec.is_empty() {
            return true;
        }
        if let Some(i) = entry.covering(sec) {
            let seg = &entry.segments[i];
            let data = seg.data.as_ref().unwrap();
            let (rows, inner, step) = row_shape(sec.dims(), seg.section.dims());
            for row in 0..rows {
                let base = row_start(sec.dims(), seg.section.dims(), row);
                copy_strided(out, row * inner, 1, data, base, step, inner);
            }
            return true;
        }
        // Disjoint segments: each one's share, from its storage.
        let mut covered = 0;
        let mut share = Vec::with_capacity(sec.rank());
        for (_, seg) in entry.hits(sec) {
            if let Some(data) = &seg.data {
                covered += meet_into(&mut share, &seg.section, sec);
                if !share.is_empty() {
                    copy_share(&share, seg.section.dims(), data, sec.dims(), out);
                }
            }
        }
        covered == sec.volume()
    }

    /// Scatter a row-major buffer into a section. Observable behavior
    /// matches [`RtSymbolTable::write_section`] — same final state, `false`
    /// iff some element lacks owned storage, no statistics touched — with
    /// the same strided single-covering-segment fast path as
    /// [`RtSymbolTable::read_section_into`].
    ///
    /// # Panics
    /// Panics when the buffer size disagrees with the section volume.
    pub fn write_section_from(&mut self, var: VarId, sec: &Section, buf: &Buffer) -> bool {
        assert_eq!(
            buf.len() as i64,
            sec.volume(),
            "payload/section size mismatch"
        );
        let entry = match self.entries.get_mut(var.index()).and_then(|e| e.as_mut()) {
            Some(e) => e,
            None => return false,
        };
        if sec.is_empty() {
            return true;
        }
        if let Some(i) = entry.covering(sec) {
            let seg = &mut entry.segments[i];
            let (rows, inner, step) = row_shape(sec.dims(), seg.section.dims());
            let data = seg.data.as_mut().unwrap();
            for row in 0..rows {
                let base = row_start(sec.dims(), seg.section.dims(), row);
                copy_strided(data, base, step, buf, row * inner, 1, inner);
            }
            return true;
        }
        // Disjoint segments: each one's share, once the storage is known
        // to hold all of it. Otherwise the per-element scatter writes what
        // it reaches, in row-major order, and says false.
        let covered: i64 = entry
            .hits(sec)
            .filter(|(_, s)| s.data.is_some())
            .map(|(_, s)| s.section.intersect_volume(sec))
            .sum();
        if covered != sec.volume() {
            return self.write_section(var, sec, buf);
        }
        let mut share = Vec::with_capacity(sec.rank());
        let mut cur = entry.index.cursor(sec);
        while let Some((_, id)) = cur.next(&entry.index.by_lb) {
            let seg = &mut entry.segments[id as usize];
            if let Some(data) = &mut seg.data {
                meet_into(&mut share, &seg.section, sec);
                if !share.is_empty() {
                    copy_share(&share, sec.dims(), buf, seg.section.dims(), data);
                }
            }
        }
        true
    }

    /// All live entries (for printing Figure 2).
    pub fn entries(&self) -> impl Iterator<Item = &SymEntry> {
        self.entries.iter().filter_map(|e| e.as_ref())
    }

    /// Total owned elements of a variable.
    pub fn owned_volume(&self, var: VarId) -> i64 {
        self.entry(var).map_or(0, |e| {
            e.segments
                .iter()
                .filter(|s| s.status.is_owned())
                .map(|s| s.volume())
                .sum()
        })
    }
}

/// `(covered, transitional)` of `sec` by the segments `segs` (the shared
/// elements, and whether any sharing segment awaits a receive); `None`
/// when an unowned segment shares one.
fn tally<'a>(segs: impl Iterator<Item = &'a SegmentDesc>, sec: &Section) -> Option<(i64, bool)> {
    let (covered, transitional, unowned) = segs.fold((0, false, false), |(c, t, u), seg| {
        let shared = seg.section.intersect_volume(sec);
        if shared == 0 {
            return (c, t, u);
        }
        let status = seg.status;
        (
            c + shared,
            t || status == SegStatus::Transitional,
            u || !status.is_owned(),
        )
    });
    (!unowned).then_some((covered, transitional))
}

/// Set `share` to the triplets of `a ∩ b`, or clear it when they do not
/// meet; returns the shared volume.
fn meet_into(share: &mut Vec<Triplet>, a: &Section, b: &Section) -> i64 {
    share.clear();
    share.extend(a.meet(b));
    if share.iter().any(Triplet::is_empty) {
        share.clear();
        return 0;
    }
    share.iter().map(Triplet::count).product()
}

/// Copy the elements of `share`, a section inside both `from` and `to`,
/// from `src` (storage in `from`'s row-major order) into `dst` (in
/// `to`'s), one strided row at a time.
fn copy_share(share: &[Triplet], from: &[Triplet], src: &Buffer, to: &[Triplet], dst: &mut Buffer) {
    let (rows, inner, from_step) = row_shape(share, from);
    let (_, _, to_step) = row_shape(share, to);
    for row in 0..rows {
        let (f, t) = (row_start(share, from, row), row_start(share, to, row));
        copy_strided(dst, t, to_step, src, f, from_step, inner);
    }
}

/// Decompose a section into rows for strided copying against a covering
/// segment: (row count, elements per row, stride within the segment's
/// innermost dimension). `covers` guarantees the query stride is a multiple
/// of the segment stride whenever the row has more than one element.
fn row_shape(sec: &[Triplet], seg: &[Triplet]) -> (usize, usize, usize) {
    let r = sec.len();
    if r == 0 {
        return (1, 1, 1);
    }
    let inner = sec[r - 1];
    let n = inner.count() as usize;
    let step = if n > 1 {
        (inner.st / seg[r - 1].st) as usize
    } else {
        1
    };
    let volume: i64 = sec.iter().map(Triplet::count).product();
    ((volume / n as i64) as usize, n, step)
}

/// The storage ordinal, within covering segment `seg`, of the first
/// element of `sec`'s row number `row` in [`row_shape`]'s row-major order:
/// `row` is peeled into a position along each outer dimension, innermost
/// first, so the walk needs no index vector. A rank-2 row, or a unit
/// stride, costs no division.
fn row_start(sec: &[Triplet], seg: &[Triplet], mut row: usize) -> usize {
    let (mut ord, mut scale) = (0, 1);
    for (d, (q, s)) in sec.iter().zip(seg).enumerate().rev() {
        let mut i = q.lb;
        if d + 1 < sec.len() {
            // The outermost dimension takes what is left of `row` whole.
            let k = if d == 0 {
                row
            } else {
                let count = q.count() as usize;
                let k = row % count;
                row /= count;
                k
            };
            i += k as i64 * q.st;
        }
        let off = (i - s.lb) as usize;
        ord += if s.st == 1 { off } else { off / s.st as usize } * scale;
        scale *= s.count() as usize;
    }
    ord
}

/// Copy `n` elements from `src`, starting at `src_off` and `src_step`
/// apart, into `dst` from `dst_off`, `dst_step` apart. Same-type buffers
/// copy without boxing every element through [`Value`]; mixed types
/// coerce exactly like [`Buffer::set`].
fn copy_strided(
    dst: &mut Buffer,
    dst_off: usize,
    dst_step: usize,
    src: &Buffer,
    src_off: usize,
    src_step: usize,
    n: usize,
) {
    match (&mut *dst, src) {
        (Buffer::I64(d), Buffer::I64(s)) => {
            copy_rows(d, dst_off, dst_step, s, src_off, src_step, n)
        }
        (Buffer::F64(d), Buffer::F64(s)) => {
            copy_rows(d, dst_off, dst_step, s, src_off, src_step, n)
        }
        (Buffer::C64(d), Buffer::C64(s)) => {
            copy_rows(d, dst_off, dst_step, s, src_off, src_step, n)
        }
        _ => {
            for k in 0..n {
                dst.set(dst_off + k * dst_step, src.get(src_off + k * src_step));
            }
        }
    }
}

#[inline]
fn copy_rows<T: Copy>(
    dst: &mut [T],
    dst_off: usize,
    dst_step: usize,
    src: &[T],
    src_off: usize,
    src_step: usize,
    n: usize,
) {
    if dst_step == 1 && src_step == 1 {
        dst[dst_off..dst_off + n].copy_from_slice(&src[src_off..src_off + n]);
    } else {
        for k in 0..n {
            dst[dst_off + k * dst_step] = src[src_off + k * src_step];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::build as b;
    use xdp_ir::{DimDist, ProcGrid, Triplet};

    fn decls() -> Vec<Decl> {
        vec![
            // A[1:4,1:8] (*,BLOCK) over 4 procs, segments (2,1) — Figure 2.
            b::array_seg(
                "A",
                ElemType::F64,
                vec![(1, 4), (1, 8)],
                vec![DimDist::Star, DimDist::Block],
                ProcGrid::linear(4),
                vec![2, 1],
            ),
            // i — universal scalar-ish array stand-in (universal: no entry).
            b::universal_array("i", ElemType::I64, vec![(1, 1)]),
            // B[1:16,1:16] (BLOCK,CYCLIC) over 2x2, segments (4,2).
            b::array_seg(
                "B",
                ElemType::F64,
                vec![(1, 16), (1, 16)],
                vec![DimDist::Block, DimDist::Cyclic],
                ProcGrid::grid2(2, 2),
                vec![4, 2],
            ),
        ]
    }

    fn sec(dims: &[(i64, i64, i64)]) -> Section {
        Section::new(
            dims.iter()
                .map(|&(l, u, s)| Triplet::new(l, u, s))
                .collect(),
        )
    }

    #[test]
    fn build_matches_figure2() {
        let t = RtSymbolTable::build(0, &decls());
        let a = t.entry(VarId(0)).unwrap();
        assert_eq!(a.var, VarId(0));
        assert_eq!(a.segments.len(), 4); // Figure 2: #segments = 4
        assert!(a.segments.iter().all(|s| s.volume() == 2));
        // Universal variable: no entry.
        assert!(t.entry(VarId(1)).is_none());
        let b_ = t.entry(VarId(2)).unwrap();
        assert_eq!(b_.segments.len(), 8); // 64 elems / (4x2) = 8 segments
        assert_eq!(t.owned_volume(VarId(2)), 64);
    }

    #[test]
    fn iown_follows_initial_distribution() {
        let mut t3 = RtSymbolTable::build(3, &decls());
        // P3 owns A columns 7:8.
        assert!(t3.iown(VarId(0), &sec(&[(1, 4, 1), (7, 8, 1)])));
        assert!(t3.iown(VarId(0), &sec(&[(2, 3, 1), (7, 7, 1)])));
        assert!(!t3.iown(VarId(0), &sec(&[(1, 4, 1), (6, 7, 1)])));
        assert!(!t3.iown(VarId(0), &sec(&[(1, 1, 1), (1, 1, 1)])));
        // B on P3: rows 9:16, even columns.
        assert!(t3.iown(VarId(2), &sec(&[(9, 12, 1), (2, 8, 2)])));
        assert!(!t3.iown(VarId(2), &sec(&[(9, 12, 1), (2, 3, 1)])));
    }

    #[test]
    fn mylb_myub() {
        let mut t3 = RtSymbolTable::build(3, &decls());
        let full_a = sec(&[(1, 4, 1), (1, 8, 1)]);
        assert_eq!(t3.mylb(VarId(0), &full_a, 1), 1);
        assert_eq!(t3.mylb(VarId(0), &full_a, 2), 7);
        assert_eq!(t3.myub(VarId(0), &full_a, 2), 8);
        // Query restricted to unowned part.
        let left = sec(&[(1, 4, 1), (1, 2, 1)]);
        assert_eq!(t3.mylb(VarId(0), &left, 2), i64::MAX);
        assert_eq!(t3.myub(VarId(0), &left, 2), i64::MIN);
        // Universal var: never owned.
        assert_eq!(t3.mylb(VarId(1), &sec(&[(1, 1, 1)]), 1), i64::MAX);
    }

    #[test]
    fn element_and_section_io() {
        let mut t = RtSymbolTable::build(1, &decls());
        // P1 owns A columns 3:4.
        assert!(t.write(VarId(0), &[2, 3], Value::F64(5.0)));
        assert_eq!(t.read(VarId(0), &[2, 3]), Some(Value::F64(5.0)));
        assert!(!t.write(VarId(0), &[2, 5], Value::F64(1.0)));
        assert_eq!(t.read(VarId(0), &[2, 5]), None);
        let col = sec(&[(1, 4, 1), (3, 3, 1)]);
        for (k, idx) in col.iter().enumerate() {
            t.write(VarId(0), &idx, Value::F64(k as f64));
        }
        let buf = t.read_section(VarId(0), &col).unwrap();
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.get(3), Value::F64(3.0));
        assert!(t
            .read_section(VarId(0), &sec(&[(1, 4, 1), (2, 3, 1)]))
            .is_none());
    }

    /// `read_section_into`/`write_section_from` must be observably
    /// identical to `read_section`/`write_section` on every shape of
    /// query: covered by one segment, spanning segments, strided, partly
    /// unowned, empty, and universal (no entry).
    #[test]
    fn fast_section_io_matches_slow_path() {
        let queries = [
            sec(&[(1, 4, 1), (3, 3, 1)]), // one column, two segments
            sec(&[(1, 2, 1), (3, 3, 1)]), // wholly inside one segment
            sec(&[(1, 4, 1), (3, 4, 1)]), // spans all four P1 segments
            sec(&[(1, 3, 2), (3, 3, 1)]), // strided rows
            sec(&[(2, 1, 1), (3, 3, 1)]), // empty
            sec(&[(1, 4, 1), (2, 4, 1)]), // partly unowned on P1
        ];
        for q in &queries {
            let mut t = RtSymbolTable::build(1, &decls());
            // Seed distinct values in P1's owned columns 3:4.
            for (k, idx) in sec(&[(1, 4, 1), (3, 4, 1)]).iter().enumerate() {
                t.write(VarId(0), &idx, Value::F64(10.0 + k as f64));
            }
            let want = t.read_section(VarId(0), q);
            let mut out = Buffer::zeros(ElemType::F64, q.volume() as usize);
            let ok = t.read_section_into(VarId(0), q, &mut out);
            assert_eq!(ok, want.is_some(), "read ok mismatch for {q}");
            if let Some(w) = want {
                assert_eq!(out, w, "read values mismatch for {q}");
            }

            // Write a recognizable ramp two ways and compare final state.
            let mut ramp = Buffer::zeros(ElemType::F64, q.volume() as usize);
            for i in 0..ramp.len() {
                ramp.set(i, Value::F64(100.0 + i as f64));
            }
            let mut slow = t.clone();
            let ok_slow = slow.write_section(VarId(0), q, &ramp);
            let ok_fast = t.write_section_from(VarId(0), q, &ramp);
            assert_eq!(ok_fast, ok_slow, "write ok mismatch for {q}");
            let full = sec(&[(1, 4, 1), (3, 4, 1)]);
            assert_eq!(
                t.read_section(VarId(0), &full),
                slow.read_section(VarId(0), &full),
                "write state mismatch for {q}"
            );
        }
        // Universal variable: no entry on either path.
        let mut t = RtSymbolTable::build(1, &decls());
        let q = sec(&[(1, 1, 1)]);
        let mut out = Buffer::zeros(ElemType::I64, 1);
        assert!(!t.read_section_into(VarId(1), &q, &mut out));
        assert!(!t.write_section_from(VarId(1), &q, &out));

        // An ownership send gathers, and a value receive scatters, through
        // the pair above: what each returns, its error, and the table it
        // leaves must be the per-element path's. A's columns on P1, and
        // B's strided columns on P3 (segments of two every other column).
        let cases = [
            (1, VarId(0), sec(&[(1, 4, 1), (3, 3, 1)])), // two segments
            (1, VarId(0), sec(&[(1, 4, 1), (3, 4, 1)])), // all four
            (1, VarId(0), sec(&[(1, 2, 1), (4, 4, 1)])), // one segment
            (1, VarId(0), sec(&[(1, 3, 2), (3, 3, 1)])), // strided, splits two
            (1, VarId(0), sec(&[(1, 4, 1), (2, 4, 1)])), // partly unowned
            (1, VarId(0), sec(&[(2, 1, 1), (3, 3, 1)])), // empty
            (3, VarId(2), sec(&[(9, 16, 1), (2, 8, 2)])), // strided, four
            (3, VarId(2), sec(&[(9, 12, 1), (2, 16, 2)])), // strided, four
            (3, VarId(2), sec(&[(9, 12, 1), (6, 10, 2)])), // strided, splits two
            (3, VarId(2), sec(&[(9, 12, 1), (1, 16, 1)])), // partly unowned
        ];
        let seeded = |pid: usize, var: VarId| {
            let mut t = RtSymbolTable::build(pid, &decls());
            t.init_owned(var, |idx| Value::F64((idx[0] * 100 + idx[1]) as f64));
            t
        };
        for (pid, var, q) in &cases {
            let mut t = seeded(*pid, *var);
            let mut slow = t.clone();
            assert_eq!(
                t.remove_ownership(*var, q),
                remove_ownership_per_element(&mut slow, *var, q),
                "remove_ownership({q}) on p{pid}"
            );
            assert_eq!(format!("{t:?}"), format!("{slow:?}"), "after sending {q}");

            let mut t = seeded(*pid, *var);
            let touched = t.begin_value_recv(*var, q).unwrap_or_default();
            for len in [q.volume() as usize, q.volume() as usize + 1] {
                let mut ramp = Buffer::zeros(ElemType::F64, len);
                for i in 0..len {
                    ramp.set(i, Value::F64(0.5 + i as f64));
                }
                let (mut fast, mut slow) = (t.clone(), t.clone());
                assert_eq!(
                    fast.complete_value_recv(*var, q, &touched, &ramp),
                    complete_value_recv_per_element(&mut slow, *var, q, &touched, &ramp),
                    "complete_value_recv({q}) of {len} on p{pid}"
                );
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{slow:?}"),
                    "after receiving {q}"
                );
            }
        }
    }

    /// [`RtSymbolTable::remove_ownership`] with the per-element gather.
    fn remove_ownership_per_element(
        t: &mut RtSymbolTable,
        var: VarId,
        sec: &Section,
    ) -> Result<Buffer, SymtabError> {
        let sec = sec.clone();
        match t.state_of(var, &sec) {
            SecState::Unowned => return Err(SymtabError::NotOwned { var, sec }),
            SecState::Transitional => return Err(SymtabError::NotAccessible { var, sec }),
            SecState::Accessible => {}
        }
        let sends = |s: &SegmentDesc| s.status.is_owned() && s.section.overlaps(&sec);
        let segments = &mut t.entry_mut(var)?.segments;
        if segments.iter().any(|s| sends(s) && !sec.covers(&s.section)) {
            return Err(SymtabError::NotSegmentAligned { var, sec });
        }
        let Some(data) = t.read_section(var, &sec) else {
            return Err(SymtabError::NotOwned { var, sec });
        };
        let segments = &mut t.entry_mut(var)?.segments;
        let freed = segments
            .iter_mut()
            .filter(|s| sends(s))
            .map(|s| s.release())
            .sum();
        t.stats.free(freed);
        Ok(data)
    }

    /// [`RtSymbolTable::complete_value_recv`] with the per-element scatter.
    fn complete_value_recv_per_element(
        t: &mut RtSymbolTable,
        var: VarId,
        sec: &Section,
        touched: &[usize],
        payload: &Buffer,
    ) -> Result<(), SymtabError> {
        let sec = sec.clone();
        if payload.len() as i64 != sec.volume() {
            let payload = payload.len();
            return Err(SymtabError::SizeMismatch { var, sec, payload });
        }
        for &i in touched {
            t.entry_mut(var)?.segments[i].status = SegStatus::Accessible;
        }
        match t.write_section(var, &sec, payload) {
            true => Ok(()),
            false => Err(SymtabError::NotOwned { var, sec }),
        }
    }

    /// The fast path must coerce element types exactly like `Buffer::set`
    /// when the payload type differs from the storage type.
    #[test]
    fn fast_section_io_coerces_mixed_types() {
        let mut t = RtSymbolTable::build(1, &decls());
        let q = sec(&[(1, 4, 1), (3, 3, 1)]);
        let mut ints = Buffer::zeros(ElemType::I64, 4);
        for i in 0..4 {
            ints.set(i, Value::I64(i as i64 + 7));
        }
        assert!(t.write_section_from(VarId(0), &q, &ints));
        assert_eq!(
            t.read_section(VarId(0), &q).unwrap(),
            Buffer::F64(vec![7.0, 8.0, 9.0, 10.0])
        );
        let mut back = Buffer::zeros(ElemType::I64, 4);
        assert!(t.read_section_into(VarId(0), &q, &mut back));
        assert_eq!(back, Buffer::I64(vec![7, 8, 9, 10]));
    }

    #[test]
    fn value_recv_state_machine() {
        let mut t = RtSymbolTable::build(0, &decls());
        let col = sec(&[(1, 4, 1), (1, 1, 1)]);
        assert_eq!(t.state_of(VarId(0), &col), SecState::Accessible);
        let touched = t.begin_value_recv(VarId(0), &col).unwrap();
        assert_eq!(touched.len(), 2); // two (2,1) segments per column
        assert_eq!(t.state_of(VarId(0), &col), SecState::Transitional);
        assert!(!t.accessible(VarId(0), &col));
        assert!(t.iown(VarId(0), &col)); // transitional still owned
        let mut payload = Buffer::zeros(ElemType::F64, 4);
        payload.set(0, Value::F64(9.0));
        t.complete_value_recv(VarId(0), &col, &touched, &payload)
            .unwrap();
        assert_eq!(t.state_of(VarId(0), &col), SecState::Accessible);
        assert_eq!(t.read(VarId(0), &[1, 1]), Some(Value::F64(9.0)));
    }

    #[test]
    fn value_recv_into_unowned_is_error() {
        let mut t = RtSymbolTable::build(0, &decls());
        let col = sec(&[(1, 4, 1), (5, 5, 1)]); // P2's column
        assert_eq!(
            t.begin_value_recv(VarId(0), &col),
            Err(SymtabError::NotOwned {
                var: VarId(0),
                sec: col
            })
        );
    }

    #[test]
    fn ownership_transfer_roundtrip() {
        let mut t0 = RtSymbolTable::build(0, &decls());
        let mut t1 = RtSymbolTable::build(1, &decls());
        // P0 sends ownership+value of its column A[*,1] to P1.
        let col = sec(&[(1, 4, 1), (1, 1, 1)]);
        for (k, idx) in col.iter().enumerate() {
            t0.write(VarId(0), &idx, Value::F64(10.0 + k as f64));
        }
        let before = t0.stats.live_bytes;
        let data = t0.remove_ownership(VarId(0), &col).unwrap();
        assert_eq!(t0.stats.live_bytes, before - 32);
        assert!(!t0.iown(VarId(0), &col));
        // P1 initiates and completes the matching receive.
        assert!(!t1.iown(VarId(0), &col));
        let sid = t1.begin_ownership_recv(VarId(0), &col).unwrap();
        assert!(t1.iown(VarId(0), &col)); // transitional counts as owned
        assert_eq!(t1.state_of(VarId(0), &col), SecState::Transitional);
        t1.complete_ownership_recv(VarId(0), sid, Some(&data))
            .unwrap();
        assert_eq!(t1.state_of(VarId(0), &col), SecState::Accessible);
        assert_eq!(t1.read(VarId(0), &[2, 1]), Some(Value::F64(11.0)));
        assert_eq!(t1.owned_volume(VarId(0)), 8 + 4);
    }

    #[test]
    fn ownership_send_must_be_segment_aligned() {
        let mut t0 = RtSymbolTable::build(0, &decls());
        // Half a segment: A has (2,1) segments; [1:1,1] splits one.
        let half = sec(&[(1, 1, 1), (1, 1, 1)]);
        assert!(matches!(
            t0.remove_ownership(VarId(0), &half),
            Err(SymtabError::NotSegmentAligned { .. })
        ));
    }

    #[test]
    fn ownership_recv_of_owned_is_error() {
        let mut t0 = RtSymbolTable::build(0, &decls());
        let col = sec(&[(1, 4, 1), (1, 1, 1)]);
        assert!(matches!(
            t0.begin_ownership_recv(VarId(0), &col),
            Err(SymtabError::AlreadyOwned { .. })
        ));
    }

    #[test]
    fn slot_reuse_on_ownership_cycle() {
        let mut t0 = RtSymbolTable::build(0, &decls());
        let col1 = sec(&[(1, 4, 1), (1, 1, 1)]);
        let col5 = sec(&[(1, 4, 1), (5, 5, 1)]);
        t0.remove_ownership(VarId(0), &col1).unwrap();
        // Receiving a different section reuses the freed descriptor slots.
        let sid = t0.begin_ownership_recv(VarId(0), &col5).unwrap();
        t0.complete_ownership_recv(VarId(0), sid, None).unwrap();
        assert_eq!(t0.stats.slots_reused, 1);
        assert!(t0.iown(VarId(0), &col5));
        let a = t0.entry(VarId(0)).unwrap();
        // Two original (2,1) segments went unowned; one slot was reused, so
        // the descriptor array did not grow past its original 4.
        assert_eq!(a.segments.len(), 4);
    }

    #[test]
    fn transitional_blocks_ownership_send() {
        let mut t0 = RtSymbolTable::build(0, &decls());
        let col = sec(&[(1, 4, 1), (1, 1, 1)]);
        let _ = t0.begin_value_recv(VarId(0), &col).unwrap();
        assert!(matches!(
            t0.remove_ownership(VarId(0), &col),
            Err(SymtabError::NotAccessible { .. })
        ));
    }

    #[test]
    fn stats_track_queries_and_storage() {
        let mut t = RtSymbolTable::build(0, &decls());
        let q0 = t.stats.queries;
        let _ = t.iown(VarId(0), &sec(&[(1, 4, 1), (1, 2, 1)]));
        let _ = t.accessible(VarId(0), &sec(&[(1, 4, 1), (1, 2, 1)]));
        assert_eq!(t.stats.queries, q0 + 2);
        assert!(t.stats.segments_scanned > 0);
        // Initial allocation: A local 4x2=8 f64 + B local 8x8=64 f64.
        assert_eq!(t.stats.live_bytes, (8 + 64) * 8);
        assert_eq!(t.stats.peak_bytes, t.stats.live_bytes);
    }
}
