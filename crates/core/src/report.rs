//! Execution reports: virtual/wall time, per-processor breakdowns,
//! network traffic, and the recorded trace.
//!
//! The per-interval timeline that used to live here (`TimelineEvent`) is
//! now the structured event model of the `xdp-trace` crate: both backends
//! record [`xdp_trace::TraceEvent`]s, and this report carries the whole
//! [`Trace`] — exporters, Gantt rendering, and critical-path analysis all
//! operate on it.

use std::time::Duration;
use xdp_fault::{FaultEvent, FaultEventKind, FaultStats};
use xdp_ir::{Section, VarId};
use xdp_machine::NetStats;
use xdp_runtime::symtab::SymtabStats;
use xdp_runtime::Value;
use xdp_trace::{Trace, TraceEvent, TraceKind};

/// Per-processor execution summary.
#[derive(Clone, Debug, Default)]
pub struct ProcReport {
    /// Virtual time at which this processor finished.
    pub finish_time: f64,
    /// Time spent computing (including rule evaluation and comm CPU
    /// overhead).
    pub busy: f64,
    /// Time spent blocked on receives/barriers.
    pub wait: f64,
    /// Messages sent / receive completions.
    pub sends: u64,
    pub recvs: u64,
    /// Final symbol-table statistics.
    pub symtab: SymtabStats,
}

/// Result of a simulated execution.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Machine size.
    pub nprocs: usize,
    /// Completion time = max over processors (virtual).
    pub virtual_time: f64,
    /// Per-processor summaries.
    pub procs: Vec<ProcReport>,
    /// Network counters.
    pub net: NetStats,
    /// Recorded trace (empty unless a `TraceConfig` enabled recording).
    pub trace: Trace,
    /// Fault-injection/delivery counters (all zero without a fault plan).
    pub faults: FaultStats,
}

impl ExecReport {
    /// Total busy time across processors.
    pub fn total_busy(&self) -> f64 {
        self.procs.iter().map(|p| p.busy).sum()
    }

    /// Total wait time across processors.
    pub fn total_wait(&self) -> f64 {
        self.procs.iter().map(|p| p.wait).sum()
    }

    /// Parallel efficiency proxy: busy / (nprocs * makespan).
    pub fn efficiency(&self) -> f64 {
        if self.virtual_time == 0.0 {
            return 1.0;
        }
        self.total_busy() / (self.nprocs as f64 * self.virtual_time)
    }

    /// Render a compact textual Gantt chart of the recorded trace (one
    /// row per processor, `#` compute, `.` wait, `s`/`r` comm overhead).
    pub fn gantt(&self, width: usize) -> String {
        if self.trace.is_empty() || self.virtual_time <= 0.0 {
            return String::from("(no trace recorded)\n");
        }
        self.trace.gantt(width)
    }
}

/// Result of a wall-clock run ([`crate::AsyncExec`]).
#[derive(Debug)]
pub struct ThreadReport {
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
    /// Network counters.
    pub net: NetStats,
    /// Final per-processor symbol-table statistics.
    pub symtab: Vec<SymtabStats>,
    /// Recorded trace (wall-clock microseconds; empty unless enabled).
    pub trace: Trace,
    /// Fault-injection/delivery counters (all zero without a fault plan).
    pub faults: FaultStats,
}

impl ThreadReport {
    /// Lift into the simulator's report shape: `virtual_time` is the wall
    /// time in microseconds, and the per-processor clocks a real-parallel
    /// machine does not have stay zero.
    pub fn into_exec_report(self) -> ExecReport {
        ExecReport {
            nprocs: self.symtab.len(),
            virtual_time: self.wall.as_secs_f64() * 1e6,
            procs: self
                .symtab
                .into_iter()
                .map(|symtab| ProcReport {
                    symtab,
                    ..ProcReport::default()
                })
                .collect(),
            net: self.net,
            trace: self.trace,
            faults: self.faults,
        }
    }
}

/// The gathered global contents of one exclusive array after execution:
/// for every element of the array's index space, the owner pid and value
/// where some processor owns it. Stored densely, row-major over the full
/// section, so gathering is O(owned elements) and iteration is in
/// ascending index order. Used by tests to verify distributed results
/// against sequential references.
#[derive(Clone, Debug, PartialEq)]
pub struct Gathered {
    full: Section,
    cells: Vec<Option<(usize, Value)>>,
}

impl Gathered {
    /// An image of the index space `full` with every element unowned.
    pub fn new(full: Section) -> Gathered {
        let cells = vec![None; full.volume() as usize];
        Gathered { full, cells }
    }

    /// The array's index space.
    pub fn full(&self) -> &Section {
        &self.full
    }

    /// Record that `pid` owns `idx` with value `val`.
    ///
    /// # Panics
    /// Panics if `idx` is outside the index space or already has an owner.
    pub fn insert(&mut self, idx: &[i64], pid: usize, val: Value) {
        let ord = self
            .full
            .ordinal_of(idx)
            .unwrap_or_else(|| panic!("element {idx:?} outside {}", self.full));
        put(&self.full, &mut self.cells, ord as usize, pid, val);
    }

    /// Record everything processor `pid`'s table holds of `var`.
    ///
    /// # Panics
    /// Panics if an element already has an owner.
    pub fn absorb(&mut self, pid: usize, table: &xdp_runtime::RtSymbolTable, var: VarId) {
        let Gathered { full, cells } = self;
        table.visit_owned(var, full, |ord, val| put(full, cells, ord, pid, val));
    }

    fn cell(&self, idx: &[i64]) -> Option<(usize, Value)> {
        self.cells[self.full.ordinal_of(idx)? as usize]
    }

    /// Value at an index, if owned anywhere.
    pub fn get(&self, idx: &[i64]) -> Option<Value> {
        self.cell(idx).map(|(_, v)| v)
    }

    /// Owner pid of an index.
    pub fn owner(&self, idx: &[i64]) -> Option<usize> {
        self.cell(idx).map(|(p, _)| p)
    }

    /// Visit every owned element as (index, owner pid, value), in ascending
    /// lexicographic index order.
    pub fn for_each(&self, mut visit: impl FnMut(&[i64], usize, Value)) {
        let mut idx: Vec<i64> = self.full.dims().iter().map(|t| t.lb).collect();
        for cell in &self.cells {
            if let Some((pid, val)) = cell {
                visit(&idx, *pid, *val);
            }
            self.full.advance(&mut idx);
        }
    }

    /// Dense row-major values over `sec` (None where unowned).
    pub fn dense(&self, sec: &Section) -> Vec<Option<Value>> {
        sec.iter().map(|idx| self.get(&idx)).collect()
    }

    /// Assert every element of `sec` is present and f64-close to `want`
    /// (row-major).
    pub fn assert_close_f64(&self, sec: &Section, want: &[f64], tol: f64) {
        assert_eq!(want.len() as i64, sec.volume());
        for (k, idx) in sec.iter().enumerate() {
            let got = self
                .get(&idx)
                .unwrap_or_else(|| panic!("element {idx:?} unowned"))
                .as_f64();
            assert!(
                (got - want[k]).abs() <= tol,
                "at {idx:?}: got {got}, want {}",
                want[k]
            );
        }
    }

    /// Which pid owns each element of `sec`, row-major; None if unowned.
    pub fn owners(&self, sec: &Section) -> Vec<Option<usize>> {
        sec.iter().map(|idx| self.owner(&idx)).collect()
    }
}

/// Give cell `ord` of an image over `full` its one owner.
fn put(full: &Section, cells: &mut [Option<(usize, Value)>], ord: usize, pid: usize, val: Value) {
    let prev = cells[ord].replace((pid, val));
    assert!(
        prev.is_none(),
        "element {:?} owned by two processors",
        full.nth(ord as i64).expect("ordinal in range")
    );
}

/// Convert delivery-layer fault events into trace instants on the sending
/// processor's timeline: retries, injected drops (incl. the terminal loss),
/// and suppressed duplicates. Instants ride on top of the span tiling, so
/// adding them never perturbs the movement multiset or the critical-path
/// attribution — retry *time* shows up in the wire/wait spans it delayed.
pub fn fault_trace_events(events: &[FaultEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter_map(|e| {
            let (kind, detail) = match e.kind {
                FaultEventKind::Retry { attempt } => {
                    (TraceKind::Retry, format!("{} attempt {}", e.tag, attempt))
                }
                FaultEventKind::DropInjected => (TraceKind::FaultDrop, e.tag.clone()),
                FaultEventKind::Lost { attempts } => (
                    TraceKind::FaultDrop,
                    format!("{} lost after {} attempts", e.tag, attempts),
                ),
                FaultEventKind::DupSuppressed => (TraceKind::DupSuppressed, e.tag.clone()),
                // The injected copy itself is invisible to the program;
                // its suppression is the observable event.
                FaultEventKind::DupInjected => return None,
            };
            Some(TraceEvent {
                detail: Some(detail.into()),
                src: Some(e.src as u32),
                ..TraceEvent::instant(kind, e.src, e.t)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_and_totals() {
        let r = ExecReport {
            nprocs: 2,
            virtual_time: 100.0,
            procs: vec![
                ProcReport {
                    busy: 80.0,
                    wait: 20.0,
                    ..Default::default()
                },
                ProcReport {
                    busy: 60.0,
                    wait: 40.0,
                    ..Default::default()
                },
            ],
            net: NetStats::new(2),
            trace: Trace::new(2),
            faults: FaultStats::default(),
        };
        assert_eq!(r.total_busy(), 140.0);
        assert_eq!(r.total_wait(), 60.0);
        assert!((r.efficiency() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn efficiency_of_an_empty_run_is_one() {
        let r = ExecReport {
            nprocs: 4,
            virtual_time: 0.0,
            procs: vec![ProcReport::default(); 4],
            net: NetStats::new(4),
            trace: Trace::new(4),
            faults: FaultStats::default(),
        };
        assert_eq!(r.efficiency(), 1.0);
        assert_eq!(r.gantt(40), "(no trace recorded)\n");
    }

    #[test]
    fn gathered_lookup_dense_and_owners() {
        let mut g = Gathered::new(Section::new(vec![xdp_ir::Triplet::range(1, 3)]));
        g.insert(&[1], 0, Value::F64(10.0));
        g.insert(&[2], 1, Value::F64(20.0));
        assert_eq!(g.get(&[1]), Some(Value::F64(10.0)));
        assert_eq!(g.owner(&[2]), Some(1));
        assert_eq!(g.get(&[3]), None);
        let sec = Section::new(vec![xdp_ir::Triplet::range(1, 3)]);
        assert_eq!(
            g.dense(&sec),
            vec![Some(Value::F64(10.0)), Some(Value::F64(20.0)), None]
        );
        assert_eq!(g.owners(&sec), vec![Some(0), Some(1), None]);
        let small = Section::new(vec![xdp_ir::Triplet::range(1, 2)]);
        g.assert_close_f64(&small, &[10.0, 20.0], 1e-12);
    }

    #[test]
    #[should_panic(expected = "unowned")]
    fn assert_close_panics_on_unowned_elements() {
        let sec = Section::new(vec![xdp_ir::Triplet::range(1, 1)]);
        let g = Gathered::new(sec.clone());
        g.assert_close_f64(&sec, &[1.0], 1e-12);
    }

    /// The dense image visits owned elements in the order the
    /// `BTreeMap<Vec<i64>, _>` it replaced iterated: ascending
    /// lexicographic index, whatever order they were recorded in.
    #[test]
    fn gathered_visits_in_lexicographic_index_order() {
        use std::collections::BTreeMap;
        let full = Section::new(vec![
            xdp_ir::Triplet::range(-1, 1),
            xdp_ir::Triplet::range(9, 11),
        ]);
        let mut g = Gathered::new(full.clone());
        let mut oracle = BTreeMap::new();
        // Back to front, skipping one element (left unowned).
        for (k, idx) in full
            .iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
        {
            if idx == [0, 10] {
                continue;
            }
            g.insert(&idx, k % 3, Value::I64(k as i64));
            oracle.insert(idx, (k % 3, Value::I64(k as i64)));
        }
        let mut seen = Vec::new();
        g.for_each(|idx, pid, val| seen.push((idx.to_vec(), (pid, val))));
        assert_eq!(seen, oracle.into_iter().collect::<Vec<_>>());
        assert_eq!(g.get(&[0, 10]), None);
        assert_eq!(g.get(&[0]), None, "wrong rank is simply absent");
        assert_eq!(g.get(&[5, 10]), None, "outside the array is absent");
    }

    #[test]
    #[should_panic(expected = "element [1] owned by two processors")]
    fn gather_panics_on_doubly_owned_elements() {
        use xdp_ir::{build as b, DimDist, ElemType, ProcGrid};
        let decls = vec![b::array(
            "A",
            ElemType::F64,
            vec![(1, 4)],
            vec![DimDist::Block],
            ProcGrid::linear(2),
        )];
        // Two processors that both believe they are pid 0.
        let t = xdp_runtime::RtSymbolTable::build(0, &decls);
        let mut g = Gathered::new(Section::new(decls[0].bounds.clone()));
        g.absorb(0, &t, VarId(0));
        g.absorb(1, &t, VarId(0));
    }

    #[test]
    fn fault_events_map_to_trace_instants() {
        let ev = |kind| FaultEvent {
            t: 5.0,
            kind,
            src: 2,
            seq: 1,
            tag: "A@[1:1]".into(),
        };
        let events = vec![
            ev(FaultEventKind::Retry { attempt: 3 }),
            ev(FaultEventKind::DropInjected),
            ev(FaultEventKind::Lost { attempts: 7 }),
            ev(FaultEventKind::DupSuppressed),
            ev(FaultEventKind::DupInjected), // invisible: suppression is the event
        ];
        let out = fault_trace_events(&events);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].kind, TraceKind::Retry);
        assert!(out[0].detail.as_deref().unwrap().contains("attempt 3"));
        assert_eq!(out[1].kind, TraceKind::FaultDrop);
        assert_eq!(out[2].kind, TraceKind::FaultDrop);
        assert!(out[2]
            .detail
            .as_deref()
            .unwrap()
            .contains("after 7 attempts"));
        assert_eq!(out[3].kind, TraceKind::DupSuppressed);
        for e in &out {
            assert_eq!(e.pid, 2);
            assert_eq!(e.src, Some(2));
            assert_eq!(e.t0, 5.0);
        }
    }

    #[test]
    fn gantt_renders() {
        let mut trace = Trace::new(1);
        trace.end = 10.0;
        trace.push(TraceEvent::span(TraceKind::Compute, 0, 0.0, 5.0));
        trace.push(TraceEvent::span(TraceKind::Wait, 0, 5.0, 10.0));
        let r = ExecReport {
            nprocs: 1,
            virtual_time: 10.0,
            procs: vec![ProcReport::default()],
            net: NetStats::new(1),
            trace,
            faults: FaultStats::default(),
        };
        let g = r.gantt(20);
        assert!(g.contains('#'));
        assert!(g.contains('.'));
    }
}
