//! Optimization passes over IL+XDP.
//!
//! Every optimization the paper walks through is an IR-to-IR rewrite here:
//!
//! | Pass | Paper source | Effect |
//! |---|---|---|
//! | [`ElideSameOwnerComm`] | §2.2 "the data transfer statements can be eliminated" | drops send/recv pairs whose operand and target have equal [`OwnerMap`](xdp_ir::analysis::OwnerMap)s |
//! | [`LocalizeBounds`] | §2.2/§4 compute-rule elimination | shrinks loop bounds to the one run of iterations each processor's `OwnerMap` holds; removes `iown` guards; eliminates single-iteration loops by substituting `mypid` |
//! | [`VectorizeMessages`] | §2.2 "combine or *vectorize* the messages" | replaces per-iteration transfers with one section transfer per run of (operand map of p) ∩ (target map of q), into an aligned ghost array |
//! | [`BindCommunication`] | §3.2 delayed binding | annotates sends with receiver pids (the distribution's owner expression, or a constant), eliding the name header |
//! | [`FuseLoops`] | §4 Loop2+Loop3a fusion | fuses adjacent conformable loops unless two accesses meet at an iteration distance ≥ 1 |
//! | [`SinkAwait`] | §4 final step | moves a section-level `await` into the loop at per-iteration granularity when the per-iteration pieces tile the awaited section |
//! | [`MigrateOwnership`] | §2.2 second fragment | rewrites owner-computes into the dynamic ownership-migration strategy |
//! | [`LowerRedistribute`] | §2.2 + planner | collapses whole-array ownership-migration nests into one planned `redistribute` |
//! | [`ElideAccessibleChecks`] | §3.2 use-def elimination | downgrades `await`/`accessible` to `iown` when no receive can make the section transitional |
//! | [`AutoPlace`] | §1 "the compiler can optimize the placement" | searches per-phase distributions with the cost model and rewrites decls + inserts `redistribute` |
//!
//! Ownership questions are asked of `xdp_ir::analysis` and answered on
//! triplets, so a pass costs the same at n = 64 and n = 2^20. A pass whose
//! recogniser matched a construct and then left it alone says so in a
//! `<pass>: declined <construct> — <reason>` note ([`declined`]): "no
//! change" with no note means nothing matched.

mod autoplace;
mod bind;
mod elide_checks;
mod elide_comm;
mod fuse;
mod localize;
mod lower_redistribute;
mod migrate;
pub mod pattern;
mod sink_await;
mod vectorize;

pub use autoplace::AutoPlace;
pub use bind::BindCommunication;
pub use elide_checks::ElideAccessibleChecks;
pub use elide_comm::ElideSameOwnerComm;
pub use fuse::FuseLoops;
pub use localize::LocalizeBounds;
pub use lower_redistribute::LowerRedistribute;
pub use migrate::MigrateOwnership;
pub use sink_await::SinkAwait;
pub use vectorize::VectorizeMessages;

use std::fmt::Display;
use xdp_ir::Program;
use xdp_trace::{CompileTrace, PassTrace};

/// The note of a pass that matched `what` and left it alone because `why`.
pub(crate) fn declined(pass: &dyn Pass, what: impl Display, why: impl Display) -> String {
    format!("{}: declined {what} — {why}", pass.name())
}

/// Outcome of one pass.
#[derive(Clone, Debug)]
pub struct PassResult {
    /// The (possibly rewritten) program.
    pub program: Program,
    /// Did the pass change anything?
    pub changed: bool,
    /// Human-readable notes on what was done and why.
    pub notes: Vec<String>,
}

impl PassResult {
    /// An unchanged result.
    pub fn unchanged(p: &Program) -> PassResult {
        PassResult {
            program: p.clone(),
            changed: false,
            notes: Vec::new(),
        }
    }
}

/// An IL+XDP optimization pass.
pub trait Pass {
    /// Pass name for reports.
    fn name(&self) -> &'static str;
    /// Rewrite the program.
    fn run(&self, p: &Program) -> PassResult;
}

/// Runs a sequence of passes, collecting per-pass notes.
///
/// ```
/// use xdp_compiler::{lower_owner_computes, PassManager};
/// use xdp_ir::build as b;
/// use xdp_ir::{DimDist, ElemType, ProcGrid, Program};
///
/// // do i: A[i] = A[i] + B[i], with A and B aligned -> all communication
/// // is provably same-owner and the pipeline removes it.
/// let grid = ProcGrid::linear(4);
/// let mut s = Program::new();
/// let a = s.declare(b::array("A", ElemType::F64, vec![(1, 16)],
///     vec![DimDist::Block], grid.clone()));
/// let bb = s.declare(b::array("B", ElemType::F64, vec![(1, 16)],
///     vec![DimDist::Block], grid));
/// let ai = b::sref(a, vec![b::at(b::iv("i"))]);
/// let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
/// s.body = vec![b::do_loop("i", b::c(1), b::c(16), vec![
///     b::assign(ai.clone(), b::val(ai).add(b::val(bi))),
/// ])];
/// let naive = lower_owner_computes(&s).unwrap();
/// assert_eq!(naive.stmt_census().sends, 1);
/// let (optimized, _log) = PassManager::paper_pipeline().run(&naive);
/// assert_eq!(optimized.stmt_census().sends, 0);
/// assert_eq!(optimized.stmt_census().guards, 0);
/// ```
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty manager.
    pub fn new() -> PassManager {
        PassManager { passes: Vec::new() }
    }

    /// Append a pass.
    #[allow(clippy::should_implement_trait)] // builder chain, not arithmetic
    pub fn add(mut self, p: impl Pass + 'static) -> PassManager {
        self.passes.push(Box::new(p));
        self
    }

    /// Append an already-boxed pass (name-driven construction, e.g. the
    /// `xdpc opt --passes` list).
    pub fn add_boxed(mut self, p: Box<dyn Pass>) -> PassManager {
        self.passes.push(p);
        self
    }

    /// The standard value-communication pipeline of §2.2: elide same-owner
    /// transfers, vectorize what remains, localize loop bounds (compute
    /// rule elimination), bind communication, and drop dead accessibility
    /// checks.
    pub fn paper_pipeline() -> PassManager {
        PassManager::new()
            .add(ElideSameOwnerComm)
            .add(VectorizeMessages)
            .add(LocalizeBounds)
            .add(BindCommunication)
            .add(ElideAccessibleChecks)
    }

    /// The §4 derivation pipeline: compute-rule elimination, loop fusion
    /// with the ownership-interference check, and await sinking — the
    /// sequence that turns the naive 3-D FFT into its pipelined form.
    pub fn fft_pipeline() -> PassManager {
        PassManager::new()
            .add(LocalizeBounds)
            .add(FuseLoops)
            .add(SinkAwait)
            .add(ElideAccessibleChecks)
    }

    /// The passes, in pipeline order — for callers that run them one at a
    /// time (the fuzzer's per-pass-prefix oracle).
    pub fn into_passes(self) -> Vec<Box<dyn Pass>> {
        self.passes
    }

    /// Run all passes in order.
    pub fn run(&self, p: &Program) -> (Program, Vec<(String, PassResult)>) {
        let mut cur = p.clone();
        let mut log = Vec::new();
        for pass in &self.passes {
            let r = pass.run(&cur);
            cur = r.program.clone();
            log.push((pass.name().to_string(), r));
        }
        (cur, log)
    }

    /// Run all passes in order, instrumenting each one: wall time,
    /// statement-count delta, and a provenance log of which statements the
    /// pass consumed and produced (`xdpc lower --explain`).
    ///
    /// Provenance is a counted-multiset diff of one-line statement
    /// summaries: a statement whose summary survives the pass (even at a
    /// different position) is not reported, so the log shows genuine
    /// rewrites rather than renumbering noise.
    ///
    /// The table is rendered once per pass *boundary*: pass k's output
    /// table is pass k+1's input table, and a pass that returns its input
    /// unchanged keeps the table and records an empty diff (equal programs
    /// render equal tables) without rendering at all.
    pub fn run_traced(&self, p: &Program) -> (Program, CompileTrace) {
        let mut cur = p.clone();
        let mut trace = CompileTrace::default();
        let mut table = if self.passes.is_empty() {
            StmtTable::new()
        } else {
            xdp_ir::pretty::stmt_table(&cur)
        };
        for pass in &self.passes {
            let t = std::time::Instant::now();
            let r = pass.run(&cur);
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let nodes_before = table.len();
            let (removed, added) = if r.program == cur {
                (Vec::new(), Vec::new())
            } else {
                let after = xdp_ir::pretty::stmt_table(&r.program);
                let diff = provenance_diff(&table, &after);
                table = after;
                diff
            };
            trace.passes.push(PassTrace {
                name: pass.name().to_string(),
                wall_ms,
                changed: r.changed,
                nodes_before,
                nodes_after: table.len(),
                removed,
                added,
                notes: r.notes,
            });
            cur = r.program;
        }
        (cur, trace)
    }
}

/// A statement table: (preorder id, one-line summary) per statement.
type StmtTable = Vec<(u32, String)>;

/// Counted-multiset diff of `(id, summary)` statement tables: summaries
/// present more times before than after are *removed* (reported with their
/// input-program ids), the converse are *added* (output-program ids).
fn provenance_diff(before: &StmtTable, after: &StmtTable) -> (StmtTable, StmtTable) {
    use std::collections::HashMap;
    let mut surplus: HashMap<&str, i64> = HashMap::new();
    for (_, s) in before {
        *surplus.entry(s).or_default() += 1;
    }
    for (_, s) in after {
        *surplus.entry(s).or_default() -= 1;
    }
    let mut unmatched = surplus.clone();
    let mut removed = Vec::new();
    for (id, s) in before {
        let e = unmatched.get_mut(s.as_str()).expect("counted above");
        if *e > 0 {
            removed.push((*id, s.clone()));
            *e -= 1;
        }
    }
    let mut unmatched: HashMap<&str, i64> = surplus.iter().map(|(k, v)| (*k, -v)).collect();
    let mut added = Vec::new();
    for (id, s) in after {
        let e = unmatched.get_mut(s.as_str()).expect("counted above");
        if *e > 0 {
            added.push((*id, s.clone()));
            *e -= 1;
        }
    }
    (removed, added)
}

/// Every pass of this module, each under its own [`Pass::name`] — the one
/// place a pass is found by name (`xdpc opt --passes LIST`). The pipelines
/// of [`PassManager`] are ordered selections of these.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(ElideSameOwnerComm),
        Box::new(VectorizeMessages),
        Box::new(LocalizeBounds),
        Box::new(BindCommunication),
        Box::new(ElideAccessibleChecks),
        Box::new(FuseLoops),
        Box::new(SinkAwait),
        Box::new(MigrateOwnership::default()),
        Box::new(LowerRedistribute),
        Box::new(AutoPlace::new()),
    ]
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::new()
    }
}
