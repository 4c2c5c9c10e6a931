//! The end-to-end compile pipeline: parse → place → lower → optimize.
//!
//! Every consumer of the compiler used to assemble this sequence by hand —
//! each `xdpc` subcommand, the experiments, and now the `xdpd`
//! serving daemon all need "source text in, runnable program out". This
//! module is the one assembly: [`compile`] takes source text and a
//! [`CompileOptions`] and returns a [`Compiled`] program together with the
//! [`CompileTrace`] provenance of every pass that ran, so callers (and the
//! serve layer's compile cache) can prove what work was — or, on a cache
//! hit, was not — done.
//!
//! ```
//! use xdp_compiler::{compile, CompileOptions};
//!
//! let src = "real A[1:8] distribute (BLOCK) onto 4\n\
//!            do i = 1, 8\n  iown(A[i]) : { A[i] = A[i] + 1.0 }\nenddo\n";
//! let c = compile(src, &CompileOptions::default()).unwrap();
//! assert_eq!(c.nprocs, 4);
//! assert!(!c.lowered);
//! let o = compile(src, &CompileOptions::default().optimized()).unwrap();
//! assert_eq!(o.trace.passes.len(), 5); // the paper pipeline ran
//! ```

use crate::frontend::{lower_owner_computes, FrontendError};
use crate::passes::{AutoPlace, PassManager};
use std::sync::Arc;
use xdp_ir::Program;
use xdp_trace::CompileTrace;

/// How source that parses as a *sequential* program (no XDP transfer or
/// guard constructs) is treated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SeqMode {
    /// Treat the source as IL+XDP and execute it as written. This is what
    /// `xdpc run` has always done; plain compute loops are valid IL+XDP.
    AsIs,
    /// Require a sequential program and lower it owner-computes (§2.2);
    /// XDP constructs in the source are an error. `xdpc lower`.
    Lower,
    /// Lower when the whole program is sequential, otherwise compile it
    /// as IL+XDP. The serving layer uses this so a mixed corpus
    /// (`seq_sum.xdp` next to `fft3d.xdp`) is uniformly runnable.
    Auto,
}

/// Which execution backend runs the compiled program.
///
/// The choice does not change the produced IR — both backends execute the
/// same [`Program`] — but it selects how executors are built downstream
/// (tree-walking `Interp` vs the `xdp-vm` compiled processor), so it
/// participates in option hashing and the serve layer's cache key: a
/// cached VM execution must never satisfy an interpreter request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The reference tree-walking interpreter (`xdp_core::Interp`).
    #[default]
    Interp,
    /// The compiled bytecode processor (`xdp_vm::VmProc`).
    Vm,
}

impl Backend {
    /// Stable lowercase name (CLI values, cache keys, metrics labels).
    pub fn as_str(&self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::Vm => "vm",
        }
    }

    /// Parse a CLI value as produced by [`Backend::as_str`].
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "interp" => Some(Backend::Interp),
            "vm" => Some(Backend::Vm),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Options for [`compile`]. Every field participates in the serve layer's
/// cache key: two option sets that could compile differently must hash
/// differently.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Machine size override; `None` takes the largest declared grid.
    pub procs: Option<usize>,
    /// Run the paper's §2.2 optimization pipeline.
    pub optimize: bool,
    /// Run the automatic-placement search ([`AutoPlace`]) on the source,
    /// before lowering and the optimization pipeline.
    pub place: bool,
    /// Sequential-source handling.
    pub seq: SeqMode,
    /// Execution backend the compiled program is destined for.
    pub backend: Backend,
    /// Per-processor live-buffer budget (bytes) for redistribution
    /// planning. Constrains the placement search at compile time (an
    /// over-budget transition is never emitted) and rides on
    /// [`Compiled`] so executors plan runtime redistributions under the
    /// same bound. `None` keeps planning time-only.
    pub mem_budget: Option<u64>,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            procs: None,
            optimize: false,
            place: false,
            seq: SeqMode::AsIs,
            backend: Backend::default(),
            mem_budget: None,
        }
    }
}

impl CompileOptions {
    /// Builder shorthand: enable the paper pipeline.
    pub fn optimized(mut self) -> CompileOptions {
        self.optimize = true;
        self
    }

    /// Builder shorthand: enable automatic placement.
    pub fn placed(mut self) -> CompileOptions {
        self.place = true;
        self
    }

    /// Builder shorthand: set the machine-size override.
    pub fn with_procs(mut self, n: usize) -> CompileOptions {
        self.procs = Some(n);
        self
    }

    /// Builder shorthand: set the sequential-source mode.
    pub fn with_seq(mut self, seq: SeqMode) -> CompileOptions {
        self.seq = seq;
        self
    }

    /// Builder shorthand: set the execution backend.
    pub fn with_backend(mut self, backend: Backend) -> CompileOptions {
        self.backend = backend;
        self
    }

    /// Builder shorthand: set the redistribution memory budget (bytes per
    /// processor).
    pub fn with_mem_budget(mut self, budget: u64) -> CompileOptions {
        self.mem_budget = Some(budget);
        self
    }
}

/// Why a compile failed, by stage.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// The source did not parse.
    Parse(String),
    /// `SeqMode::Lower` was requested but the source uses XDP constructs.
    NotSequential(String),
    /// The owner-computes frontend rejected the sequential program.
    Frontend(String),
    /// The (possibly lowered) program failed IR validation.
    Invalid(Vec<String>),
    /// The `procs` override asked for a machine with no processors.
    ZeroProcs,
    /// The machine has more processors than the grid an array is
    /// distributed onto, so some processor would own no part of it.
    MachineTooLarge {
        nprocs: usize,
        var: String,
        onto: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse: {e}"),
            CompileError::NotSequential(e) => write!(f, "{e}"),
            CompileError::Frontend(e) => write!(f, "frontend: {e}"),
            CompileError::Invalid(diags) => {
                write!(f, "invalid program: {}", diags.join("; "))
            }
            CompileError::ZeroProcs => write!(f, "machine size must be at least 1"),
            CompileError::MachineTooLarge { nprocs, var, onto } => write!(
                f,
                "a machine of {nprocs} processors is larger than {var}'s grid (onto {onto})"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// A fully compiled, ready-to-run program.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The final program, after lowering and every requested pass.
    pub program: Arc<Program>,
    /// Machine size: the `procs` override or the largest declared grid.
    pub nprocs: usize,
    /// Was the source lowered from sequential form?
    pub lowered: bool,
    /// Backend the compile was requested for (copied from the options).
    pub backend: Backend,
    /// Redistribution memory budget the compile was requested under
    /// (copied from the options); executors apply it to runtime planning.
    pub mem_budget: Option<u64>,
    /// Per-pass provenance of everything that ran (wall time, node
    /// deltas, statement rewrites). Empty when no passes were requested —
    /// which is exactly what a serve-cache hit looks like.
    pub trace: CompileTrace,
}

/// Compile source text end to end: parse, then [`compile_program`].
pub fn compile(source: &str, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    let program =
        xdp_lang::parse_program(source).map_err(|e| CompileError::Parse(e.to_string()))?;
    compile_program(&program, opts)
}

/// Compile an already-parsed program: place (when asked), lower (per
/// [`SeqMode`]), validate, then optimize (when asked). Where each array
/// lives is decided first, on the source, so that the communication the
/// frontend and the paper pipeline write is written for it; the search
/// keeps its hands off what the program text pins (DESIGN §2.10). `xdpc`
/// parses centrally (one diagnostic for unreadable files, one for parse
/// errors) and enters here.
pub fn compile_program(program: &Program, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    if opts.procs == Some(0) {
        return Err(CompileError::ZeroProcs);
    }
    let (source, mut trace) = if opts.place {
        let mut ap = AutoPlace::new();
        ap.options.model.mem_budget = opts.mem_budget;
        PassManager::new().add(ap).run_traced(program)
    } else {
        (program.clone(), CompileTrace::default())
    };
    use FrontendError::*;
    let (program, lowered) = match opts.seq {
        SeqMode::AsIs => (source, false),
        SeqMode::Lower | SeqMode::Auto => match lower_owner_computes(&source) {
            Ok(lowered) => (lowered, true),
            // Not sequential: IL+XDP, compiled as written. Or sequential
            // statement by statement, but a reference's shape hangs on
            // processor-local values (`mylb`/`myub`/`mypid` bounds):
            // communication-free IL+XDP already written for the SPMD
            // machine. Run it as written.
            Err(
                NotSequential { .. }
                | NonUnitStep { .. }
                | NonStaticShape { .. }
                | LoopVariantShape { .. },
            ) if opts.seq == SeqMode::Auto => (source, false),
            Err(e @ (NotSequential { .. } | NonUnitStep { .. })) => {
                return Err(CompileError::NotSequential(e.to_string()))
            }
            Err(e) => return Err(CompileError::Frontend(e.to_string())),
        },
    };
    let diags = xdp_ir::validate(&program);
    if !diags.is_empty() {
        return Err(CompileError::Invalid(diags));
    }
    let mgr = if opts.optimize {
        PassManager::paper_pipeline()
    } else {
        PassManager::new()
    };
    let (program, optimized) = mgr.run_traced(&program);
    trace.passes.extend(optimized.passes);
    let nprocs = opts.procs.or(program.machine_size()).unwrap_or(1);
    // Each processor builds its part of every distributed array.
    let grids = program
        .decls
        .iter()
        .filter_map(|d| Some((d, d.dist.as_ref()?.nprocs())));
    if let Some((d, onto)) = grids.into_iter().find(|&(_, onto)| onto < nprocs) {
        let var = d.name.clone();
        return Err(CompileError::MachineTooLarge { nprocs, var, onto });
    }
    Ok(Compiled {
        nprocs,
        program: Arc::new(program),
        lowered,
        backend: opts.backend,
        mem_budget: opts.mem_budget,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const XDP_SRC: &str = "real A[1:16] distribute (BLOCK) onto 4\n\
        real B[1:16] distribute (CYCLIC) onto 4\n\
        real T[0:3] distribute (BLOCK) onto 4 segment (1)\n\
        do i = 1, 16\n\
          iown(B[i]) : { B[i] -> }\n\
          iown(A[i]) : {\n\
            T[mypid] <- B[i]\n\
            await(T[mypid]) : { A[i] = A[i] + T[mypid] }\n\
          }\n\
        enddo\n";

    const SEQ_SRC: &str = "real A[1:16] distribute (BLOCK) onto 4\n\
        real B[1:16] distribute (CYCLIC) onto 4\n\
        do i = 1, 16\n  A[i] = A[i] + B[i]\nenddo\n";

    #[test]
    fn compile_xdp_source_as_is() {
        let c = compile(XDP_SRC, &CompileOptions::default()).unwrap();
        assert_eq!(c.nprocs, 4);
        assert!(!c.lowered);
        assert!(c.trace.passes.is_empty());
    }

    #[test]
    fn optimize_runs_the_paper_pipeline_with_provenance() {
        let c = compile(XDP_SRC, &CompileOptions::default().optimized()).unwrap();
        assert_eq!(c.trace.passes.len(), 5);
        assert!(c.trace.passes.iter().any(|p| p.changed));
    }

    #[test]
    fn lower_mode_requires_sequential_source() {
        let c = compile(SEQ_SRC, &CompileOptions::default().with_seq(SeqMode::Lower)).unwrap();
        assert!(c.lowered);
        let e = compile(XDP_SRC, &CompileOptions::default().with_seq(SeqMode::Lower)).unwrap_err();
        assert!(matches!(e, CompileError::NotSequential(_)), "{e}");
    }

    #[test]
    fn auto_mode_lowers_seq_and_keeps_xdp() {
        let auto = CompileOptions::default().with_seq(SeqMode::Auto);
        assert!(compile(SEQ_SRC, &auto).unwrap().lowered);
        assert!(!compile(XDP_SRC, &auto).unwrap().lowered);
    }

    /// Communication-free IL+XDP that updates its own block of rows,
    /// `mylb:myub`, in one vector statement: no XDP *statement*, so it
    /// parses as sequential — but the operand shapes are processor-local,
    /// so it cannot be lowered owner-computes and must run as written.
    const LOCAL_SWEEP_SRC: &str = "real U[1:8,1:8] distribute (BLOCK,*) onto 4\n\
        real V[1:8,1:8] distribute (BLOCK,*) onto 4\n\
        V[mylb(U[*,*], 1):myub(U[*,*], 1),2:7] = \
          (U[mylb(U[*,*], 1):myub(U[*,*], 1),1:6] + U[mylb(U[*,*], 1):myub(U[*,*], 1),3:8])\n";

    #[test]
    fn auto_mode_runs_processor_local_source_as_written() {
        let auto = CompileOptions::default().with_seq(SeqMode::Auto);
        let c = compile(LOCAL_SWEEP_SRC, &auto).unwrap();
        assert!(!c.lowered);
        let as_is = compile(LOCAL_SWEEP_SRC, &CompileOptions::default()).unwrap();
        assert_eq!(c.program, as_is.program);
        // Asking for a lowering outright is still refused, by name.
        let e = compile(
            LOCAL_SWEEP_SRC,
            &CompileOptions::default().with_seq(SeqMode::Lower),
        )
        .unwrap_err();
        assert!(matches!(e, CompileError::Frontend(_)), "{e}");
    }

    #[test]
    fn placement_is_chosen_before_communication_is_written() {
        let placed = CompileOptions::default()
            .with_seq(SeqMode::Auto)
            .optimized()
            .placed();
        // A sequential source is placed, then lowered: B is aligned with A
        // before the frontend writes a transfer, so none survives.
        let c = compile(SEQ_SRC, &placed).unwrap();
        assert!(c.lowered);
        assert_eq!(c.trace.passes[0].name, "auto-place");
        assert_eq!(c.program.stmt_census().sends, 0, "{:?}", c.trace.passes);
        // IL+XDP is placed as written, and its text sends B.
        let c = compile(XDP_SRC, &placed).unwrap();
        let notes = &c.trace.passes[0].notes;
        let pinned = "B is named by a send or receive in statement 1 (`do i = 1, 16`)";
        assert!(notes.iter().any(|n| n.starts_with(pinned)), "{notes:?}");
    }

    #[test]
    fn procs_override_wins() {
        let c = compile(XDP_SRC, &CompileOptions::default().with_procs(2)).unwrap();
        assert_eq!(c.nprocs, 2);
        let e = compile(XDP_SRC, &CompileOptions::default().with_procs(0)).unwrap_err();
        assert_eq!(e.to_string(), "machine size must be at least 1");
        let e = compile(XDP_SRC, &CompileOptions::default().with_procs(8)).unwrap_err();
        let grid = "a machine of 8 processors is larger than A's grid (onto 4)";
        assert_eq!(e.to_string(), grid);
    }

    #[test]
    fn parse_errors_are_reported() {
        let e = compile(
            "real A[1:4] distribute (WAT) onto 2\n",
            &CompileOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(e, CompileError::Parse(_)), "{e}");
        assert!(e.to_string().contains("unknown distribution"), "{e}");
    }
}
