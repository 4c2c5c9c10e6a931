//! `xdpc` — the XDP command-line driver.
//!
//! Run `xdpc` with no arguments for usage: the help text is generated from
//! the same command table that drives dispatch (see [`COMMANDS`]), so it
//! cannot drift from the implemented subcommands.
//!
//! ```text
//! run/trace options:
//!   --procs N        machine size (default: from the declarations)
//!   --alpha X        per-message latency            (default 100)
//!   --beta X         per-byte time                  (default 0.1)
//!   --timeline       print a Gantt chart of the execution (run)
//!   --gather NAME    print the named array's final contents and owners (run)
//!   --optimize       run the paper pipeline before executing
//!   --backend B      execution backend: interp (tree-walking, default)
//!                    or vm (compiled bytecode; same traces and results)
//!   --unchecked      disable the checked runtime (run)
//!   --mem-budget B   per-processor live-buffer budget (bytes; k/m/g
//!                    suffixes) for redistribution planning (plan, place,
//!                    run, fuzz); plan exits nonzero when no decomposition
//!                    fits and names the smallest feasible budget
//!   --faults SPEC    inject transport faults and deliver through ack/retry:
//!                    comma-separated drop=P dup=P reorder=P delayp=P delay=T
//!                    seed=N rto=T backoff=X retries=N kill=SRC:SEQ
//!   --out PATH       Chrome trace-event JSON output (trace; default trace.json)
//!   --jsonl PATH     also write the compact JSONL trace (trace)
//!   --top N          rows in the critical-path tables (trace; default 10)
//!   --explain        print per-pass wall time, node deltas and statement
//!                    provenance (lower, opt, and trace/run with --optimize)
//!
//! place options (plus --alpha/--beta/--topo as above):
//!   --no-cyclic      drop CYCLIC candidates from the search
//!   --max-dims N     most array dimensions distributed at once (default 2)
//!   --emit           print the rewritten program (valid xdpc input)
//!
//! fuzz options (no input file; programs are generated):
//!   --count N        programs to check                     (default 200)
//!   --seed N         first seed; program k uses seed+k     (default 1)
//!   --procs N        processors per generated program      (default 4)
//!   --faults SPEC    fault plan for the chaos oracle (syntax as for run);
//!                    default: a seed-derived lossy plan
//!   --repro PATH     where to write the minimized repro    (default fuzz-repro.xdp)
//!   --sim-only       skip the wall-clock (async) executor and chaos oracles
//!
//! On a divergence, fuzz shrinks the program, writes the `.xdp` repro,
//! and exits 1; a malformed --faults spec exits 2.
//!
//! pass names: elide-same-owner-comm, vectorize-messages, localize-bounds,
//! bind-communication, elide-accessible-checks, fuse-loops, sink-await,
//! migrate-ownership, auto-place
//! ```
//!
//! Exclusive arrays are initialized to their flattened 1-based element
//! index (`A[i,j] = ordinal`), which makes small experiments reproducible
//! without an input format.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

/// `println!` that ignores broken pipes (`xdpc run ... | head`).
macro_rules! out {
    ($($t:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($t)*);
    }};
}

/// `print!` that ignores broken pipes.
macro_rules! outp {
    ($($t:tt)*) => {{
        let _ = write!(std::io::stdout(), $($t)*);
    }};
}
use xdp::prelude::*;
use xdp_bench::Table;
use xdp_compiler::cli::{flag, num, opt_val, parse_backend, parse_mem_budget};
use xdp_compiler::passes::{
    AutoPlace, BindCommunication, ElideAccessibleChecks, ElideSameOwnerComm, FuseLoops,
    LocalizeBounds, MigrateOwnership, SinkAwait, VectorizeMessages,
};
use xdp_compiler::{compile_program, Backend, CompileError, CompileOptions, Compiled, SeqMode};
use xdp_core::Processor;
use xdp_ir::pretty;

/// One subcommand: name, one-line summary (for usage), and handler. The
/// dispatch loop and the usage text both read this table, so adding a
/// subcommand here is the *only* step — help cannot drift.
struct Command {
    name: &'static str,
    summary: &'static str,
    run: Runner,
}

/// Most subcommands operate on a parsed `.xdp` file; a few (like `fuzz`)
/// generate their own programs and take only options.
enum Runner {
    /// `xdpc <cmd> <file.xdp> [options]`.
    File(fn(&Program, &[String]) -> ExitCode),
    /// `xdpc <cmd> [options]`.
    Bare(fn(&[String]) -> ExitCode),
}

const COMMANDS: &[Command] = &[
    Command {
        name: "check",
        summary: "parse, validate, and pretty-print",
        run: Runner::File(cmd_check),
    },
    Command {
        name: "lower",
        summary: "sequential source -> naive owner-computes IL+XDP [--explain]",
        run: Runner::File(cmd_lower),
    },
    Command {
        name: "opt",
        summary: "optimize and print [--passes LIST] [--explain]",
        run: Runner::File(cmd_opt),
    },
    Command {
        name: "run",
        summary: "execute on the simulated machine [--procs N] [--timeline] ...",
        run: Runner::File(cmd_run),
    },
    Command {
        name: "trace",
        summary: "execute with full tracing: Chrome JSON + critical path [--out PATH]",
        run: Runner::File(cmd_trace),
    },
    Command {
        name: "tune",
        summary: "pick the fastest segment shape --array NAME --segments 1,2,4x1,...",
        run: Runner::File(cmd_tune),
    },
    Command {
        name: "plan",
        summary: "show schedule + predicted cost of every `redistribute`",
        run: Runner::File(cmd_plan),
    },
    Command {
        name: "place",
        summary: "search per-phase distributions with the cost model [--emit]",
        run: Runner::File(cmd_place),
    },
    Command {
        name: "fuzz",
        summary: "differentially test executors and passes on generated programs",
        run: Runner::Bare(cmd_fuzz),
    },
];

/// Usage text generated from [`COMMANDS`].
fn usage_text() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let mut s = format!(
        "usage: xdpc <{}> <file.xdp> [options]\n       xdpc fuzz [options]\n",
        names.join("|")
    );
    for c in COMMANDS {
        s.push_str(&format!("  {:<7} {}\n", c.name, c.summary));
    }
    s.push_str("(see `src/bin/xdpc.rs` header for per-command options)");
    s
}

fn usage() -> ExitCode {
    eprintln!("{}", usage_text());
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd.as_str()) else {
        return usage();
    };
    match command.run {
        Runner::Bare(f) => f(&args[1..]),
        Runner::File(f) => {
            let Some(file) = args.get(1) else {
                return usage();
            };
            // One diagnostic and one exit code (2, a usage-class error)
            // for every subcommand pointed at a missing or unreadable
            // file — asserted for all of them in `tests/cli.rs`.
            let src = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("xdpc: error: cannot read {file}: {e}");
                    return ExitCode::from(2);
                }
            };
            let program = match xdp_lang::parse_program(&src) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("xdpc: {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            f(&program, &args[2..])
        }
    }
}

fn cmd_check(program: &Program, _rest: &[String]) -> ExitCode {
    let diags = xdp_ir::validate(program);
    outp!("{}", pretty::program(program));
    for d in &diags {
        eprintln!("xdpc: warning: {d}");
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_lower(program: &Program, rest: &[String]) -> ExitCode {
    let opts = CompileOptions::default().with_seq(SeqMode::Lower);
    let naive = match compile_program(program, &opts) {
        Ok(c) => c.program,
        Err(e) => {
            eprintln!("xdpc: {e}");
            return ExitCode::FAILURE;
        }
    };
    outp!("{}", pretty::program(&naive));
    if flag(rest, "--explain") {
        // Show what the standard pipeline would do to this program:
        // per-pass wall time, node deltas, statement provenance.
        let (_, ct) = PassManager::paper_pipeline().run_traced(&naive);
        eprintln!("\n[paper pipeline on the lowered program]");
        eprint!("{}", ct.render());
    }
    ExitCode::SUCCESS
}

fn pass_by_name(name: &str) -> Option<Box<dyn Pass>> {
    Some(match name {
        "elide-same-owner-comm" => Box::new(ElideSameOwnerComm),
        "vectorize-messages" => Box::new(VectorizeMessages),
        "localize-bounds" => Box::new(LocalizeBounds),
        "bind-communication" => Box::new(BindCommunication),
        "elide-accessible-checks" => Box::new(ElideAccessibleChecks),
        "fuse-loops" => Box::new(FuseLoops),
        "sink-await" => Box::new(SinkAwait),
        "migrate-ownership" => Box::new(MigrateOwnership::default()),
        "auto-place" => Box::new(AutoPlace::new()),
        _ => return None,
    })
}

fn cmd_opt(program: &Program, rest: &[String]) -> ExitCode {
    let passes: Vec<String> = match rest.iter().position(|a| a == "--passes") {
        Some(i) => match rest.get(i + 1) {
            Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
            None => {
                eprintln!("xdpc: --passes needs a comma-separated list");
                return ExitCode::from(2);
            }
        },
        None => vec![
            "elide-same-owner-comm".into(),
            "vectorize-messages".into(),
            "localize-bounds".into(),
            "bind-communication".into(),
            "elide-accessible-checks".into(),
        ],
    };
    let mut mgr = PassManager::new();
    for name in &passes {
        let Some(pass) = pass_by_name(name) else {
            eprintln!("xdpc: unknown pass `{name}`");
            return ExitCode::from(2);
        };
        mgr = mgr.add_boxed(pass);
    }
    let (cur, ct) = mgr.run_traced(program);
    if flag(rest, "--explain") {
        eprint!("{}", ct.render());
    } else {
        for p in &ct.passes {
            eprintln!(
                "pass {}: {}",
                p.name,
                if p.changed { "changed" } else { "no change" }
            );
            for note in &p.notes {
                eprintln!("  - {note}");
            }
        }
    }
    outp!("{}", pretty::program(&cur));
    ExitCode::SUCCESS
}

fn cmd_tune(program: &Program, rest: &[String]) -> ExitCode {
    let Some(array) = opt_val(rest, "--array") else {
        eprintln!("xdpc: tune needs --array NAME");
        return ExitCode::from(2);
    };
    let Some(pos) = program.decls.iter().position(|d| d.name == array) else {
        eprintln!("xdpc: no array named `{array}`");
        return ExitCode::FAILURE;
    };
    let rank = program.decls[pos].rank();
    let shapes: Vec<Vec<i64>> = match opt_val(rest, "--segments") {
        Some(list) => {
            let mut out = Vec::new();
            for spec in list.split(',') {
                let dims: Option<Vec<i64>> =
                    spec.split('x').map(|x| x.trim().parse().ok()).collect();
                match dims {
                    Some(d) if d.len() == rank && d.iter().all(|&x| x >= 1) => out.push(d),
                    _ => {
                        eprintln!(
                            "xdpc: bad segment spec `{spec}` (rank-{rank} array; use e.g. 4 or 4x1)"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            out
        }
        None => {
            eprintln!("xdpc: tune needs --segments LIST");
            return ExitCode::from(2);
        }
    };
    let nprocs = program
        .decls
        .iter()
        .filter_map(|d| d.dist.as_ref().map(|x| x.nprocs()))
        .max()
        .unwrap_or(1);
    let decls = program.decls.clone();
    let result = xdp::tuning::tune(
        &shapes,
        xdp_apps::app_kernels(),
        &SimConfig::new(nprocs),
        |shape| {
            let mut p = program.clone();
            p.decls[pos].segment_shape = Some(shape.clone());
            let decls = decls.clone();
            (
                p,
                Box::new(move |exec: &mut SimExec| {
                    for (i, d) in decls.iter().enumerate() {
                        if d.is_exclusive() {
                            let full = Section::new(d.bounds.clone());
                            exec.init_exclusive(VarId(i as u32), move |idx| {
                                Value::F64((full.ordinal_of(idx).unwrap_or(0) + 1) as f64)
                            });
                        }
                    }
                }),
            )
        },
    );
    match result {
        Ok(r) => {
            out!("{:>12}  {:>12}  {:>9}", "segments", "time", "messages");
            for c in &r.all {
                let label: Vec<String> = c.param.iter().map(|x| x.to_string()).collect();
                out!(
                    "{:>12}  {:>12.1}  {:>9}{}",
                    label.join("x"),
                    c.virtual_time,
                    c.messages,
                    if c.param == r.best.param {
                        "   <- best"
                    } else {
                        ""
                    }
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xdpc: tuning failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Cost-model overrides shared by `plan`, `place`, `run`, and `trace`.
fn cost_flags(rest: &[String]) -> Result<CostModel, ExitCode> {
    let mut cost = CostModel::default_1993();
    cost.alpha = num("xdpc", rest, "--alpha", cost.alpha)?;
    cost.beta = num("xdpc", rest, "--beta", cost.beta)?;
    Ok(cost)
}

/// `--procs N`, when given.
fn procs_override(rest: &[String]) -> Result<Option<usize>, ExitCode> {
    flag(rest, "--procs")
        .then(|| num("xdpc", rest, "--procs", 0))
        .transpose()
}

/// `--topo uniform|linear|RxC` shared by `plan` and `place`: parsed whole,
/// then checked against the machine it is to connect.
fn parse_topo(rest: &[String], nprocs: usize) -> Result<Topology, ExitCode> {
    let spec = opt_val(rest, "--topo").unwrap_or("uniform");
    let checked = spec.parse::<Topology>().and_then(|t| {
        t.validate(nprocs).map_err(|e| e.to_string())?;
        Ok(t)
    });
    checked.map_err(|e| {
        eprintln!("xdpc: bad --topo: {e}");
        ExitCode::from(2)
    })
}

/// Show the planner's decision for every `redistribute` in the program:
/// the candidate strategies with predicted costs (one shared-format table
/// for all statements), and the chosen communication schedule. Statements
/// are examined in program order (each one changes the source
/// distribution of the next).
fn cmd_plan(program: &Program, rest: &[String]) -> ExitCode {
    use xdp_bench::table::j;
    let compiled = match compiled_for(program, rest, SeqMode::AsIs) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let program = compiled.program.as_ref();
    let mut cost = match cost_flags(rest) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let budget = match parse_mem_budget("xdpc", rest) {
        Ok(b) => b,
        Err(code) => return code,
    };
    cost.mem_budget = budget;
    let topo = match parse_topo(rest, compiled.nprocs) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let mut cur: std::collections::HashMap<VarId, Distribution> = std::collections::HashMap::new();
    let mut t = Table::new(
        "redistribution plans",
        &[
            "array",
            "from",
            "to",
            "elems",
            "strategy",
            "predicted",
            "peak_B",
            "chosen",
        ],
    );
    let mut schedules = String::new();
    let mut found = 0usize;
    let mut failed = false;
    program.visit(&mut |s| {
        let Stmt::Redistribute { var, dist } = s else {
            return;
        };
        found += 1;
        let decl = program.decl(*var);
        let Some(src) = cur.get(var).or(decl.dist.as_ref()).cloned() else {
            eprintln!("xdpc: `{}` is not distributed", decl.name);
            failed = true;
            return;
        };
        cur.insert(*var, dist.clone());
        // Unrestricted plan for the strategy comparison; the executed
        // statement (`xdpc run`) restricts messages to single strided
        // sections, so print that schedule and flag any divergence.
        let mut planned = |single: bool| {
            xdp::collectives::try_plan(
                *var,
                &decl.bounds,
                decl.elem.size_bytes(),
                &src,
                dist,
                &cost,
                &topo,
                single,
            )
            .map_err(|e| {
                eprintln!("xdpc: {}: {e}", decl.name);
                failed = true;
            })
            .ok()
        };
        let Some(free) = planned(false) else {
            return;
        };
        let Some(pl) = planned(true) else {
            return;
        };
        let peak_of = |st: &xdp::collectives::Strategy| {
            free.frontier
                .iter()
                .find(|f| f.strategy == *st)
                .map(|f| f.peak_bytes.to_string())
                .unwrap_or_else(|| "-".into())
        };
        let mut add = |strategy: &str, predicted: f64, peak: &str, chosen: &str| {
            t.row(&[
                j::s(&decl.name),
                j::s(&src.to_string()),
                j::s(&dist.to_string()),
                j::i(free.moved_elems),
                j::s(strategy),
                j::f(predicted),
                j::s(peak),
                j::s(chosen),
            ]);
        };
        add(
            &free.strategy.to_string(),
            free.predicted,
            &free.peak_bytes.to_string(),
            "<-",
        );
        for (st, c) in &free.alternatives {
            if *st == free.strategy {
                continue;
            }
            add(&st.to_string(), *c, &peak_of(st), "");
        }
        schedules.push_str(&format!(
            "frontier {} (time/memory, non-dominated):\n",
            decl.name
        ));
        for f in &free.frontier {
            schedules.push_str(&format!(
                "  {} predicted {:.1} peak {} B{}\n",
                f.strategy,
                f.predicted,
                f.peak_bytes,
                if f.chosen { " <-" } else { "" }
            ));
        }
        if free.strategy != pl.strategy {
            schedules.push_str(&format!(
                "note: redistribute {} executes single-section messages, runs {} (predicted {:.1})\n",
                decl.name, pl.strategy, pl.predicted
            ));
        }
        schedules.push_str(&format!("{}", pl.schedule));
    });
    if found == 0 {
        out!("no redistribute statements");
        return ExitCode::SUCCESS;
    }
    outp!("{}", t.render());
    if xdp_bench::table::json_enabled() {
        for line in t.json_lines() {
            out!("{line}");
        }
    }
    outp!("{schedules}");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `xdpc place`: run the `xdp-place` search on the program and report the
/// chosen per-phase distributions, predicted costs, and — by executing
/// both the input and the rewritten program on the simulated machine —
/// the realized virtual times. Exits nonzero when no placement is legal
/// (no distributed exclusive array, or no compute). Programs that migrate
/// ownership by hand are analyzed but not rewritten: the placement is
/// advisory and only the input program is executed.
fn cmd_place(program: &Program, rest: &[String]) -> ExitCode {
    use xdp_bench::table::j;
    let compiled = match compiled_for(program, rest, SeqMode::AsIs) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let program = compiled.program.as_ref();
    let topo = match parse_topo(rest, compiled.nprocs) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let (mut model, procs) = match (cost_flags(rest), procs_override(rest)) {
        (Ok(m), Ok(p)) => (m, p),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    model.mem_budget = match parse_mem_budget("xdpc", rest) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let mut opts = PlaceOptions {
        model,
        topo,
        ..PlaceOptions::default()
    };
    if flag(rest, "--no-cyclic") {
        opts.allow_cyclic = false;
    }
    opts.max_dist_dims = match num("xdpc", rest, "--max-dims", opts.max_dist_dims) {
        Ok(n) => n,
        Err(code) => return code,
    };
    let placed = match xdp::place::optimize(program, &opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("xdpc: place: {e}");
            return ExitCode::FAILURE;
        }
    };
    let pm = &placed.placement;
    out!(
        "anchor {} group [{}] on {} procs: {} candidates scored",
        pm.anchor_name,
        pm.group_names.join(","),
        pm.nprocs,
        pm.candidates_considered
    );
    let mut t = Table::new(
        "placement choices",
        &[
            "phase", "label", "dist", "compute", "shift", "move", "total",
        ],
    );
    for c in &pm.choices {
        t.row(&[
            j::u(c.phase as u64),
            j::s(&c.label),
            j::s(&c.dist.to_string()),
            j::f(c.compute),
            j::f(c.shift),
            j::f(c.transition),
            j::f(c.total()),
        ]);
    }
    outp!("{}", t.render());
    if xdp_bench::table::json_enabled() {
        for line in t.json_lines() {
            out!("{line}");
        }
    }

    // Predicted vs. simulated: execute on the simulated machine with the
    // same cost model the search scored against.
    let simulate = |p: &Program| -> Result<f64, String> {
        let nprocs = procs
            .or_else(|| xdp_compiler::pipeline::machine_size_of(p))
            .unwrap_or(1);
        let cfg = SimConfig::new(nprocs).with_cost(opts.model);
        let decls = p.decls.clone();
        let mut exec = SimExec::new(Arc::new(p.clone()), xdp_apps::app_kernels(), cfg);
        init_default(&mut exec, &decls);
        exec.run()
            .map(|r| r.virtual_time)
            .map_err(|e| e.to_string())
    };
    match simulate(program) {
        Ok(vt) => out!("simulated input program: {vt:.1}"),
        Err(e) => {
            eprintln!("xdpc: input program failed to run: {e}");
            return ExitCode::FAILURE;
        }
    }
    if placed.rewritten {
        match simulate(&placed.program) {
            Ok(vt) => out!(
                "simulated placed program: {vt:.1} (predicted {:.1})",
                pm.total_predicted
            ),
            Err(e) => {
                eprintln!("xdpc: placed program failed to run: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        out!(
            "program migrates ownership by hand; placement is advisory (predicted {:.1})",
            pm.total_predicted
        );
    }
    if flag(rest, "--emit") {
        outp!("{}", pretty::program(&placed.program));
    }
    ExitCode::SUCCESS
}

/// `--faults SPEC` shared by `run`, `trace` and `fuzz`. A malformed spec is a
/// usage error (exit 2), not a runtime failure.
fn parse_faults(rest: &[String]) -> Result<xdp_fault::FaultPlan, ExitCode> {
    match opt_val(rest, "--faults") {
        None => Ok(xdp_fault::FaultPlan::none()),
        Some(spec) => xdp_fault::FaultPlan::parse(spec).map_err(|e| {
            eprintln!("xdpc: bad --faults spec: {e}");
            ExitCode::from(2)
        }),
    }
}

/// The shared parse-free compile path: validate, honour `--procs` and
/// `--optimize`, and print pass provenance (`--explain` for the full
/// instrumentation, otherwise a one-line change log). All file-taking
/// subcommands funnel through `xdp_compiler::compile_program` here — the
/// same pipeline the `xdpd` daemon's compile cache keys.
fn compiled_for(program: &Program, rest: &[String], seq: SeqMode) -> Result<Compiled, ExitCode> {
    let backend = parse_backend("xdpc", rest)?;
    let opts = CompileOptions {
        procs: procs_override(rest)?,
        optimize: flag(rest, "--optimize"),
        place: false,
        seq,
        backend,
        mem_budget: parse_mem_budget("xdpc", rest)?,
    };
    let compiled = match compile_program(program, &opts) {
        Ok(c) => c,
        Err(CompileError::Invalid(diags)) => {
            for d in diags {
                eprintln!("xdpc: error: {d}");
            }
            return Err(ExitCode::FAILURE);
        }
        Err(e) => {
            eprintln!("xdpc: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    if !compiled.trace.passes.is_empty() {
        if flag(rest, "--explain") {
            eprint!("{}", compiled.trace.render());
        } else {
            for p in compiled.trace.passes.iter().filter(|p| p.changed) {
                eprintln!("pass {}: changed", p.name);
            }
        }
    }
    Ok(compiled)
}

/// Deterministic default initialization: flattened 1-based element ordinal.
fn init_default<P: Processor>(exec: &mut SimExec<P>, decls: &[Decl]) {
    for (i, d) in decls.iter().enumerate() {
        if d.is_exclusive() {
            let full = Section::new(d.bounds.clone());
            exec.init_exclusive(VarId(i as u32), move |idx| {
                Value::F64((full.ordinal_of(idx).unwrap_or(0) + 1) as f64)
            });
        }
    }
}

fn cmd_run(program: &Program, rest: &[String]) -> ExitCode {
    let compiled = match compiled_for(program, rest, SeqMode::AsIs) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let faults = match parse_faults(rest) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let nprocs = compiled.nprocs;
    let mut cost = match cost_flags(rest) {
        Ok(c) => c,
        Err(code) => return code,
    };
    cost.mem_budget = compiled.mem_budget;
    let mut cfg = SimConfig::new(nprocs).with_cost(cost).with_faults(faults);
    if flag(rest, "--timeline") {
        cfg = cfg.with_timeline();
    }
    if flag(rest, "--unchecked") {
        cfg = cfg.unchecked();
    }

    let decls = compiled.program.decls.clone();
    // Both backends run on the same simulated machine and produce the
    // same report; only the processor type differs.
    match compiled.backend {
        Backend::Interp => {
            let exec = SimExec::new(compiled.program, xdp_apps::app_kernels(), cfg);
            finish_run(exec, &decls, rest, nprocs)
        }
        Backend::Vm => {
            let exec = xdp_vm::VmExec::sim(compiled.program, xdp_apps::app_kernels(), cfg);
            finish_run(exec, &decls, rest, nprocs)
        }
    }
}

/// The backend-independent tail of `xdpc run`: initialize, execute, and
/// print the report (and `--timeline` / `--gather` views) for whichever
/// processor type the `--backend` flag selected.
fn finish_run<P: Processor>(
    mut exec: SimExec<P>,
    decls: &[Decl],
    rest: &[String],
    nprocs: usize,
) -> ExitCode {
    init_default(&mut exec, decls);
    let report = match exec.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xdpc: runtime error: {e}");
            return ExitCode::FAILURE;
        }
    };
    out!(
        "procs {nprocs}  virtual time {:.1}  messages {}  wire bytes {}  efficiency {:.1}%",
        report.virtual_time,
        report.net.messages,
        report.net.wire_bytes,
        100.0 * report.efficiency(),
    );
    if report.faults.any_injected() {
        out!("faults: {}", report.faults.summary());
    }
    for (pid, p) in report.procs.iter().enumerate() {
        out!(
            "  p{pid}: finish {:>10.1}  busy {:>10.1}  wait {:>10.1}  sends {:>4}  recvs {:>4}  symtab queries {:>5}",
            p.finish_time, p.busy, p.wait, p.sends, p.recvs, p.symtab.queries
        );
    }
    if flag(rest, "--timeline") {
        out!("{}", report.gantt(96));
    }
    if let Some(name) = opt_val(rest, "--gather") {
        let Some(pos) = decls.iter().position(|d| d.name == name) else {
            eprintln!("xdpc: no array named `{name}`");
            return ExitCode::FAILURE;
        };
        let g = exec.gather(VarId(pos as u32));
        out!("{name}:");
        g.for_each(|idx, owner, val| {
            out!("  {name}{idx:?} = {:>12.4}   (p{owner})", val.as_f64());
        });
    }
    ExitCode::SUCCESS
}

/// `xdpc trace`: execute with full trace recording, export Chrome
/// trace-event JSON (`--out`, default `trace.json`) and optionally JSONL
/// (`--jsonl`), then print the critical-path report. Fails (nonzero exit)
/// if the run errors, an export cannot be written, or the analyzer cannot
/// attribute the end-to-end time.
fn cmd_trace(program: &Program, rest: &[String]) -> ExitCode {
    let compiled = match compiled_for(program, rest, SeqMode::AsIs) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let faults = match parse_faults(rest) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let cost = match cost_flags(rest) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let nprocs = compiled.nprocs;
    let cfg = SimConfig::new(nprocs)
        .with_cost(cost)
        .with_faults(faults)
        .with_trace(TraceConfig::full());

    // Statement labels for the per-statement cost ranking.
    let labels: std::collections::HashMap<u32, String> =
        pretty::stmt_table(&compiled.program).into_iter().collect();
    let decls = compiled.program.decls.clone();
    match compiled.backend {
        Backend::Interp => {
            let exec = SimExec::new(compiled.program, xdp_apps::app_kernels(), cfg);
            finish_trace(exec, &decls, rest, nprocs, &labels)
        }
        Backend::Vm => {
            let exec = xdp_vm::VmExec::sim(compiled.program, xdp_apps::app_kernels(), cfg);
            finish_trace(exec, &decls, rest, nprocs, &labels)
        }
    }
}

/// The backend-independent tail of `xdpc trace`: initialize, execute,
/// export the trace, and print the critical-path report.
fn finish_trace<P: Processor>(
    mut exec: SimExec<P>,
    decls: &[Decl],
    rest: &[String],
    nprocs: usize,
    labels: &std::collections::HashMap<u32, String>,
) -> ExitCode {
    let top = match num("xdpc", rest, "--top", 10usize) {
        Ok(n) => n,
        Err(code) => return code,
    };
    init_default(&mut exec, decls);
    let report = match exec.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xdpc: runtime error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let out_path = opt_val(rest, "--out").unwrap_or("trace.json");
    if let Err(e) = std::fs::write(out_path, report.trace.to_chrome_json()) {
        eprintln!("xdpc: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(jsonl) = opt_val(rest, "--jsonl") {
        if let Err(e) = std::fs::write(jsonl, report.trace.to_jsonl()) {
            eprintln!("xdpc: cannot write {jsonl}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let cp = report.trace.critical_path(labels);
    if report.virtual_time > 0.0
        && (cp.attributed() - report.virtual_time).abs() > 1e-6 * report.virtual_time
    {
        eprintln!(
            "xdpc: critical-path analysis incomplete: attributed {:.1} of {:.1}",
            cp.attributed(),
            report.virtual_time
        );
        return ExitCode::FAILURE;
    }
    out!(
        "procs {nprocs}  virtual time {:.1}  messages {}  events {}",
        report.virtual_time,
        report.net.messages,
        report.trace.events.len()
    );
    if report.faults.any_injected() {
        out!("faults: {}", report.faults.summary());
    }
    outp!("{}", cp.render(top));
    out!("wrote {out_path}");
    ExitCode::SUCCESS
}

/// `xdpc fuzz`: differential testing on generated programs. Each seed's
/// program is executed on the simulator, the lockstep executor, the
/// compiled VM and the async task machine, re-executed after every prefix
/// of the default pass
/// pipeline, and re-executed under a lossy fault plan; any disagreement
/// is shrunk to a minimal repro and written to `--repro`.
fn cmd_fuzz(rest: &[String]) -> ExitCode {
    use xdp_verify::fuzz::{run_fuzz, FuzzConfig};

    let (count, seed, procs) = match (
        num("xdpc", rest, "--count", 200usize),
        num("xdpc", rest, "--seed", 1u64),
        num("xdpc", rest, "--procs", 4usize),
    ) {
        (Ok(c), Ok(s), Ok(p)) => (c, s, p),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return e,
    };
    if procs < 2 {
        eprintln!("xdpc: fuzz needs --procs >= 2");
        return ExitCode::from(2);
    }
    // Absent means "derive a lossy plan from each program's seed".
    let faults = match opt_val(rest, "--faults")
        .map(|_| parse_faults(rest))
        .transpose()
    {
        Ok(f) => f,
        Err(code) => return code,
    };
    let sim_only = flag(rest, "--sim-only");
    let mem_budget = match parse_mem_budget("xdpc", rest) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let repro_path = opt_val(rest, "--repro").unwrap_or("fuzz-repro.xdp");

    let cfg = FuzzConfig {
        count,
        seed,
        gen: xdp_verify::GenConfig {
            nprocs: procs,
            ..xdp_verify::GenConfig::default()
        },
        check: xdp_verify::CheckConfig {
            async_exec: !sim_only,
            // The VM oracle runs on the simulated machine, so it stays on
            // even under --sim-only: it is exactly as deterministic and
            // nearly as cheap as the lockstep oracle.
            vm: true,
            chaos: !sim_only,
            faults,
            passes: true,
            // The membound oracle is a second simulator run (budgeted
            // planner, same memory image) — deterministic, so it also
            // stays on under --sim-only.
            mem_budget: mem_budget.or(Some(xdp_verify::DEFAULT_CHECK_BUDGET)),
        },
        ..FuzzConfig::default()
    };

    // Divergence panics are caught and reported by the driver; keep the
    // default hook from spraying backtraces mid-sweep.
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_fuzz(&cfg, &mut |checked, failure| {
        if failure.is_none() && (checked % 50 == 0 || checked == count) {
            eprintln!("xdpc: fuzz: {checked}/{count} ok");
        }
    });
    let _ = std::panic::take_hook();

    if let Some(f) = report.failures.first() {
        if let Err(e) = std::fs::write(repro_path, &f.repro) {
            eprintln!("xdpc: cannot write {repro_path}: {e}");
        }
        out!(
            "FAIL seed {} [{}] after {} programs\n  {}\n  shrunk {} -> {} statements ({} evaluations)\n  repro: {repro_path}",
            f.seed,
            f.key,
            report.checked,
            f.detail.replace('\n', "\n  "),
            f.original_stmts,
            f.shrunk_stmts,
            f.shrink_evals,
        );
        return ExitCode::FAILURE;
    }
    out!(
        "ok: {} programs (seeds {}..{}), {} procs, executors {} + per-pass equivalence{}",
        report.checked,
        seed,
        seed + count as u64 - 1,
        procs,
        if sim_only {
            "sim+lockstep+vm"
        } else {
            "sim+lockstep+vm+async"
        },
        if sim_only { "" } else { " + chaos" },
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_command_exactly_once() {
        let text = usage_text();
        for c in COMMANDS {
            assert!(
                text.contains(&format!("  {:<7} ", c.name)),
                "usage missing `{}`:\n{text}",
                c.name
            );
        }
        // Names are unique (the dispatch finds the first match).
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COMMANDS.len());
    }

    #[test]
    fn every_documented_pass_resolves() {
        for name in [
            "elide-same-owner-comm",
            "vectorize-messages",
            "localize-bounds",
            "bind-communication",
            "elide-accessible-checks",
            "fuse-loops",
            "sink-await",
            "migrate-ownership",
            "auto-place",
        ] {
            assert!(pass_by_name(name).is_some(), "{name}");
        }
        assert!(pass_by_name("bogus").is_none());
    }
}
