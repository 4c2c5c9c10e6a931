//! `xdpc` — the XDP command-line driver: check, lower, optimize, plan,
//! place, run, trace, tune and fuzz `.xdp` programs.
//!
//! Run `xdpc` for the commands and `xdpc <cmd> --help` for a command's
//! options. Both texts are rendered from the option table in
//! [`xdp_compiler::cli`], which is also what refuses a command line before
//! any handler here runs.
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
use xdp_compiler::cli::{self, Args};
use xdp_compiler::{compile_program, passes, Backend, CompileError, Compiled, SeqMode};
use xdp_ir::pretty;

/// What a command returns: `Err` carries the exit code of a failure it has
/// already reported on stderr.
type Done = Result<(), ExitCode>;

/// The handler of each command of [`cli::XDPC`].
fn handler(command: &str) -> fn(&Args) -> Done {
    match command {
        "check" => cmd_check,
        "lower" => cmd_lower,
        "opt" => cmd_opt,
        "run" => cmd_run,
        "trace" => cmd_trace,
        "tune" => cmd_tune,
        "plan" => cmd_plan,
        "place" => cmd_place,
        "fuzz" => cmd_fuzz,
        other => unreachable!("`{other}` is not in the command table"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = cli::XDPC
        .parse(&argv)
        .and_then(|args| handler(args.command.name)(&args));
    done.err().unwrap_or(ExitCode::SUCCESS)
}

/// Report a failure (exit code 1) as one `xdpc: …` line.
fn fail(what: impl std::fmt::Display) -> ExitCode {
    eprintln!("xdpc: {what}");
    ExitCode::FAILURE
}

/// The command's program operand, read and parsed. One diagnostic and one
/// exit code (2, a usage-class error) for every command pointed at a
/// missing or unreadable file — asserted for all of them in `tests/cli.rs`.
fn load(args: &Args) -> Result<Program, ExitCode> {
    let file = args.operand();
    let src = std::fs::read_to_string(file).map_err(|e| {
        eprintln!("xdpc: error: cannot read {file}: {e}");
        ExitCode::from(2)
    })?;
    xdp_lang::parse_program(&src).map_err(|e| fail(format_args!("{file}: {e}")))
}

fn cmd_check(args: &Args) -> Done {
    let program = load(args)?;
    let diags = xdp_ir::validate(&program);
    outp!("{}", pretty::program(&program));
    for d in &diags {
        eprintln!("xdpc: warning: {d}");
    }
    if diags.is_empty() {
        Ok(())
    } else {
        Err(ExitCode::FAILURE)
    }
}

fn cmd_lower(args: &Args) -> Done {
    let naive = compiled_for(args, SeqMode::Lower)?.program;
    outp!("{}", pretty::program(&naive));
    if args.has(cli::EXPLAIN) {
        // Show what the standard pipeline would do to this program:
        // per-pass wall time, node deltas, statement provenance.
        let (_, ct) = PassManager::paper_pipeline().run_traced(&naive);
        eprintln!("\n[paper pipeline on the lowered program]");
        eprint!("{}", ct.render());
    }
    Ok(())
}

fn cmd_opt(args: &Args) -> Done {
    let program = load(args)?;
    let mut mgr = PassManager::new();
    match args.value(cli::PASSES) {
        None => mgr = PassManager::paper_pipeline(),
        Some(list) => {
            for name in list.split(',').map(str::trim) {
                let mut registry = passes::registry().into_iter();
                let Some(pass) = registry.find(|p| p.name() == name) else {
                    let names: Vec<&str> = passes::registry().iter().map(|p| p.name()).collect();
                    let names = names.join(", ");
                    eprintln!("xdpc: unknown pass `{name}` (registered: {names})");
                    return Err(ExitCode::from(2));
                };
                mgr = mgr.add_boxed(pass);
            }
        }
    }
    let (cur, ct) = mgr.run_traced(&program);
    if args.has(cli::EXPLAIN) {
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
    Ok(())
}

/// `xdpc tune`: run the program once per candidate segment shape of one
/// array and rank the shapes by simulated time.
fn cmd_tune(args: &Args) -> Done {
    let compiled = compiled_for(args, SeqMode::AsIs)?;
    let cfg = sim_config(args, &compiled)?;
    let (Some(array), Some(list)) = (args.value(cli::ARRAY), args.value(cli::SEGMENTS)) else {
        eprintln!("xdpc: tune needs --array NAME and --segments LIST");
        return Err(ExitCode::from(2));
    };
    let program = compiled.program.as_ref();
    let Some(pos) = program.decls.iter().position(|d| d.name == array) else {
        return Err(fail(format_args!("no array named `{array}`")));
    };
    let rank = program.decls[pos].rank();
    let mut shapes: Vec<Vec<i64>> = Vec::new();
    for spec in list.split(',') {
        let dims: Option<Vec<i64>> = spec.split('x').map(|x| x.trim().parse().ok()).collect();
        match dims {
            Some(d) if d.len() == rank && d.iter().all(|&x| x >= 1) => shapes.push(d),
            _ => {
                eprintln!("xdpc: bad segment spec `{spec}` (rank-{rank} array; use e.g. 4 or 4x1)");
                return Err(ExitCode::from(2));
            }
        }
    }
    // A shape whose program fails at run time is skipped; if all fail,
    // the last error is the report.
    let mut rows = Vec::new();
    let mut last_err = None;
    for shape in shapes {
        let mut candidate = program.clone();
        candidate.decls[pos].segment_shape = Some(shape.clone());
        match simulate(Arc::new(candidate), compiled.backend, cfg.clone(), None) {
            Ok((r, _)) => rows.push((shape, r.virtual_time, r.net.messages)),
            Err(e) => last_err = Some(e),
        }
    }
    let Some((best, ..)) = rows.iter().min_by(|a, b| a.1.total_cmp(&b.1)) else {
        let e = last_err.expect("a segment list names at least one shape");
        return Err(fail(format_args!("tuning failed: {e}")));
    };
    out!("{:>12}  {:>12}  {:>9}", "segments", "time", "messages");
    for (shape, time, messages) in &rows {
        let label: Vec<String> = shape.iter().map(|x| x.to_string()).collect();
        let mark = if shape == best { "   <- best" } else { "" };
        out!("{:>12}  {time:>12.1}  {messages:>9}{mark}", label.join("x"));
    }
    Ok(())
}

/// Show the planner's decision for every `redistribute` in the program:
/// the candidate strategies with predicted costs (one shared-format table
/// for all statements), and the chosen communication schedule. Statements
/// are examined in program order (each one changes the source
/// distribution of the next).
fn cmd_plan(args: &Args) -> Done {
    use xdp_bench::table::j;
    let compiled = compiled_for(args, SeqMode::AsIs)?;
    let program = compiled.program.as_ref();
    let MachineConfig { cost, topo, .. } = sim_config(args, &compiled)?;
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
        return Ok(());
    }
    outp!("{}", t.render());
    outp!("{schedules}");
    if failed {
        Err(ExitCode::FAILURE)
    } else {
        Ok(())
    }
}

/// `xdpc place`: run the `xdp-place` search on the program and report the
/// chosen per-phase distributions, predicted costs, and — by executing
/// both the input and the rewritten program on the simulated machine —
/// the realized virtual times. Exits nonzero when no placement is legal
/// (no distributed exclusive array, or no compute). Programs that migrate
/// ownership by hand are analyzed but not rewritten: the placement is
/// advisory and only the input program is executed.
fn cmd_place(args: &Args) -> Done {
    use xdp_bench::table::j;
    let compiled = compiled_for(args, SeqMode::AsIs)?;
    // One machine for the search and both runs: the candidates are scored
    // against the cost model and topology the programs then execute on.
    let cfg = sim_config(args, &compiled)?;
    let mut opts = PlaceOptions {
        model: cfg.cost,
        topo: cfg.topo.clone(),
        allow_cyclic: !args.has(cli::NO_CYCLIC),
        ..PlaceOptions::default()
    };
    opts.max_dist_dims = args.num_or(cli::MAX_DIMS, opts.max_dist_dims)?;
    let placed = xdp::place::optimize(&compiled.program, &opts)
        .map_err(|e| fail(format_args!("place: {e}")))?;
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

    let simulated = |program: Arc<Program>, which: &str| {
        simulate(program, compiled.backend, cfg.clone(), None)
            .map(|(report, _)| report.virtual_time)
            .map_err(|e| fail(format_args!("{which} program failed to run: {e}")))
    };
    let vt = simulated(compiled.program.clone(), "input")?;
    out!("simulated input program: {vt:.1}");
    if placed.rewritten {
        let vt = simulated(Arc::new(placed.program.clone()), "placed")?;
        out!(
            "simulated placed program: {vt:.1} (predicted {:.1})",
            pm.total_predicted
        );
    } else {
        out!(
            "program migrates ownership by hand; placement is advisory (predicted {:.1})",
            pm.total_predicted
        );
    }
    if args.has(cli::EMIT) {
        outp!("{}", pretty::program(&placed.program));
    }
    Ok(())
}

/// `--faults SPEC`, when given. A malformed spec is a usage error (exit
/// 2), not a runtime failure.
fn faults(args: &Args) -> Result<Option<FaultPlan>, ExitCode> {
    args.read(cli::FAULTS, |spec| {
        FaultPlan::parse(spec).map_err(|e| format!(" spec: {e}"))
    })
}

/// The shared compile path: load the operand, validate, honour the
/// options of [`cli::compile_options`], and print pass provenance
/// (`--explain` for the full instrumentation, otherwise a one-line change
/// log). It is `xdp_compiler::compile_program` — the pipeline the `xdpd`
/// daemon's compile cache keys.
fn compiled_for(args: &Args, seq: SeqMode) -> Result<Compiled, ExitCode> {
    let program = load(args)?;
    let opts = cli::compile_options(args)?.with_seq(seq);
    let compiled = compile_program(&program, &opts).map_err(|e| match e {
        CompileError::Invalid(diags) => {
            for d in diags {
                eprintln!("xdpc: error: {d}");
            }
            ExitCode::FAILURE
        }
        e => fail(e),
    })?;
    if args.has(cli::EXPLAIN) && !compiled.trace.passes.is_empty() {
        eprint!("{}", compiled.trace.render());
    } else {
        for p in compiled.trace.passes.iter().filter(|p| p.changed) {
            eprintln!("pass {}: changed", p.name);
        }
    }
    Ok(compiled)
}

/// The simulated machine a command's options describe for `compiled`:
/// `--alpha --beta --topo --faults --timeline --unchecked` over the 1993
/// defaults, planning redistributions under the budget it was compiled
/// with. `--topo` is parsed whole, then checked against the machine it is
/// to connect.
fn sim_config(args: &Args, compiled: &Compiled) -> Result<MachineConfig, ExitCode> {
    let mut cfg = MachineConfig::new(compiled.nprocs);
    cfg.cost.alpha = args.num_or(cli::ALPHA, cfg.cost.alpha)?;
    cfg.cost.beta = args.num_or(cli::BETA, cfg.cost.beta)?;
    cfg.cost.mem_budget = compiled.mem_budget;
    let topo = args.read(cli::TOPO, |spec| {
        let topo = spec.parse::<Topology>().map_err(|e| format!(": {e}"))?;
        topo.validate(cfg.nprocs).map_err(|e| format!(": {e}"))?;
        Ok(topo)
    })?;
    cfg.topo = topo.unwrap_or(cfg.topo);
    cfg.faults = faults(args)?.unwrap_or(cfg.faults);
    if args.has(cli::TIMELINE) {
        cfg = cfg.with_timeline();
    }
    if args.has(cli::UNCHECKED) {
        cfg = cfg.unchecked();
    }
    Ok(cfg)
}

/// Load `program` onto the simulated machine `cfg` describes (interpreter
/// or VM processors: same machine, same report), give every exclusive
/// array its default contents — the flattened 1-based element ordinal —
/// run, and gather `gather` if asked. The one place `xdpc` builds a
/// machine.
fn simulate(
    program: Arc<Program>,
    backend: Backend,
    cfg: MachineConfig,
    gather: Option<VarId>,
) -> Result<(ExecReport, Option<Gathered>), RtError> {
    let kernels = xdp_apps::app_kernels();
    let mut exec = xdp_verify::machine(MachineKind::Sim, backend, program.clone(), kernels, cfg);
    let decls = program.decls.iter().enumerate();
    for (i, d) in decls.filter(|(_, d)| d.is_exclusive()) {
        let full = Section::new(d.bounds.clone());
        exec.init_exclusive(VarId(i as u32), &move |idx| {
            Value::F64((full.ordinal_of(idx).unwrap_or(0) + 1) as f64)
        });
    }
    let report = exec.run_report()?;
    Ok((report, gather.map(|var| exec.gather(var))))
}

fn cmd_run(args: &Args) -> Done {
    let compiled = compiled_for(args, SeqMode::AsIs)?;
    let cfg = sim_config(args, &compiled)?;
    let nprocs = compiled.nprocs;
    let gather = args.value(cli::GATHER);
    let decls = &compiled.program.decls;
    let var = gather.and_then(|name| decls.iter().position(|d| d.name == name));
    let var = var.map(|pos| VarId(pos as u32));
    let (report, gathered) = simulate(compiled.program.clone(), compiled.backend, cfg, var)
        .map_err(|e| fail(format_args!("runtime error: {e}")))?;
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
    if args.has(cli::TIMELINE) {
        out!("{}", report.gantt(96));
    }
    if let Some(name) = gather {
        let Some(g) = gathered else {
            return Err(fail(format_args!("no array named `{name}`")));
        };
        out!("{name}:");
        g.for_each(|idx, owner, val| {
            out!("  {name}{idx:?} = {:>12.4}   (p{owner})", val.as_f64());
        });
    }
    Ok(())
}

/// `xdpc trace`: execute with full trace recording, export Chrome
/// trace-event JSON (`--out`) and optionally JSONL
/// (`--jsonl`), then print the critical-path report. Fails (nonzero exit)
/// if the run errors, an export cannot be written, or the analyzer cannot
/// attribute the end-to-end time.
fn cmd_trace(args: &Args) -> Done {
    let compiled = compiled_for(args, SeqMode::AsIs)?;
    let cfg = sim_config(args, &compiled)?.with_trace(TraceConfig::full());
    let top: usize = args.num(cli::TOP)?;
    let nprocs = compiled.nprocs;
    // Statement labels for the per-statement cost ranking.
    let labels: std::collections::HashMap<u32, String> =
        pretty::stmt_table(&compiled.program).into_iter().collect();
    let (report, _) = simulate(compiled.program, compiled.backend, cfg, None)
        .map_err(|e| fail(format_args!("runtime error: {e}")))?;

    let write = |path: &str, text: String| {
        std::fs::write(path, text).map_err(|e| fail(format_args!("cannot write {path}: {e}")))
    };
    let out_path = args.path(cli::OUT);
    write(out_path, report.trace.to_chrome_json())?;
    if let Some(jsonl) = args.value(cli::JSONL) {
        write(jsonl, report.trace.to_jsonl())?;
    }

    let cp = report.trace.critical_path(&labels);
    if report.virtual_time > 0.0
        && (cp.attributed() - report.virtual_time).abs() > 1e-6 * report.virtual_time
    {
        return Err(fail(format_args!(
            "critical-path analysis incomplete: attributed {:.1} of {:.1}",
            cp.attributed(),
            report.virtual_time
        )));
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
    Ok(())
}

/// `xdpc fuzz`: differential testing on generated programs. Each seed's
/// program is executed on the simulator, the lockstep executor, the
/// compiled VM and the async task machine, re-executed after every prefix
/// of the default pass
/// pipeline, and re-executed under a lossy fault plan; any disagreement
/// is shrunk to a minimal repro and written to `--repro`.
fn cmd_fuzz(args: &Args) -> Done {
    use xdp_verify::fuzz::{run_fuzz, FuzzConfig};

    let (count, seed) = (args.num(cli::COUNT)?, args.num_or(cli::SEED, 1u64)?);
    let compile = cli::compile_options(args)?;
    let (procs, mem_budget) = (compile.procs.unwrap_or(4), compile.mem_budget);
    if procs < 2 {
        eprintln!("xdpc: fuzz needs --procs >= 2");
        return Err(ExitCode::from(2));
    }
    // Absent means "derive a lossy plan from each program's seed".
    let faults = faults(args)?;
    let sim_only = args.has(cli::SIM_ONLY);
    let repro_path = args.path(cli::REPRO);

    let cfg = FuzzConfig {
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
        ..FuzzConfig::new(count, seed)
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
        return Err(ExitCode::FAILURE);
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_command_exactly_once() {
        let text = cli::XDPC.usage();
        for c in cli::XDPC.commands {
            assert_eq!(
                text.matches(&format!("\n  {} ", c.name)).count(),
                1,
                "usage names `{}` once:\n{text}",
                c.name
            );
            // Every row of the table dispatches (an unhandled name panics).
            let _ = handler(c.name);
        }
    }

    #[test]
    fn every_documented_pass_resolves() {
        // `--passes` finds a pass by the name it reports for itself, so the
        // registry needs no second list; the names must be distinct.
        let mut names: Vec<&str> = passes::registry().iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 10);
        for p in PassManager::paper_pipeline().into_passes() {
            assert!(names.contains(&p.name()), "{}", p.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "{names:?}");
    }
}
