//! The command line of `xdpc`, `xdpd` and the two experiment binaries that
//! take options (`e14_metrics`, `e17_membound`), declared once.
//!
//! Every option is one [`Opt`] constant (spelling, value metavariable,
//! help text) and every command one [`Command`] row naming the options it
//! takes. [`Args::parse`] checks an argv against a row before any handler
//! runs: an unknown option, an option given twice, a valued option with no
//! value (or with another `--option` where its value should be), a stray
//! or missing operand are each one `tool: …` line on stderr and exit code
//! 2. `--help` and the no-argument usage are rendered from the same rows,
//! so no second copy of the option list exists to drift. Handlers read
//! options only through [`Args`]; a malformed *value* is the same kind of
//! error (`tool: bad --opt …`, exit 2), reported when the value is read.

use crate::{Backend, CompileOptions};
use std::io::Write;
use std::process::ExitCode;

/// One option: its spelling, the metavariable of its value (empty for a
/// bare flag) and its help text.
#[derive(Clone, Copy, Debug)]
pub struct Opt {
    pub name: &'static str,
    pub metavar: &'static str,
    pub help: &'static str,
}

/// One command of a tool: its name, the metavariable of its operand
/// (empty when it takes none; required otherwise), a one-line summary and
/// the option groups it takes.
#[derive(Debug)]
pub struct Command {
    pub name: &'static str,
    pub operand: &'static str,
    pub summary: &'static str,
    pub opts: &'static [&'static [Opt]],
}

/// A binary and its commands.
#[derive(Debug)]
pub struct Tool {
    pub name: &'static str,
    pub commands: &'static [Command],
}

macro_rules! options {
    ($($id:ident $name:literal $metavar:literal $help:literal)*) => {
        $(#[doc = $help] pub const $id: Opt = Opt { name: $name, metavar: $metavar, help: $help };)*
    };
}

macro_rules! commands {
    ($($name:literal $operand:literal $summary:literal [$($group:expr),*])*) => {
        &[$(Command { name: $name, operand: $operand, summary: $summary, opts: &[$($group),*] }),*]
    };
}

options! {
    PROCS "--procs" "N" "machine size (default: from the declarations; fuzz: 4, at least 2)"
    OPTIMIZE "--optimize" "" "run the paper pipeline before executing"
    BACKEND "--backend" "B" "interp (tree-walking, default) or vm (compiled bytecode; same traces and results)"
    MEM_BUDGET "--mem-budget" "B" "per-processor live-buffer budget for redistribution planning, in bytes\n\
        (binary k/m/g suffixes; default unbounded); plan exits 1 when no\n\
        decomposition fits and names the smallest feasible budget"
    EXPLAIN "--explain" "" "print per-pass wall time, node deltas and statement provenance"
    ALPHA "--alpha" "X" "per-message latency (default 100)"
    BETA "--beta" "X" "per-byte time (default 0.1)"
    TOPO "--topo" "T" "interconnect: uniform (default), linear, or an RxC mesh with room for every pid"
    FAULTS "--faults" "SPEC" "inject transport faults and deliver through ack/retry: comma-separated\n\
        drop=P dup=P reorder=P delayp=P delay=T seed=N rto=T backoff=X retries=N\n\
        kill=SRC:SEQ (default none; fuzz: a lossy plan derived from each seed)"
    TIMELINE "--timeline" "" "print a Gantt chart of the execution"
    UNCHECKED "--unchecked" "" "disable the checked runtime"
    GATHER "--gather" "NAME" "print the named array's final contents and owners"
    OUT "--out" "PATH" "Chrome trace-event JSON output (default trace.json)"
    JSONL "--jsonl" "PATH" "also write the compact JSONL trace"
    TOP "--top" "N" "rows in the critical-path tables (default 10)"
    ARRAY "--array" "NAME" "the array whose segment shape is tuned (required)"
    SEGMENTS "--segments" "LIST" "candidate shapes, one extent per dimension: 1,16,4x1,... (required)"
    PASSES "--passes" "LIST" "comma-separated pass names (default: the paper pipeline); an unknown\n\
        name lists the registered ones"
    NO_CYCLIC "--no-cyclic" "" "drop CYCLIC candidates from the search"
    MAX_DIMS "--max-dims" "N" "most array dimensions distributed at once (default 2)"
    EMIT "--emit" "" "print the rewritten program (valid xdpc input)"
    COUNT "--count" "N" "programs to check (default 200)"
    SEED "--seed" "N" "fuzz: first seed, program k uses seed+k (default 1); replay: request-mix seed (default 1993)"
    REPRO "--repro" "PATH" "where a divergence's minimized repro is written (default fuzz-repro.xdp)"
    SIM_ONLY "--sim-only" "" "skip the wall-clock (async) executor and chaos oracles"
    REPEAT "--repeat" "N" "requests to serve; the first compiles, the rest hit the cache (default 3)"
    WORKERS "--workers" "N" "pool worker threads (default: run and stats 2, bench 4)"
    REQUESTS "--requests" "N" "requests to replay (default: bench 1000, stats 120, e14_metrics 400)"
    BATCH "--batch" "N" "requests per batch (default: bench 64, stats and e14_metrics 32)"
    CAPACITY "--capacity" "N" "compile-cache capacity in programs (default 64)"
    GEN "--gen" "N" "generated programs added to the corpus (default: bench and stats 6, e14_metrics 4, list 0)"
    PROGRAMS "--programs" "DIR" "directory of .xdp sources (default xdp-programs)"
    METRICS_OUT "--metrics-out" "FILE" "write the pool's full metrics snapshot as JSON"
    SLOW_MS "--slow-ms" "N" "arm the flight recorder: dump any request slower than N ms"
    FLIGHT_DIR "--flight-dir" "DIR" "flight-recorder dump directory (default flight-dumps)"
    FORMAT "--format" "F" "exposition format: prom (default) or json"
    PARETO_OUT "--pareto-out" "FILE" "where the frontier sweep is written (default membound-pareto.json)"
}

/// What [`compile_options`] reads, less `--backend` (only commands that
/// execute take it), plus the provenance switch of the compile they steer.
const COMPILE: &[Opt] = &[PROCS, OPTIMIZE, MEM_BUDGET, EXPLAIN];
const COST: &[Opt] = &[ALPHA, BETA];
/// What `xdp_serve::ReplayConfig::apply_args` reads.
const REPLAY: &[Opt] = &[
    REQUESTS, WORKERS, BATCH, CAPACITY, SEED, GEN, PROGRAMS, BACKEND, MEM_BUDGET,
];

/// The driver: one program in, one report out.
pub const XDPC: Tool = Tool {
    name: "xdpc",
    commands: commands! {
        "check" "FILE" "parse, validate, and pretty-print" []
        "lower" "FILE" "sequential source -> naive owner-computes IL+XDP" [&[EXPLAIN]]
        "opt" "FILE" "optimize and print" [&[PASSES, EXPLAIN]]
        "run" "FILE" "execute on the simulated machine"
            [COMPILE, &[BACKEND], COST, &[FAULTS, TIMELINE, UNCHECKED, GATHER]]
        "trace" "FILE" "execute with full tracing: Chrome JSON + critical path"
            [COMPILE, &[BACKEND], COST, &[FAULTS, OUT, JSONL, TOP]]
        "tune" "FILE" "pick the fastest segment shape of one array" [&[ARRAY, SEGMENTS]]
        "plan" "FILE" "show schedule + predicted cost of every `redistribute`" [COMPILE, COST, &[TOPO]]
        "place" "FILE" "search per-phase distributions with the cost model, simulate the result"
            [COMPILE, COST, &[TOPO, NO_CYCLIC, MAX_DIMS, EMIT]]
        "fuzz" "" "differentially test executors and passes on generated programs; on a\n\
            divergence, shrink it, write the repro and exit 1"
            [&[COUNT, SEED, PROCS, FAULTS, REPRO, SIM_ONLY, MEM_BUDGET]]
    },
};

/// The serving daemon, driven in one-shot mode.
pub const XDPD: Tool = Tool {
    name: "xdpd",
    commands: commands! {
        "run" "FILE" "serve one program repeatedly through the compile cache"
            [&[REPEAT, OPTIMIZE, BACKEND, PROCS, FAULTS, WORKERS, MEM_BUDGET]]
        "list" "" "register a corpus and print the registry" [&[PROGRAMS, GEN]]
        "bench" "" "E13: replay a seeded weighted request mix, print summary and per-program\n\
            tables, exit 1 on a serving-contract violation"
            [REPLAY, &[METRICS_OUT, SLOW_MS, FLIGHT_DIR]]
        "stats" "" "serve a short replay and print the pool's telemetry" [REPLAY, &[FORMAT]]
    },
};

/// `e14_metrics` has no subcommands: one row, parsed under its own name.
pub const E14_METRICS: Command = Command {
    name: "",
    operand: "",
    summary: "E14: validate the serving telemetry against oracles",
    opts: &[REPLAY, &[METRICS_OUT, FLIGHT_DIR]],
};

/// `e17_membound`, likewise.
pub const E17_MEMBOUND: Command = Command {
    name: "",
    operand: "",
    summary: "E17: memory-bounded redistribution, planned and measured",
    opts: &[&[PARETO_OUT]],
};

impl Command {
    /// Every option the command takes.
    pub fn options(&self) -> impl Iterator<Item = &'static Opt> {
        self.opts.iter().flat_map(|group| group.iter())
    }

    /// `tool cmd FILE [options]`.
    fn synopsis(&self, tool: &str) -> String {
        let words = [tool, self.name, self.operand, "[options]"];
        let words: Vec<&str> = words.into_iter().filter(|w| !w.is_empty()).collect();
        words.join(" ")
    }

    /// The `--help` text: synopsis, summary, one entry per option.
    pub fn help(&self, tool: &str) -> String {
        let mut s = format!("usage: {}\n  {}\n", self.synopsis(tool), self.summary);
        for o in self.options() {
            let head = [o.name, o.metavar].join(" ");
            let help = o.help.replace('\n', &format!("\n{:21}", ""));
            s.push_str(&format!("\n  {head:<18} {help}"));
        }
        s + "\n"
    }
}

impl Tool {
    /// The no-argument usage: every command with its summary.
    pub fn usage(&self) -> String {
        let names: Vec<&str> = self.commands.iter().map(|c| c.name).collect();
        let mut s = format!("usage: {} <{}> [options]\n", self.name, names.join("|"));
        for c in self.commands {
            let head = [c.name, c.operand].join(" ");
            let summary = c.summary.replace('\n', &format!("\n{:13}", ""));
            s.push_str(&format!("  {head:<10} {summary}\n"));
        }
        s + &format!(
            "(`{} <command> --help` lists a command's options)\n",
            self.name
        )
    }

    /// Parse a whole command line (without the program name): find the
    /// command, then [`Args::parse`] the rest against it. No command or an
    /// unknown one is a usage error (exit 2).
    pub fn parse(&'static self, argv: &[String]) -> Result<Args, ExitCode> {
        let name = argv.first().map(String::as_str);
        if let Some("--help" | "-h" | "help") = name {
            return Err(helped(&self.usage()));
        }
        let Some(command) = self.commands.iter().find(|c| Some(c.name) == name) else {
            if let Some(name) = name {
                eprintln!("{}: unknown command `{name}`", self.name);
            }
            eprint!("{}", self.usage());
            return Err(ExitCode::from(2));
        };
        Args::parse(self.name, command, &argv[1..])
    }
}

/// Print help that was asked for (a closed pipe is not an error: `--help |
/// head`); asking is a success.
fn helped(text: &str) -> ExitCode {
    let _ = std::io::stdout().write_all(text.as_bytes());
    ExitCode::SUCCESS
}

/// One checked command line: the operand and the options that were given,
/// each known to the command and carrying its value.
#[derive(Debug)]
pub struct Args {
    tool: &'static str,
    pub command: &'static Command,
    operand: String,
    given: Vec<(&'static Opt, String)>,
}

impl Args {
    /// Check `argv` (what follows the command name) against `command`.
    /// `Err` carries the exit code of an outcome already reported: 2 after
    /// the one-line refusal, 0 after `--help`.
    pub fn parse(
        tool: &'static str,
        command: &'static Command,
        argv: &[String],
    ) -> Result<Args, ExitCode> {
        let mut args = Args {
            tool,
            command,
            operand: String::new(),
            given: Vec::new(),
        };
        let refuse = |what: String| {
            let synopsis = command.synopsis(tool);
            eprintln!("{tool}: {what}; usage: {synopsis} (`--help` lists the options)");
            ExitCode::from(2)
        };
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            if word == "--help" || word == "-h" {
                return Err(helped(&command.help(tool)));
            }
            if !word.starts_with("--") {
                if command.operand.is_empty() || !args.operand.is_empty() {
                    return Err(refuse(format!("unexpected operand `{word}`")));
                }
                args.operand = word.clone();
                continue;
            }
            let Some(opt) = command.options().find(|o| o.name == word) else {
                return Err(refuse(format!("unknown option `{word}`")));
            };
            if args.has(*opt) {
                return Err(refuse(format!("`{word}` given twice")));
            }
            let mut value = String::new();
            if !opt.metavar.is_empty() {
                match words.next() {
                    Some(next) if !next.starts_with("--") => value = next.clone(),
                    _ => return Err(refuse(format!("`{word}` needs a value ({})", opt.metavar))),
                }
            }
            args.given.push((opt, value));
        }
        if !command.operand.is_empty() && args.operand.is_empty() {
            return Err(refuse(format!("missing {}", command.operand)));
        }
        Ok(args)
    }

    /// The command's operand (empty for a command that takes none).
    pub fn operand(&self) -> &str {
        &self.operand
    }

    /// Was `opt` given?
    pub fn has(&self, opt: Opt) -> bool {
        self.value(opt).is_some()
    }

    /// The value `opt` was given, if it was.
    pub fn value(&self, opt: Opt) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(o, _)| o.name == opt.name)?;
        Some(value)
    }

    /// `opt`'s value as `read` understands it, `None` when absent. `read`'s
    /// `Err` finishes the one-line usage error `tool: bad --opt…` (exit 2).
    pub fn read<T>(
        &self,
        opt: Opt,
        read: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, ExitCode> {
        let value = self.value(opt).map(read).transpose();
        value.map_err(|why| {
            eprintln!("{}: bad {}{why}", self.tool, opt.name);
            ExitCode::from(2)
        })
    }

    /// The numeric option `opt`, `None` when absent.
    pub fn num_opt<T: std::str::FromStr>(&self, opt: Opt) -> Result<Option<T>, ExitCode> {
        self.read(opt, |v| v.parse().map_err(|_| format!(" `{v}`")))
    }

    /// The numeric option `opt`, `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, opt: Opt, default: T) -> Result<T, ExitCode> {
        Ok(self.num_opt(opt)?.unwrap_or(default))
    }
}

/// A positive byte count with an optional binary k/m/g suffix;
/// surrounding whitespace is ignored.
fn parse_bytes(v: &str) -> Option<u64> {
    let v = v.trim();
    let (num, mult) = match v.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&v[..i], 1u64 << 10),
        (i, 'm') | (i, 'M') => (&v[..i], 1 << 20),
        (i, 'g') | (i, 'G') => (&v[..i], 1 << 30),
        _ => (v, 1),
    };
    let n: u64 = num.parse().ok()?;
    n.checked_mul(mult).filter(|b| *b > 0)
}

/// `--procs --optimize --backend --mem-budget` as the [`CompileOptions`]
/// they select, resolved once for every tool; an option the command does
/// not take keeps its default. The caller sets the sequential-source mode.
pub fn compile_options(args: &Args) -> Result<CompileOptions, ExitCode> {
    let backend = args.read(BACKEND, |v| {
        Backend::parse(v).ok_or(format!(" `{v}` (use interp or vm)"))
    })?;
    let mem_budget = args.read(MEM_BUDGET, |v| {
        parse_bytes(v).ok_or(format!(
            " `{v}` (positive bytes, optionally with k/m/g suffix)"
        ))
    })?;
    Ok(CompileOptions {
        procs: args.num_opt(PROCS)?,
        optimize: args.has(OPTIMIZE),
        backend: backend.unwrap_or_default(),
        mem_budget,
        ..CompileOptions::default()
    })
}
