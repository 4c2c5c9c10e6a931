//! The five request mixes. Workload names are permanent: a later change
//! compares its numbers with this commit's by name.
//!
//! Every mix is a list of [`Prog`]s (the distinct programs, which set-up
//! verifies against the reference path) and a rule that turns the seeded
//! request stream into [`RequestSpec`]s. The program under test only ever
//! sees those specs.

use std::borrow::Cow;
use xdp_compiler::{Backend, CompileOptions, SeqMode};
use xdp_serve::{PoolMachine, RequestSpec};

/// Compile-cache capacity of every pool the benchmark builds: at least
/// the distinct programs of each warm mix, far fewer than the distinct
/// sources of `serve-cold`.
pub const CACHE_CAPACITY: usize = 64;

pub const WORKLOADS: [&str; 5] = [
    "serve-small",
    "serve-cold",
    "exec-compute",
    "exec-comm",
    "exec-comm-tasks",
];

/// One distinct program of a mix.
#[derive(Clone, Debug)]
pub struct Prog {
    pub name: String,
    /// Is the source the same for every seed? Then its reference digest
    /// is pinned in `golden.json` under `name`.
    pub fixed: bool,
    pub spec: RequestSpec,
    /// Arrays the source declares that are not part of the answer: receive
    /// scratch, which stays unwritten when the optimizer elides the
    /// transfer that fills it. Every other declared array is.
    pub scratch: Vec<String>,
    /// Share of the mix's requests, relative to its mix-mates.
    pub weight: usize,
}

pub struct Workload {
    pub name: &'static str,
    pub machine: PoolMachine,
    /// Warm mixes request the distinct programs over and over; the cold
    /// mix makes every request a new source.
    pub cold: bool,
    pub progs: Vec<Prog>,
    /// Open-loop arrival rates (req/s) for the traced run: about 25, 50
    /// and 75 % of what one worker sustained (1 / `bench.run_one_us`) at
    /// the commit that defined the benchmark. Absolute, so a later commit
    /// is offered the same load.
    pub open_rates: [f64; 3],
    /// Times the traced run requests every distinct program: a second or
    /// two of single-client work. Fixed, so that its counts repeat exactly.
    pub trace_rounds: usize,
}

impl Workload {
    /// The order in which programs are requested: every program `weight`
    /// times per pass, at least `min_len` entries, shuffled by `seed`.
    pub fn deck(&self, min_len: usize, seed: u64) -> Vec<usize> {
        let weights: Vec<usize> = self.progs.iter().map(|p| p.weight).collect();
        crate::stats::shuffled_deck(&weights, min_len, seed)
    }

    /// The request at position `id` of the stream, using program `k`.
    /// Cold requests carry `id` in a leading comment, so each is a source
    /// the cache has never seen while compiling and running identically.
    pub fn request(&self, k: usize, id: u64) -> Cow<'_, RequestSpec> {
        let spec = &self.progs[k].spec;
        if self.cold {
            let mut fresh = spec.clone();
            fresh.source = format!("// req {id}\n{}", spec.source);
            Cow::Owned(fresh)
        } else {
            Cow::Borrowed(spec)
        }
    }
}

/// Name, source, request weight, and the arrays the source itself uses as
/// receive scratch.
///
/// The three section-2.2 fragments cost 0.25 ms and the other four
/// 0.3 to 1.6 ms. Weighted alike, the mix's median request falls between
/// those groups and moves from one to the other with the host's mood; at
/// three to one it sits inside the fragments.
const CORPUS: [(&str, &str, usize, &[&str]); 7] = [
    (
        "fft3d",
        include_str!("../../xdp-programs/fft3d.xdp"),
        8,
        &[],
    ),
    (
        "jacobi2d",
        include_str!("../../xdp-programs/jacobi2d.xdp"),
        8,
        &[],
    ),
    (
        "migration",
        include_str!("../../xdp-programs/migration.xdp"),
        24,
        &[],
    ),
    (
        "pipeline",
        include_str!("../../xdp-programs/pipeline.xdp"),
        8,
        &[],
    ),
    (
        "remap",
        include_str!("../../xdp-programs/remap.xdp"),
        8,
        &[],
    ),
    (
        "seq_sum",
        include_str!("../../xdp-programs/seq_sum.xdp"),
        24,
        &[],
    ),
    (
        "simple",
        include_str!("../../xdp-programs/simple.xdp"),
        24,
        &["T"],
    ),
];
const MEMBOUND: &str = include_str!("../../xdp-programs/membound.xdp");

/// Generated programs per `serve-small` mix.
const GEN_PROGRAMS: u64 = 6;

/// Request weight of a generated program. They are there so that every
/// seed checks six programs nobody has seen; at 6 of 214 requests their
/// cost, which differs from seed to seed, does not move the mix's timing.
const GEN_WEIGHT: usize = 1;

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "serve-small" => serve_small(seed),
        "serve-cold" => serve_cold(),
        "exec-compute" => exec_compute(),
        "exec-comm" => exec_comm("exec-comm", PoolMachine::Sim),
        "exec-comm-tasks" => exec_comm("exec-comm-tasks", PoolMachine::Tasks),
        _ => return None,
    })
}

fn prog(name: impl Into<String>, source: impl Into<String>, opts: CompileOptions) -> Prog {
    Prog {
        name: name.into(),
        spec: RequestSpec::new(source).with_opts(opts),
        fixed: true,
        scratch: Vec::new(),
        weight: 1,
    }
}

/// The small corpus programs as `xdpd` serves them (`SeqMode::Auto`, the
/// interpreter, the simulator), plain and optimized, plus six programs
/// from the differential fuzzer's generator drawn from `--seed`.
fn serve_small(seed: u64) -> Workload {
    let auto = CompileOptions::default().with_seq(SeqMode::Auto);
    let mut progs = Vec::new();
    for (name, src, weight, scratch) in CORPUS {
        for (suffix, opts) in [("", auto.clone()), ("+opt", auto.clone().optimized())] {
            progs.push(Prog {
                scratch: scratch.iter().map(|s| s.to_string()).collect(),
                weight,
                ..prog(format!("{name}{suffix}"), src, opts)
            });
        }
    }
    for k in 0..GEN_PROGRAMS {
        let tp =
            xdp_verify::gen::executable_program(seed.wrapping_mul(GEN_PROGRAMS).wrapping_add(k));
        let scratch = tp.program.decls.iter().map(|d| d.name.clone());
        progs.push(Prog {
            name: format!("gen-{k}"),
            fixed: false,
            spec: RequestSpec::new(xdp_ir::pretty::program(&tp.program)),
            scratch: scratch.filter(|n| !tp.observable.contains(n)).collect(),
            weight: GEN_WEIGHT,
        });
    }
    Workload {
        name: "serve-small",
        machine: PoolMachine::Sim,
        cold: false,
        progs,
        open_rates: [600.0, 1200.0, 1800.0],
        trace_rounds: 100,
    }
}

/// A sequential program of `k` independent loop nests over BLOCK/CYCLIC
/// array pairs: every nest goes through owner-computes lowering, the
/// paper pipeline and the placement search, so compile cost grows with
/// `k` while each nest runs 16 trivial iterations.
pub fn knest_source(k: usize) -> String {
    let mut s = String::new();
    for j in 1..=k {
        s.push_str(&format!(
            "real A{j}[1:16] distribute (BLOCK) onto 4\nreal B{j}[1:16] distribute (CYCLIC) onto 4\n"
        ));
    }
    for j in 1..=k {
        s.push_str(&format!(
            "do i = 1, 16\n  A{j}[i] = A{j}[i] + B{j}[i]\nenddo\n"
        ));
    }
    s
}

pub const KNEST_RANGE: std::ops::RangeInclusive<usize> = 6..=10;

fn serve_cold() -> Workload {
    let opts = CompileOptions::default()
        .with_seq(SeqMode::Auto)
        .optimized()
        .placed()
        .with_backend(Backend::Vm);
    Workload {
        name: "serve-cold",
        machine: PoolMachine::Sim,
        cold: true,
        progs: KNEST_RANGE
            .map(|k| prog(format!("knest-{k}"), knest_source(k), opts.clone()))
            .collect(),
        open_rates: [35.0, 70.0, 105.0],
        trace_rounds: 40,
    }
}

/// Row sweeps on whole-row sections: each statement moves a vector, and
/// nothing crosses a processor boundary.
pub fn row_sweep_source(rows: i64, cols: i64, sweeps: i64) -> String {
    let (lo, hi) = ("mylb(U[*,*], 1)", "myub(U[*,*], 1)");
    let (c1, c2) = (cols - 1, cols - 2);
    format!(
        "real U[1:{rows},1:{cols}] distribute (BLOCK,*) onto 4\n\
         real V[1:{rows},1:{cols}] distribute (BLOCK,*) onto 4\n\
         do t = 1, {sweeps} {{\n\
           do r = {lo}, {hi} {{\n\
             V[r,2:{c1}] = (0.25 * (((U[r,1:{c2}] + U[r,3:{cols}]) + U[r,2:{c1}]) + V[r,2:{c1}]))\n\
           }}\n\
           do r = {lo}, {hi} {{\n\
             U[r,2:{c1}] = V[r,2:{c1}]\n\
           }}\n\
         }}\n"
    )
}

/// The same kind of work one element at a time: scalar subscripts, so the
/// step loop and the symbol table are hit once per element.
pub fn element_loop_source(n: i64, sweeps: i64) -> String {
    let (lo, hi) = ("mylb(A[*], 1)", "myub(A[*], 1)");
    format!(
        "real A[1:{n}] distribute (BLOCK) onto 4\n\
         real B[1:{n}] distribute (BLOCK) onto 4\n\
         do t = 1, {sweeps} {{\n\
           do i = {lo}, {hi} {{\n\
             A[i] = ((A[i] * 0.5) + B[i])\n\
           }}\n\
         }}\n"
    )
}

fn exec_compute() -> Workload {
    let opts = CompileOptions::default().with_backend(Backend::Vm);
    Workload {
        name: "exec-compute",
        machine: PoolMachine::Sim,
        cold: false,
        progs: vec![
            prog(
                "rowsweep-16x32",
                row_sweep_source(16, 32, 160),
                opts.clone(),
            ),
            prog("rowsweep-32x16", row_sweep_source(32, 16, 80), opts.clone()),
            prog("elemloop-64", element_loop_source(64, 160), opts.clone()),
        ],
        open_rates: [32.0, 65.0, 97.0],
        trace_rounds: 60,
    }
}

/// BLOCK -> CYCLIC and back: 2 x 16 x 15 = 480 messages.
const REDIST_ROUNDTRIP: &str = "real A[1:1024] distribute (BLOCK) onto 16\n\
     redistribute A (CYCLIC) onto 16\n\
     redistribute A (BLOCK) onto 16\n";

const TRANSPOSE: &str = "real A[1:64,1:64] distribute (*,BLOCK) onto 16\n\
     redistribute A (BLOCK,*) onto 16\n";

/// Boundary rows exchanged with both neighbours each sweep, then a local
/// row update: 30 messages per sweep at P = 16.
pub fn halo_source(sweeps: i64) -> String {
    let (lo, hi) = ("mylb(U[*,*], 1)", "myub(U[*,*], 1)");
    format!(
        "real U[1:64,1:32] distribute (BLOCK,*) onto 16\n\
         real GUP[0:15,1:32] distribute (BLOCK,*) onto 16\n\
         real GDN[0:15,1:32] distribute (BLOCK,*) onto 16\n\
         do t = 1, {sweeps} {{\n\
           mypid > 0 : {{ U[{lo},*] -> }}\n\
           mypid < 15 : {{ U[{hi},*] -> }}\n\
           mypid > 0 : {{ GUP[mypid,*] <- U[({lo} - 1),*] }}\n\
           mypid < 15 : {{ GDN[mypid,*] <- U[({hi} + 1),*] }}\n\
           (mypid > 0 && await(GUP[mypid,*])) : {{\n\
             U[{lo},2:31] = (0.5 * (U[{lo},2:31] + GUP[mypid,2:31]))\n\
           }}\n\
           (mypid < 15 && await(GDN[mypid,*])) : {{\n\
             U[{hi},2:31] = (0.5 * (U[{hi},2:31] + GDN[mypid,2:31]))\n\
           }}\n\
           barrier\n\
         }}\n"
    )
}

fn exec_comm(name: &'static str, machine: PoolMachine) -> Workload {
    let opts = CompileOptions::default().with_backend(Backend::Vm);
    Workload {
        name,
        machine,
        cold: false,
        progs: vec![
            prog("redist-roundtrip", REDIST_ROUNDTRIP, opts.clone()),
            prog("transpose-64", TRANSPOSE, opts.clone()),
            prog("membound", MEMBOUND, opts.clone()),
            prog("halo-16", halo_source(16), opts.clone()),
        ],
        open_rates: match machine {
            PoolMachine::Sim => [17.0, 35.0, 52.0],
            PoolMachine::Tasks => [14.0, 28.0, 43.0],
        },
        trace_rounds: 40,
    }
}
