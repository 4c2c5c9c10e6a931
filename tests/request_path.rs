//! What a request pays outside the step loop, checked from the root
//! package (tier-1 runs only these): every machine plans a redistribution
//! once, not once per processor; array init and gather walk owned
//! segments and agree with the per-index definitions they replaced; the
//! movement multiset is the same on every machine under any cost model;
//! a request whose program divides by zero, or that asks for a machine of
//! zero processors, is an error the pool survives; requests racing for
//! one cold program compile it once, or fail together if it cannot be;
//! the one machine builder builds, cell for cell, what the constructors
//! it replaced built.

use std::collections::BTreeMap;
use std::sync::Arc;
use xdp::prelude::*;
use xdp_vm::{VmProc, VmProgram};

const P: usize = 16;

/// `p` compiled once and loaded as one processor per pid of `cfg`'s
/// machine: what `Backend::Vm` hands a machine's `from_procs`.
fn vm_procs(p: &Arc<Program>, kernels: &KernelRegistry, cfg: &MachineConfig) -> Vec<VmProc> {
    let prog = VmProgram::compile(p.clone(), kernels);
    (0..cfg.nprocs)
        .map(|pid| VmProc::new(prog.clone(), pid, cfg.nprocs, cfg.checked))
        .collect()
}

/// BLOCK -> CYCLIC -> BLOCK at P = 16: two distinct redistributions.
fn round_trip() -> Arc<Program> {
    let src = "real A[1:256] distribute (BLOCK) onto 16\n\
               redistribute A (CYCLIC) onto 16\n\
               redistribute A (BLOCK) onto 16\n";
    Arc::new(xdp_lang::parse_program(src).expect("parses"))
}

fn seed(idx: &[i64]) -> Value {
    Value::F64(3.0 * idx[0] as f64)
}

/// Run on one machine and return (planner runs, final A).
macro_rules! planned {
    ($exec:expr) => {{
        let mut exec = $exec;
        assert_eq!(
            exec.plan_ctx().plans_computed(),
            0,
            "a new machine starts empty"
        );
        exec.init_exclusive(VarId(0), seed);
        exec.run().expect("runs");
        (exec.plan_ctx().plans_computed(), exec.gather(VarId(0)))
    }};
}

#[test]
fn every_machine_plans_each_redistribution_once() {
    let p = round_trip();
    let k = KernelRegistry::standard;
    let cfg = MachineConfig::new(P);
    // Each entry builds a fresh machine from the same program; a second
    // machine of a kind starting at zero shows the memo is per machine.
    let runs = [
        (
            "sim",
            planned!(SimExec::new(p.clone(), k(), MachineConfig::new(P))),
        ),
        (
            "sim again",
            planned!(SimExec::new(p.clone(), k(), MachineConfig::new(P))),
        ),
        (
            "sim/vm",
            planned!(SimExec::from_procs(vm_procs(&p, &k(), &cfg), cfg.clone())),
        ),
        (
            "tasks",
            planned!(AsyncExec::new(p.clone(), k(), MachineConfig::new(P))),
        ),
        (
            "tasks/vm",
            planned!(AsyncExec::from_procs(vm_procs(&p, &k(), &cfg), cfg.clone())),
        ),
    ];
    for (machine, (planned, a)) in &runs {
        assert_eq!(
            *planned, 2,
            "{machine}: one planner run per redistribute, not per pid"
        );
        assert_eq!(
            a, &runs[0].1 .1,
            "{machine}: same final array as the simulator"
        );
    }
    // The round trip returns every element to its BLOCK owner, intact.
    let a = &runs[0].1 .1;
    for i in 1..=256i64 {
        assert_eq!(a.get(&[i]), Some(seed(&[i])));
        assert_eq!(a.owner(&[i]), Some(((i - 1) / 16) as usize));
    }
}

/// Smoke of `crates/core/tests/trace_conformance.rs`: movement events are
/// recorded whatever their extent, so a cost model with no per-message
/// CPU overhead drops none of the simulator's.
#[test]
fn movement_multiset_is_the_same_on_every_machine_and_cost_model() {
    use xdp_verify::lockstep::Lockstep;
    fn movement(mut exec: impl Machine) -> Movement {
        exec.run_report().expect("runs").trace.movement_keys()
    }
    let source = std::fs::read_to_string("xdp-programs/simple.xdp").expect("corpus program");
    let p = Arc::new(xdp_lang::parse_program(&source).expect("parses"));
    let k = KernelRegistry::standard;
    let traced = TraceConfig::full();

    let cfg = MachineConfig::new(4).with_trace(traced);
    let want = movement(Lockstep::new(p.clone(), k(), cfg.clone()));
    assert_eq!(want.len(), 64, "16 transfers x 4 movement events");
    assert_eq!(movement(AsyncExec::new(p.clone(), k(), cfg)), want);
    for cost in [CostModel::default_1993(), CostModel::zero_comm()] {
        let cfg = MachineConfig::new(4).with_trace(traced).with_cost(cost);
        assert_eq!(movement(SimExec::new(p.clone(), k(), cfg)), want);
    }
}

/// `xdp_verify::machine` is the only place a machine is built from a
/// backend and a machine kind. Each cell of that matrix must be the
/// machine its concrete constructor builds — under a fault plan and a
/// memory budget above all, the two settings that have each been dropped
/// on one arm before (all components on the simulator, the timing-free
/// ones on the task machine).
#[test]
fn the_builder_builds_what_the_constructors_it_replaced_built() {
    use xdp_compiler::{compile, Backend, CompileOptions};
    use xdp_verify::{machine, Fingerprint};
    let k = xdp_apps::app_kernels;
    let plan = FaultPlan::parse("drop=0.1,dup=0.05,seed=9").expect("fault spec parses");
    let mut budget_mattered = false;
    for name in ["simple", "remap", "membound", "fft3d"] {
        let source = std::fs::read_to_string(format!("xdp-programs/{name}.xdp")).expect(name);
        let compiled = compile(&source, &CompileOptions::default()).expect(name);
        let p = &compiled.program;
        let mut unbudgeted_messages = None;
        for (faults, mem_budget) in [
            (false, None),
            (true, None),
            (false, Some(5000)),
            (true, Some(5000)),
        ] {
            let mut cfg = MachineConfig::new(compiled.nprocs).with_trace(TraceConfig::full());
            cfg.cost.mem_budget = mem_budget;
            if faults {
                cfg = cfg.with_faults(plan.clone());
            }
            let cells: [(MachineKind, Backend, Box<dyn Machine>); 4] = [
                (
                    MachineKind::Sim,
                    Backend::Interp,
                    Box::new(SimExec::new(p.clone(), k(), cfg.clone())),
                ),
                (
                    MachineKind::Sim,
                    Backend::Vm,
                    Box::new(SimExec::from_procs(vm_procs(p, &k(), &cfg), cfg.clone())),
                ),
                (
                    MachineKind::Tasks,
                    Backend::Interp,
                    Box::new(AsyncExec::new(p.clone(), k(), cfg.clone())),
                ),
                (
                    MachineKind::Tasks,
                    Backend::Vm,
                    Box::new(AsyncExec::from_procs(vm_procs(p, &k(), &cfg), cfg.clone())),
                ),
            ];
            for (kind, backend, mut concrete) in cells {
                let cell = format!(
                    "{name} on {kind:?}/{backend:?}, faults={faults}, budget={mem_budget:?}"
                );
                let mut built = machine(kind, backend, p.clone(), k(), cfg.clone());
                let (want, want_report) =
                    Fingerprint::of_run(concrete.as_mut(), &p.decls).expect(&cell);
                let (got, got_report) = Fingerprint::of_run(built.as_mut(), &p.decls).expect(&cell);
                assert_eq!(got.memory, want.memory, "{cell}: memory");
                assert_eq!(got.messages, want.messages, "{cell}: messages");
                assert_eq!(
                    got_report.faults.any_injected(),
                    faults && want.messages > 0,
                    "{cell}: the fault plan reached the network"
                );
                if kind == MachineKind::Sim {
                    assert_eq!(got, want, "{cell}: fingerprint");
                    assert_eq!(got_report.faults, want_report.faults, "{cell}: faults");
                    assert_eq!(
                        got_report.virtual_time.to_bits(),
                        want_report.virtual_time.to_bits(),
                        "{cell}: virtual time"
                    );
                } else if !faults {
                    assert_eq!(got.movement, want.movement, "{cell}: movement");
                }
                let free = *unbudgeted_messages.get_or_insert(got.messages);
                budget_mattered |= got.messages != free;
            }
        }
    }
    assert!(budget_mattered, "no program replanned under the budget");
}

#[test]
fn init_and_gather_agree_with_the_per_index_definitions() {
    // (CYCLIC(3), BLOCK) on a 2x2 grid with refined (2,3) segments.
    let mut p = Program::new();
    let a = p.declare(build::array_seg(
        "A",
        ElemType::F64,
        vec![(0, 10), (1, 9)],
        vec![DimDist::BlockCyclic(3), DimDist::Block],
        ProcGrid::grid2(2, 2),
        vec![2, 3],
    ));
    let decl = p.decl(a).clone();
    let full = Section::new(decl.bounds.clone());
    let f = |idx: &[i64]| Value::F64((idx[0] * 16 + idx[1]) as f64);

    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(4),
    );
    exec.init_exclusive(a, f);
    let g = exec.gather(a);

    // Init: what the old loop (offer every index to every table) left.
    let dist = decl.dist.as_ref().unwrap();
    for pid in 0..4 {
        let mut by_index = RtSymbolTable::build(pid, std::slice::from_ref(&decl));
        for idx in full.iter() {
            let _ = by_index.write(a, &idx, f(&idx));
        }
        for idx in full.iter() {
            let here = dist.owner_of(&decl.bounds, &idx) == pid;
            assert_eq!(by_index.read(a, &idx), here.then(|| f(&idx)));
            assert_eq!(g.owner(&idx) == Some(pid), here, "{idx:?} on p{pid}");
        }
    }
    // Gather: the ordered map the dense image replaced.
    let oracle: BTreeMap<Vec<i64>, (usize, Value)> = full
        .iter()
        .map(|idx| {
            let v = (dist.owner_of(&decl.bounds, &idx), f(&idx));
            (idx, v)
        })
        .collect();
    let mut seen = Vec::new();
    g.for_each(|idx, pid, val| seen.push((idx.to_vec(), (pid, val))));
    assert_eq!(seen, oracle.into_iter().collect::<Vec<_>>());
}

/// `8/0` in a loop bound used to panic — inside `compile`, under the cache
/// mutex, when the request asked for the optimizing passes.
#[test]
fn pool_survives_a_request_that_divides_by_zero() {
    use xdp_compiler::{Backend, CompileOptions};
    use xdp_serve::{RequestSpec, ServeError, ServePool};
    let source = |bound: &str| {
        format!(
            "real A[1:8] distribute (BLOCK) onto 2\n\
             do i = 1, {bound}\n  iown(A[i]) : {{ A[i] = A[i] + 1.0 }}\nenddo\n"
        )
    };
    for backend in [Backend::Interp, Backend::Vm] {
        let plain = CompileOptions::default().with_backend(backend);
        for opts in [plain.clone(), plain.optimized()] {
            let pool = ServePool::new(1, 4);
            let bad = RequestSpec::new(source("8/0")).with_opts(opts.clone());
            match pool.run_one(&bad) {
                Err(ServeError::Run(e)) => assert_eq!(e, "division by zero", "{backend:?}"),
                other => panic!("{backend:?}: {other:?}"),
            }
            let good = RequestSpec::new(source("8")).with_opts(opts);
            pool.run_one(&good)
                .unwrap_or_else(|e| panic!("{backend:?}: the pool is poisoned: {e}"));
        }
    }
}

/// `with_procs(0)` used to reach `gather`, which indexes processor 0: the
/// panic killed the caller's worker.
#[test]
fn pool_survives_a_request_for_zero_processors() {
    use xdp_compiler::{CompileError, CompileOptions};
    use xdp_serve::{PoolMachine, RequestSpec, ServeError, ServePool};
    let source = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/xdp-programs/simple.xdp"
    ))
    .unwrap();
    for machine in [PoolMachine::Sim, PoolMachine::Tasks] {
        let pool = ServePool::new(1, 4).with_machine(machine);
        let zero = CompileOptions::default().with_procs(0);
        match pool.run_one(&RequestSpec::new(source.clone()).with_opts(zero)) {
            Err(ServeError::Compile(CompileError::ZeroProcs)) => {}
            other => panic!("{machine:?}: {other:?}"),
        }
        pool.run_one(&RequestSpec::new(source.clone()))
            .unwrap_or_else(|e| panic!("{machine:?}: the pool is poisoned: {e}"));
    }
}

/// Smoke of `crates/serve/tests/pool_conformance.rs`'s concurrency half:
/// the compile runs outside the cache lock, once per distinct spec.
#[test]
fn racing_requests_share_one_compile_or_one_error() {
    use xdp_compiler::{CompileOptions, SeqMode};
    use xdp_serve::{RequestSpec, ServePool};
    let race = |pool: &ServePool, spec: &RequestSpec| {
        let gate = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        pool.run_one(spec)
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|t| t.join().unwrap())
                .collect::<Vec<_>>()
        })
    };
    let source = std::fs::read_to_string("xdp-programs/seq_sum.xdp").expect("corpus program");
    let opts = CompileOptions::default()
        .with_seq(SeqMode::Auto)
        .optimized()
        .placed();
    let good = RequestSpec::new(source).with_opts(opts);
    let pool = ServePool::new(4, 4);
    let outcomes: Vec<_> = race(&pool, &good).into_iter().map(|r| r.unwrap()).collect();
    let stats = pool.cache_stats();
    assert_eq!((stats.compiles, stats.hits + stats.misses), (1, 4));
    assert_eq!(outcomes.iter().filter(|o| o.compile_us > 0).count(), 1);
    assert!(outcomes
        .iter()
        .all(|o| o.fingerprint == outcomes[0].fingerprint));

    let bad = good.clone().with_faults("drop=banana");
    for result in race(&pool, &bad) {
        let e = result.unwrap_err().to_string();
        assert!(e.starts_with("bad fault spec"), "{e}");
    }
    assert_eq!(
        pool.cache_stats().compiles,
        1,
        "a failed compile caches nothing"
    );
    assert!(pool.run_one(&good).unwrap().cache_hit);
}
