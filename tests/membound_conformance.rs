//! Executor high-water conformance for the redistribution planner's
//! peak-bytes dimension: for every `xdp-programs/` file that
//! redistributes an array, the *measured* redistribution high-water mark
//! (live staged bytes, tracked by the network layer via the salted
//! redistribution tags) must be positive and never exceed the planner's
//! *predicted* per-processor peak — on the virtual-time simulator and
//! the bytecode VM, budgeted and unbudgeted, and on the real threaded
//! machine behind `AsyncExec`, at 1, 2 and 4 workers.

use std::path::PathBuf;
use xdp::prelude::*;
use xdp_collectives::plan;
use xdp_compiler::{compile, Backend, CompileOptions, Compiled, SeqMode};
use xdp_ir::Stmt;
use xdp_verify::lockstep::Lockstep;
use xdp_verify::{machine, Fingerprint};

/// Every program in `xdp-programs/` whose compiled form redistributes.
fn redistributing_programs() -> Vec<(String, Compiled)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("xdp-programs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("xdp-programs/ exists")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "xdp"))
        .collect();
    files.sort();
    let out: Vec<(String, Compiled)> = files
        .into_iter()
        .filter_map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&path).unwrap();
            let opts = CompileOptions::default().with_seq(SeqMode::Auto);
            let compiled =
                compile(&source, &opts).unwrap_or_else(|e| panic!("{name} must compile: {e}"));
            let mut redistributes = false;
            compiled.program.visit(&mut |s| {
                redistributes |= matches!(s, Stmt::Redistribute { .. });
            });
            redistributes.then_some((name, compiled))
        })
        .collect();
    assert!(
        out.iter().any(|(n, _)| n == "membound.xdp"),
        "the transpose corpus program must be present"
    );
    out
}

/// The planner's peak bound for a whole program: re-derive each
/// redistribute's plan exactly as the runtime does (tracking the current
/// distribution across statements) and sum the peaks — a safe bound even
/// if the executor overlaps consecutive redistributions.
fn predicted_peak(p: &Program, cost: &CostModel, topo: &Topology) -> u64 {
    let mut cur: std::collections::HashMap<VarId, Distribution> = std::collections::HashMap::new();
    let mut total = 0u64;
    p.visit(&mut |s| {
        let Stmt::Redistribute { var, dist } = s else {
            return;
        };
        let decl = p.decl(*var);
        let src = cur
            .get(var)
            .or(decl.dist.as_ref())
            .cloned()
            .expect("redistributed array is distributed");
        cur.insert(*var, dist.clone());
        let pl = plan(
            *var,
            &decl.bounds,
            decl.elem.size_bytes(),
            &src,
            dist,
            cost,
            topo,
            true,
        );
        total += pl.peak_bytes;
    });
    total
}

/// Run `compiled` on the machine `cfg` describes, every exclusive array
/// initialized to its element ordinal.
fn run(
    name: &str,
    kind: MachineKind,
    backend: Backend,
    compiled: &Compiled,
    cfg: MachineConfig,
) -> ExecReport {
    let kernels = xdp_apps::app_kernels();
    let mut exec = machine(kind, backend, compiled.program.clone(), kernels, cfg);
    for (i, d) in compiled.program.decls.iter().enumerate() {
        if d.is_exclusive() {
            let full = Section::new(d.bounds.clone());
            exec.init_exclusive(VarId(i as u32), &move |idx| {
                Value::F64((full.ordinal_of(idx).unwrap_or(0) + 1) as f64)
            });
        }
    }
    exec.run_report()
        .unwrap_or_else(|e| panic!("{name} ({kind:?}, {backend:?}): {e}"))
}

/// The fully traced machine for `compiled`; `budgeted` plans under half
/// the unbounded peak, which forces a slimmer decomposition.
fn machine_cfg(compiled: &Compiled, budgeted: bool) -> MachineConfig {
    let mut cfg = MachineConfig::new(compiled.nprocs).with_trace(TraceConfig::full());
    if budgeted {
        let free = predicted_peak(&compiled.program, &cfg.cost, &cfg.topo);
        cfg.cost.mem_budget = Some((free / 2).max(1));
    }
    cfg
}

#[test]
fn simulated_high_water_stays_under_the_planned_peak() {
    for (name, compiled) in redistributing_programs() {
        for budgeted in [false, true] {
            let cfg = machine_cfg(&compiled, budgeted);
            let predicted = predicted_peak(&compiled.program, &cfg.cost, &cfg.topo);
            for backend in [Backend::Interp, Backend::Vm] {
                let report = run(&name, MachineKind::Sim, backend, &compiled, cfg.clone());
                let measured = report.net.redist_peak_bytes;
                assert!(
                    measured > 0,
                    "{name} ({backend:?}, budgeted={budgeted}): no redistribution bytes measured"
                );
                assert!(
                    measured <= predicted,
                    "{name} ({backend:?}, budgeted={budgeted}): measured high-water {measured} B \
                     exceeds planned peak {predicted} B"
                );
            }
        }
    }
}

/// Every processor's `CollectiveRound` instants — which strategy each
/// `redistribute` was planned with — in a machine-independent order.
fn planned_strategies(trace: &Trace) -> Vec<(u32, String, String)> {
    let mut out: Vec<(u32, String, String)> = trace
        .of_kind(TraceKind::CollectiveRound)
        .map(|e| {
            (
                e.pid,
                e.var.map_or("", |v| trace.var_name(v)).to_string(),
                e.detail.map_or("", |d| trace.label(d)).to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn threaded_high_water_stays_under_the_planned_peak() {
    for (name, compiled) in redistributing_programs() {
        for budgeted in [false, true] {
            // AsyncExec runs the real threaded network, whose staging
            // figure charges both endpoints from send to claim, as the
            // planner's footprint does: the same inequality must hold —
            // against the *budgeted* prediction when the machine was given
            // a budget — however the workers interleave.
            let cfg = machine_cfg(&compiled, budgeted);
            let predicted = predicted_peak(&compiled.program, &cfg.cost, &cfg.topo);
            let on = |kind, workers| {
                let cfg = MachineConfig {
                    workers,
                    ..cfg.clone()
                };
                run(&name, kind, Backend::Interp, &compiled, cfg)
            };
            for workers in [1, 2, 4] {
                for _ in 0..5 {
                    let measured = on(MachineKind::Tasks, workers).net.redist_peak_bytes;
                    let at = format!("{name} (async, {workers} workers, budgeted={budgeted})");
                    assert!(measured > 0, "{at}: no redistribution bytes measured");
                    assert!(
                        measured <= predicted,
                        "{at}: measured high-water {measured} B exceeds planned peak {predicted} B"
                    );
                }
            }
            // The task machine must plan what the simulator plans under
            // the same budget: same strategy, same piece count, per pid.
            assert_eq!(
                planned_strategies(&on(MachineKind::Tasks, 0).trace),
                planned_strategies(&on(MachineKind::Sim, 0).trace),
                "{name} (budgeted={budgeted}): async and sim planned differently"
            );
        }
    }
}

/// A budget reaches every machine or none: `membound.xdp` planned under
/// 5000 B is the same 280-message run on both processors, on the task
/// machine (timing-free components) and on the reference executor — which
/// used to plan with a hard-coded unbudgeted cost model and send 133.
#[test]
fn a_budgeted_run_is_the_same_run_on_every_machine_and_the_reference() {
    let source = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("xdp-programs/membound.xdp"),
    )
    .unwrap();
    let opts = CompileOptions::default().with_mem_budget(5000);
    let compiled = compile(&source, &opts).expect("membound.xdp compiles");
    let mut cfg = MachineConfig::new(compiled.nprocs).with_trace(TraceConfig::full());
    cfg.cost.mem_budget = compiled.mem_budget;
    let decls = &compiled.program.decls;
    let fingerprint = |mut exec: Box<dyn Machine>| {
        Fingerprint::of_run(exec.as_mut(), decls)
            .expect("membound.xdp runs")
            .0
    };
    let built = |kind, backend| {
        let kernels = xdp_apps::app_kernels();
        fingerprint(machine(
            kind,
            backend,
            compiled.program.clone(),
            kernels,
            cfg.clone(),
        ))
    };
    let base = built(MachineKind::Sim, Backend::Interp);
    assert_eq!(base.messages, 280);
    assert_eq!(base, built(MachineKind::Sim, Backend::Vm), "sim vm");
    let reference = Lockstep::new(
        compiled.program.clone(),
        xdp_apps::app_kernels(),
        cfg.clone(),
    );
    assert_eq!(base, fingerprint(Box::new(reference)), "lockstep");
    let tasks = built(MachineKind::Tasks, Backend::Vm);
    assert_eq!(base.memory, tasks.memory, "tasks vm: memory");
    assert_eq!(base.movement, tasks.movement, "tasks vm: movement");
    assert_eq!(base.messages, tasks.messages, "tasks vm: messages");
}
