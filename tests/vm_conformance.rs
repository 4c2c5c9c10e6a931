//! VM conformance: the bytecode backend is observably indistinguishable
//! from the tree-walking interpreter.
//!
//! For every program in `xdp-programs/` — plain, optimized, and
//! auto-placed — the VM must produce the same [`xdp_verify::Fingerprint`]
//! as the interpreter: memory image, movement multiset, section-state
//! digest, and message count. On the virtual-time simulator the match is
//! exact (the VM claims step-for-step conformance, so even the state
//! digest agrees); on the wall-clock task machine the timing-free parts
//! must agree. The chaos tests additionally run the VM under a lossy fault
//! plan: faults must stay invisible to program semantics on the compiled
//! backend exactly as they are on the interpreter.

use std::path::PathBuf;
use std::sync::Arc;
use xdp::prelude::*;
use xdp_compiler::{compile, Backend, CompileOptions, SeqMode};
use xdp_verify::{machine, Fingerprint};

#[path = "../crates/vm/tests/step_pair/mod.rs"]
mod step_pair;

fn programs() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("xdp-programs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("xdp-programs/ exists")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "xdp"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no programs in {dir:?}");
    files
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&path).unwrap();
            (name, source)
        })
        .collect()
}

/// The three compile pipelines each program runs through. `Auto` handles
/// both notations (sequential sources lower through owner-computes).
fn variants() -> Vec<(&'static str, CompileOptions)> {
    let auto = CompileOptions::default().with_seq(SeqMode::Auto);
    vec![
        ("plain", auto.clone()),
        ("opt", auto.clone().optimized()),
        ("placed", auto.placed()),
    ]
}

/// The chaos plan at the acceptance bar: 10% drop plus duplicates,
/// reordering, and delays.
fn chaos(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::uniform(
        seed,
        LinkFault {
            drop: 0.10,
            dup: 0.10,
            reorder: 0.25,
            delay_p: 0.20,
            delay: 120.0,
        },
    );
    plan.rto = 500.0;
    plan
}

/// Fingerprint one run of `program` on the `kind` machine `cfg` describes
/// by the one protocol, or the runtime error it dies with — the VM must
/// reproduce interpreter errors byte-for-byte too.
fn fp(
    kind: MachineKind,
    backend: Backend,
    program: &Arc<Program>,
    cfg: MachineConfig,
) -> Result<(Fingerprint, ExecReport), String> {
    let kernels = xdp_apps::app_kernels();
    let mut exec = machine(kind, backend, program.clone(), kernels, cfg);
    Fingerprint::of_run(exec.as_mut(), &program.decls).map_err(|e| e.to_string())
}

type SimResult = Result<Fingerprint, String>;

fn sim_pair(
    program: &Arc<Program>,
    nprocs: usize,
    faults: Option<FaultPlan>,
) -> (SimResult, SimResult) {
    let mut cfg = MachineConfig::new(nprocs).with_trace(TraceConfig::full());
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    let on = |backend| fp(MachineKind::Sim, backend, program, cfg.clone()).map(|(fp, _)| fp);
    (on(Backend::Interp), on(Backend::Vm))
}

#[test]
fn vm_matches_interpreter_on_the_simulated_machine() {
    for (name, source) in programs() {
        for (variant, opts) in variants() {
            let compiled = compile(&source, &opts)
                .unwrap_or_else(|e| panic!("{name}+{variant}: compile failed: {e}"));
            let (interp, vm) = sim_pair(&compiled.program, compiled.nprocs, None);
            match (interp, vm) {
                (Ok(interp), Ok(vm)) => {
                    assert_eq!(interp.memory, vm.memory, "{name}+{variant}: memory");
                    assert_eq!(interp.movement, vm.movement, "{name}+{variant}: movement");
                    assert_eq!(interp.states, vm.states, "{name}+{variant}: states");
                    assert_eq!(interp.messages, vm.messages, "{name}+{variant}: messages");
                }
                // auto-place can emit a program that dies at runtime
                // (jacobi2d does today); the VM must die identically.
                (Err(interp), Err(vm)) => {
                    assert_eq!(interp, vm, "{name}+{variant}: error text");
                }
                (interp, vm) => panic!(
                    "{name}+{variant}: backends disagree on success:\n  interp: {interp:?}\n  vm: {vm:?}"
                ),
            }
        }
    }
}

/// Below the machine: the two processors, stepped side by side with
/// messages delivered by hand, agree on every `StepOut` and request id.
#[test]
fn vm_is_step_identical_to_the_interpreter() {
    let mut delivered = 0;
    for (name, source) in programs() {
        for (variant, opts) in variants() {
            let compiled = compile(&source, &opts)
                .unwrap_or_else(|e| panic!("{name}+{variant}: compile failed: {e}"));
            delivered += step_pair::assert_step_identical(
                &format!("{name}+{variant}"),
                &compiled.program,
                &xdp_apps::app_kernels(),
                compiled.nprocs,
            );
        }
    }
    assert!(delivered > 500, "the corpus communicates: {delivered}");
}

#[test]
fn vm_matches_interpreter_on_the_task_machine() {
    for (name, source) in programs() {
        for (variant, opts) in variants() {
            let compiled = compile(&source, &opts)
                .unwrap_or_else(|e| panic!("{name}+{variant}: compile failed: {e}"));
            let program = &compiled.program;
            // Which pid trips a runtime error first races on real
            // threads; only compare variants that run cleanly (the sim
            // test owns error conformance).
            let untraced = MachineConfig::new(compiled.nprocs);
            if fp(MachineKind::Sim, Backend::Interp, program, untraced).is_err() {
                continue;
            }
            let cfg = MachineConfig::new(compiled.nprocs).with_trace(TraceConfig::full());
            let on_tasks = |backend| {
                fp(MachineKind::Tasks, backend, program, cfg.clone())
                    .unwrap_or_else(|e| panic!("{name}+{variant}: {backend:?} run: {e}"))
                    .0
            };
            let (interp, vm) = (on_tasks(Backend::Interp), on_tasks(Backend::Vm));
            // Task schedules vary run to run, so the section-state
            // instants are not comparable — everything timing-free is.
            assert_eq!(interp.memory, vm.memory, "{name}+{variant}: memory");
            assert_eq!(interp.movement, vm.movement, "{name}+{variant}: movement");
            assert_eq!(interp.messages, vm.messages, "{name}+{variant}: messages");
        }
    }
}

#[test]
fn vm_chaos_runs_are_bit_identical_to_clean() {
    // The ack/retry delivery layer makes transport faults invisible to
    // program semantics — on the compiled backend too. Dedup must also
    // keep the delivered-message count.
    let mut injected_somewhere = false;
    for (name, source) in programs() {
        let opts = CompileOptions::default().with_seq(SeqMode::Auto);
        let compiled = compile(&source, &opts).unwrap();
        let cfg = MachineConfig::new(compiled.nprocs).with_trace(TraceConfig::full());
        let on_vm = |cfg| fp(MachineKind::Sim, Backend::Vm, &compiled.program, cfg);
        let (clean, _) = on_vm(cfg.clone()).unwrap_or_else(|e| panic!("{name}: clean vm run: {e}"));
        let (faulty, report) = on_vm(cfg.with_faults(chaos(11))).expect("vm chaos run");
        assert_eq!(clean.memory, faulty.memory, "{name}: chaos changed memory");
        assert_eq!(
            clean.messages, faulty.messages,
            "{name}: dedup must keep the delivered-message count"
        );
        injected_somewhere |= report.faults.any_injected();
    }
    assert!(injected_somewhere, "no faults injected; suite is vacuous");
}

#[test]
fn vm_matches_interpreter_under_fault_injection() {
    // Same seeded fault plan on both backends: injection is a pure
    // function of the message stream, and the streams are identical, so
    // even the faulted fingerprints must agree exactly.
    for (name, source) in programs() {
        let opts = CompileOptions::default().with_seq(SeqMode::Auto);
        let compiled = compile(&source, &opts).unwrap();
        let (interp, vm) = sim_pair(&compiled.program, compiled.nprocs, Some(chaos(23)));
        let interp = interp.unwrap_or_else(|e| panic!("{name}: interp chaos run: {e}"));
        let vm = vm.unwrap_or_else(|e| panic!("{name}: vm chaos run: {e}"));
        assert_eq!(interp.memory, vm.memory, "{name}: memory under faults");
        assert_eq!(
            interp.movement, vm.movement,
            "{name}: movement under faults"
        );
        assert_eq!(interp.states, vm.states, "{name}: states under faults");
        assert_eq!(
            interp.messages, vm.messages,
            "{name}: messages under faults"
        );
    }
}
