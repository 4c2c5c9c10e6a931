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
                // A program that dies at run time must die identically.
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
/// A processor that owns nothing of `U` runs its owned-rows loop zero
/// times, and is refused, by name, when it asks `mylb` for a subscript:
/// the paper's `MAXINT` sentinel never becomes an index. One rule, in
/// `ProcEnv`, on both backends.
#[test]
fn an_empty_ownership_bound_is_an_empty_loop_and_never_a_subscript() {
    let rows = "real U[1:2,1:4] distribute (BLOCK,*) onto 4
                do r = mylb(U[*,*], 1), myub(U[*,*], 1) { U[r,1] = 2.0 }
";
    let refused = format!(
        "{rows}mypid == 2 : {{ U[mylb(U[*,*], 1),2] = 1.0 }}
"
    );
    let program = |src: &str| Arc::new(xdp_lang::parse_program(src).unwrap());
    for backend in [Backend::Interp, Backend::Vm] {
        let (ran, _) = fp(
            MachineKind::Sim,
            backend,
            &program(rows),
            MachineConfig::new(4),
        )
        .unwrap_or_else(|e| panic!("{backend}: {e}"));
        let u = &ran.memory["U"];
        assert!(
            u[0].ends_with("= F64(2.0)") && u[4].ends_with("= F64(2.0)"),
            "{backend}: {u:?}"
        );
        let err = fp(
            MachineKind::Sim,
            backend,
            &program(&refused),
            MachineConfig::new(4),
        );
        assert_eq!(
            err.map(|_| ()),
            Err("p2: mylb(U[*,*], 1): p2 owns no element of U".to_string()),
            "{backend}"
        );
    }
}

/// A runaway program, ROADMAP 2's `do i = 1, 10^12`, stops at the
/// statement budget with one error naming one processor, on both backends
/// and both machines: each processor counts its steps as they end.
#[test]
fn a_runaway_stops_at_one_count_on_every_machine() {
    let runaway = "real A[1:4] distribute (BLOCK) onto 2
                   do i = 1, 1000000000000
                     iown(A[1]) : { A[1] = A[1] + 1.0 }
                   enddo
";
    let runaway = Arc::new(xdp_lang::parse_program(runaway).unwrap());
    let cfg = MachineConfig {
        max_steps: 10_000,
        ..MachineConfig::new(2)
    };
    for kind in [MachineKind::Sim, MachineKind::Tasks] {
        for backend in [Backend::Interp, Backend::Vm] {
            assert_eq!(
                fp(kind, backend, &runaway, cfg.clone()).map(|_| ()),
                Err("p0: statement budget of 10000 steps exhausted".to_string()),
                "{kind:?} {backend}"
            );
        }
    }
}

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

/// One program through every path an element-wise assignment and a
/// kernel call take on the VM: `real`, `integer` and `complex` operands
/// under `+ - * /` (integer `/` truncating on store), literals of the other
/// type, scalar broadcast, unary `-`, nested expressions, a statement that
/// reads the section it writes, a value send of a gathered section and two
/// kernels.
const EVERY_ASSIGNMENT_PATH: &str = "real A[1:16] distribute (BLOCK) onto 2
integer I[1:16] distribute (BLOCK) onto 2
complex C[1:16] distribute (BLOCK) onto 2
real T[1:16] distribute (BLOCK) onto 2
iown(A[1:8]) : {
  A[2:8] = A[1:7] + A[2:8]
  A[1:8] ->
}
iown(T[9:16]) : {
  T[9:16] <- A[1:8]
  await(T[9:16]) : { A[9:16] = A[9:16] - T[9:16] * 0.5 }
}
do t = 1, 3 {
  do i = mylb(A[*], 1), myub(A[*], 1) {
    A[i] = A[i] + 1
    I[i] = (I[i] * 3 - 7 * t) / 2
    I[i] = I[i] - I[i] / 3 + I[i] * 2
    I[i] = I[i] + 0.75
    C[i] = C[i] * C[i] - C[i] / (C[i] + 1.0)
    C[i] = C[i] + A[i] - i
    A[i] = -(A[i] * 0.5) + (A[i] - 2.0) / 3.0 + I[i] / 4
  }
  A[mylb(A[*], 1):myub(A[*], 1)] = A[myub(A[*], 1)] * 2.0 - -A[mylb(A[*], 1):myub(A[*], 1)] + mypid
  I[mylb(I[*], 1):myub(I[*], 1)] = I[mylb(I[*], 1):myub(I[*], 1)] / 7 - I[myub(I[*], 1)] / 5 + 3
  scale(I[mylb(I[*], 1):myub(I[*], 1)], 3)
  add_into(A[mylb(A[*], 1):myub(A[*], 1)], I[mylb(I[*], 1):myub(I[*], 1)])
}
";

/// FNV-1a over a fingerprint's memory lines: a digest no toolchain
/// changes.
fn memory_digest(fp: &Fingerprint) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in fp.memory_all() {
        for b in line.bytes().chain([b'\n']) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The evaluator's every path agrees with the interpreter step for step
/// and on both machines, and the memory it leaves is the one pinned here.
#[test]
fn every_assignment_path_is_interpreter_identical_and_pinned() {
    let program = Arc::new(xdp_lang::parse_program(EVERY_ASSIGNMENT_PATH).unwrap());
    let delivered =
        step_pair::assert_step_identical("paths", &program, &xdp_apps::app_kernels(), 2);
    assert_eq!(delivered, 1, "one value send");
    let (interp, vm) = sim_pair(&program, 2, None);
    let (interp, vm) = (interp.unwrap(), vm.unwrap());
    assert_eq!(interp, vm, "simulator fingerprints");
    let cfg = MachineConfig::new(2).with_trace(TraceConfig::full());
    for backend in [Backend::Interp, Backend::Vm] {
        let (tasks, _) = fp(MachineKind::Tasks, backend, &program, cfg.clone()).unwrap();
        assert_eq!(tasks.memory, vm.memory, "{backend}: task machine memory");
        assert_eq!(
            tasks.movement, vm.movement,
            "{backend}: task machine movement"
        );
        assert_eq!(tasks.messages, 1, "{backend}: task machine messages");
    }
    assert_eq!(memory_digest(&vm), 13385254844337116386, "{:#?}", vm.memory);
}

/// An element-wise assignment to an empty section is a zero-element no-op
/// on both backends and both machines, whatever its operands' types, as
/// written and as owner-computes lowers it (an empty operand is read in
/// place, not sent): memory is left as an empty program leaves it.
#[test]
fn an_assignment_to_an_empty_section_does_nothing() {
    let decls = "real A[1:8] distribute (BLOCK) onto 2
integer I[1:8] distribute (BLOCK) onto 2
complex C[1:8] distribute (BLOCK) onto 2
";
    let empty = format!(
        "{decls}A[3:2] = A[3:2] + 1
A[3:2] = A[3:2] + 1.0
I[5:1] = -I[5:1] / 2 + A[3:2] * mypid
C[2:1] = C[2:1] * C[7:6] - I[4:3]
A[2:1] = A[1:0] - I[4:3] / C[8:7]
"
    );
    let program = |src: &str| Arc::new(xdp_lang::parse_program(src).unwrap());
    let lowered = compile(&empty, &CompileOptions::default().with_seq(SeqMode::Auto))
        .unwrap()
        .program;
    let (untouched, empty) = (program(decls), program(&empty));
    let cfg = MachineConfig::new(2);
    let (before, _) = fp(MachineKind::Sim, Backend::Interp, &untouched, cfg.clone()).unwrap();
    for (form, program) in [("as written", &empty), ("lowered", &lowered)] {
        step_pair::assert_step_identical(form, program, &xdp_apps::app_kernels(), 2);
        for kind in [MachineKind::Sim, MachineKind::Tasks] {
            for backend in [Backend::Interp, Backend::Vm] {
                let (after, _) = fp(kind, backend, program, cfg.clone())
                    .unwrap_or_else(|e| panic!("{form} {kind:?} {backend}: {e}"));
                assert_eq!(after.memory, before.memory, "{form} {kind:?} {backend}");
            }
        }
    }
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
