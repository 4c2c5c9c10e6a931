//! End-to-end integration: sequential source -> naive owner-computes
//! IL+XDP -> optimized IL+XDP -> simulated execution, verifying that every
//! optimization preserves results while reducing communication — the
//! central claim of the paper's methodology.

use std::sync::Arc;
use xdp::prelude::*;
use xdp_compiler::passes::{
    BindCommunication, ElideAccessibleChecks, ElideSameOwnerComm, LocalizeBounds, MigrateOwnership,
    VectorizeMessages,
};

/// do i = 1,n { A[i] = A[i] + B[i] } with chosen distributions.
fn source(n: i64, nprocs: usize, a_dist: DimDist, b_dist: DimDist) -> (SeqProgram, VarId, VarId) {
    let grid = ProcGrid::linear(nprocs);
    let mut s = SeqProgram::new();
    let a = s.declare(build::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![a_dist],
        grid.clone(),
    ));
    let b = s.declare(build::array(
        "B",
        ElemType::F64,
        vec![(1, n)],
        vec![b_dist],
        grid,
    ));
    let ai = build::sref(a, vec![build::at(build::iv("i"))]);
    let bi = build::sref(b, vec![build::at(build::iv("i"))]);
    s.body = vec![SeqStmt::DoLoop {
        var: "i".into(),
        lo: build::c(1),
        hi: build::c(n),
        body: vec![SeqStmt::Assign {
            target: ai.clone(),
            rhs: build::val(ai).add(build::val(bi)),
        }],
    }];
    (s, a, b)
}

fn execute(p: &Program, a: VarId, b: VarId, nprocs: usize) -> (Gathered, ExecReport) {
    let mut exec = SimExec::new(
        Arc::new(p.clone()),
        KernelRegistry::standard(),
        MachineConfig::new(nprocs),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    exec.init_exclusive(b, |idx| Value::F64(100.0 * idx[0] as f64));
    let report = exec.run().expect("run");
    (exec.gather(a), report)
}

fn check_result(g: &Gathered, n: i64) {
    for i in 1..=n {
        assert_eq!(
            g.get(&[i]).map(|v| v.as_f64()),
            Some(101.0 * i as f64),
            "A[{i}]"
        );
    }
}

#[test]
fn naive_translation_is_correct() {
    for (ad, bd) in [
        (DimDist::Block, DimDist::Block),
        (DimDist::Block, DimDist::Cyclic),
        (DimDist::Cyclic, DimDist::Block),
        (DimDist::Cyclic, DimDist::BlockCyclic(2)),
    ] {
        let (s, a, b) = source(16, 4, ad, bd);
        let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
        let (g, r) = execute(&naive, a, b, 4);
        check_result(&g, 16);
        assert_eq!(r.net.messages, 16, "naive sends one message per element");
    }
}

#[test]
fn same_owner_elision_removes_all_messages_when_aligned() {
    let (s, a, b) = source(16, 4, DimDist::Block, DimDist::Block);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    let r = ElideSameOwnerComm.run(&naive);
    assert!(r.changed);
    let (g, rep) = execute(&r.program, a, b, 4);
    check_result(&g, 16);
    assert_eq!(rep.net.messages, 0);
}

#[test]
fn vectorization_preserves_results_and_reduces_messages() {
    let (s, a, b) = source(32, 4, DimDist::Block, DimDist::Cyclic);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    let (g0, r0) = execute(&naive, a, b, 4);
    check_result(&g0, 32);

    let v = VectorizeMessages.run(&naive);
    assert!(v.changed);
    let (g1, r1) = execute(&v.program, a, b, 4);
    check_result(&g1, 32);
    assert!(
        r1.net.messages < r0.net.messages,
        "vectorized {} < naive {}",
        r1.net.messages,
        r0.net.messages
    );
    // Cyclic->block over 4 procs: each sender p has runs to each other q.
    assert!(r1.net.messages <= 12);
    assert!(r1.virtual_time < r0.virtual_time);
}

#[test]
fn full_pipeline_preserves_results_and_wins() {
    let (s, a, b) = source(32, 4, DimDist::Block, DimDist::Cyclic);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    let (opt, log) = PassManager::paper_pipeline().run(&naive);
    // At least vectorize + localize must have fired.
    let fired: Vec<&str> = log
        .iter()
        .filter(|(_, r)| r.changed)
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(fired.contains(&"vectorize-messages"), "{fired:?}");
    assert!(fired.contains(&"localize-bounds"), "{fired:?}");

    let (g0, r0) = execute(&naive, a, b, 4);
    let (g1, r1) = execute(&opt, a, b, 4);
    check_result(&g0, 32);
    check_result(&g1, 32);
    assert!(r1.net.messages < r0.net.messages);
    assert!(r1.virtual_time < r0.virtual_time);
    // Localization removed the per-iteration ownership queries: far fewer
    // symbol-table operations.
    let q0: u64 = r0.procs.iter().map(|p| p.symtab.queries).sum();
    let q1: u64 = r1.procs.iter().map(|p| p.symtab.queries).sum();
    assert!(q1 < q0, "queries {q1} < {q0}");
}

#[test]
fn migration_strategy_correct_and_amortizes() {
    let n = 16;
    let nprocs = 4;
    let (s, a, b) = source(n, nprocs, DimDist::Block, DimDist::Cyclic);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    let m = MigrateOwnership::default().run(&naive);
    assert!(m.changed);

    // Run the migrated loop TWICE (repeat the body) — second round must be
    // communication-free because ownership already moved.
    let mut twice = m.program.clone();
    let once_body = twice.body.clone();
    twice.body.extend(once_body);
    let mut exec = SimExec::new(
        Arc::new(twice),
        KernelRegistry::standard(),
        MachineConfig::new(nprocs),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    exec.init_exclusive(b, |idx| Value::F64(100.0 * idx[0] as f64));
    let rep = exec.run().expect("run");
    let g = exec.gather(a);
    for i in 1..=n {
        // Two additions of B[i].
        assert_eq!(
            g.get(&[i]).map(|v| v.as_f64()),
            Some(i as f64 + 200.0 * i as f64),
            "A[{i}]"
        );
        // Ownership of A[i] now follows B[i] (cyclic).
        assert_eq!(g.owner(&[i]), Some(((i - 1) % nprocs as i64) as usize));
    }
    // Only the first round moved anything, and only the elements whose
    // owners actually differed (block vs cyclic over 4: 4 of 16 coincide).
    let migrated = (1..=n)
        .filter(|i| (i - 1) / (n / nprocs as i64) != (i - 1) % nprocs as i64)
        .count() as u64;
    assert_eq!(rep.net.messages, migrated);
    assert_eq!(migrated, 12);
}

#[test]
fn binding_preserves_results_and_sheds_wire_bytes() {
    let (s, a, b) = source(16, 4, DimDist::Block, DimDist::Cyclic);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    let bound = BindCommunication.run(&naive);
    assert!(bound.changed);
    let (g0, r0) = execute(&naive, a, b, 4);
    let (g1, r1) = execute(&bound.program, a, b, 4);
    check_result(&g0, 16);
    check_result(&g1, 16);
    assert_eq!(r0.net.messages, r1.net.messages);
    assert!(
        r1.net.wire_bytes < r0.net.wire_bytes,
        "names elided from wire"
    );
    assert_eq!(r1.net.unbound_messages, 0);
    assert!(r1.virtual_time < r0.virtual_time);
}

#[test]
fn localization_after_elision_runs_guard_free() {
    let (s, a, b) = source(16, 4, DimDist::Block, DimDist::Block);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    let (opt, _) = PassManager::new()
        .add(ElideSameOwnerComm)
        .add(LocalizeBounds)
        .add(ElideAccessibleChecks)
        .run(&naive);
    assert_eq!(
        opt.stmt_census().guards,
        0,
        "{}",
        xdp_ir::pretty::program(&opt)
    );
    let (g, rep) = execute(&opt, a, b, 4);
    check_result(&g, 16);
    assert_eq!(rep.net.messages, 0);
    // No run-time symbol table queries remain in steady state (mylb/myub
    // evaluate once per loop entry).
    let q: u64 = rep.procs.iter().map(|p| p.symtab.queries).sum();
    assert!(q <= 8, "only the bounds queries remain, got {q}");
}

#[test]
fn threaded_backend_agrees_with_simulator_after_optimization() {
    let (s, a, b) = source(24, 3, DimDist::Block, DimDist::Cyclic);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    let (opt, _) = PassManager::paper_pipeline().run(&naive);

    let mut sim = SimExec::new(
        Arc::new(opt.clone()),
        KernelRegistry::standard(),
        MachineConfig::new(3),
    );
    sim.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    sim.init_exclusive(b, |idx| Value::F64(0.5 * idx[0] as f64));
    sim.run().unwrap();

    let mut thr = AsyncExec::new(
        Arc::new(opt),
        KernelRegistry::standard(),
        MachineConfig::new(3),
    );
    thr.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    thr.init_exclusive(b, |idx| Value::F64(0.5 * idx[0] as f64));
    thr.run().unwrap();

    let (gs, gt) = (sim.gather(a), thr.gather(a));
    for i in 1..=24 {
        assert_eq!(gs.get(&[i]), gt.get(&[i]), "i={i}");
    }
}

#[test]
fn every_generated_program_validates_cleanly() {
    // Frontend output, every optimizer output, and every app builder must
    // produce statically well-formed programs.
    let (s, _, _) = source(16, 4, DimDist::Block, DimDist::Cyclic);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    assert!(
        xdp_ir::validate(&naive).is_empty(),
        "{:?}",
        xdp_ir::validate(&naive)
    );
    let (opt, _) = PassManager::paper_pipeline().run(&naive);
    assert!(
        xdp_ir::validate(&opt).is_empty(),
        "{:?}",
        xdp_ir::validate(&opt)
    );
    let mig = MigrateOwnership::default().run(&naive).program;
    assert!(
        xdp_ir::validate(&mig).is_empty(),
        "{:?}",
        xdp_ir::validate(&mig)
    );

    for stage in xdp_apps::fft3d::Stage::all() {
        let (p, _) = xdp_apps::fft3d::build(xdp_apps::fft3d::Fft3dConfig::new(8, 4), stage);
        assert!(
            xdp_ir::validate(&p).is_empty(),
            "{}: {:?}",
            stage.label(),
            xdp_ir::validate(&p)
        );
    }
    let (p, _) = xdp_apps::farm::build_farm(xdp_apps::farm::FarmConfig {
        tasks: 8,
        nprocs: 4,
        scale: 1,
    });
    assert!(
        xdp_ir::validate(&p).is_empty(),
        "{:?}",
        xdp_ir::validate(&p)
    );
    let (p, _) = xdp_apps::halo2d::build_jacobi2d(8, 10, 4, 2);
    assert!(
        xdp_ir::validate(&p).is_empty(),
        "{:?}",
        xdp_ir::validate(&p)
    );
    let (p, _) = xdp_apps::matvec::build_matvec(8, 4);
    assert!(
        xdp_ir::validate(&p).is_empty(),
        "{:?}",
        xdp_ir::validate(&p)
    );
    let (p, _) = xdp_apps::reduce::build_reduce(16, 4);
    assert!(
        xdp_ir::validate(&p).is_empty(),
        "{:?}",
        xdp_ir::validate(&p)
    );
}

/// Smoke of `crates/compiler/tests/pipeline_props.rs`'s equivalence test:
/// `run_traced` renders one table per pass boundary, and what it records
/// must still describe each pass's own input and output.
#[test]
fn provenance_rows_describe_each_passes_own_input_and_output() {
    use std::collections::HashMap;
    let (s, ..) = source(16, 4, DimDist::Block, DimDist::Cyclic);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    let pipeline = || PassManager::paper_pipeline().add(xdp_compiler::passes::AutoPlace::new());
    let (traced, ct) = pipeline().run_traced(&naive);
    assert_eq!(traced, pipeline().run(&naive).0);

    let mut cur = naive;
    for (pass, row) in pipeline().into_passes().iter().zip(&ct.passes) {
        let out = pass.run(&cur).program;
        let before: HashMap<u32, String> = xdp_ir::pretty::stmt_table(&cur).into_iter().collect();
        let after: HashMap<u32, String> = xdp_ir::pretty::stmt_table(&out).into_iter().collect();
        assert_eq!(
            (row.nodes_before, row.nodes_after),
            (before.len(), after.len())
        );
        assert!(row.removed.iter().all(|(id, s)| before.get(id) == Some(s)));
        assert!(row.added.iter().all(|(id, s)| after.get(id) == Some(s)));
        assert_eq!(
            row.nodes_after as i64 - row.nodes_before as i64,
            row.added.len() as i64 - row.removed.len() as i64,
            "{}: the diff accounts for the node delta",
            row.name
        );
        if out == cur {
            assert!(
                row.removed.is_empty() && row.added.is_empty(),
                "{}",
                row.name
            );
        }
        cur = out;
    }
    assert!(ct.passes.iter().any(|row| !row.added.is_empty()));
}
