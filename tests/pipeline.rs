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
fn source(n: i64, nprocs: usize, a_dist: DimDist, b_dist: DimDist) -> (Program, VarId, VarId) {
    let grid = ProcGrid::linear(nprocs);
    let mut s = Program::new();
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
    s.body = vec![build::do_loop(
        "i",
        build::c(1),
        build::c(n),
        vec![build::assign(
            ai.clone(),
            build::val(ai).add(build::val(bi)),
        )],
    )];
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
        let naive = lower_owner_computes(&s).unwrap();
        let (g, r) = execute(&naive, a, b, 4);
        check_result(&g, 16);
        assert_eq!(r.net.messages, 16, "naive sends one message per element");
    }
}

#[test]
fn same_owner_elision_removes_all_messages_when_aligned() {
    let (s, a, b) = source(16, 4, DimDist::Block, DimDist::Block);
    let naive = lower_owner_computes(&s).unwrap();
    let r = ElideSameOwnerComm.run(&naive);
    assert!(r.changed);
    let (g, rep) = execute(&r.program, a, b, 4);
    check_result(&g, 16);
    assert_eq!(rep.net.messages, 0);
}

#[test]
fn vectorization_preserves_results_and_reduces_messages() {
    let (s, a, b) = source(32, 4, DimDist::Block, DimDist::Cyclic);
    let naive = lower_owner_computes(&s).unwrap();
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
    let naive = lower_owner_computes(&s).unwrap();
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
    let naive = lower_owner_computes(&s).unwrap();
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
    let naive = lower_owner_computes(&s).unwrap();
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
    let naive = lower_owner_computes(&s).unwrap();
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
    let naive = lower_owner_computes(&s).unwrap();
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
    let naive = lower_owner_computes(&s).unwrap();
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
    let naive = lower_owner_computes(&s).unwrap();
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

// ---------------------------------------------------------------------
// Ownership decided on sets: no cliff, and a pass that declines says why.
// ---------------------------------------------------------------------

/// `simple.xdp` at size `n`.
fn simple_source(n: i64) -> String {
    format!(
        "real A[1:{n}] distribute (BLOCK) onto 4\nreal B[1:{n}] distribute (CYCLIC) onto 4\n\
         real T[0:3] distribute (BLOCK) onto 4 segment (1)\n\
         do i = 1, {n}\n  iown(B[i]) : {{ B[i] -> }}\n  iown(A[i]) : {{\n    T[mypid] <- B[i]\n    \
         await(T[mypid]) : {{ A[i] = A[i] + T[mypid] }}\n  }}\nenddo\n"
    )
}

/// The notes of one pass over `src`, and whether it changed the program.
fn notes_of(pass: impl Pass + 'static, src: &str) -> (bool, Vec<String>) {
    let p = xdp_lang::parse_program(src).unwrap();
    let r = pass.run(&p);
    (r.changed, r.notes)
}

#[test]
fn a_million_iterations_optimize_like_sixteen() {
    let optimize = |n: i64| {
        let p = xdp_lang::parse_program(&simple_source(n)).unwrap();
        let (opt, log) = PassManager::paper_pipeline().run(&p);
        let changed: Vec<String> = log
            .into_iter()
            .filter(|(_, r)| r.changed)
            .map(|(name, _)| name)
            .collect();
        (opt, changed)
    };
    let (small, small_changed) = optimize(16);
    let (large, large_changed) = optimize(1 << 20);
    let three = [
        "vectorize-messages",
        "localize-bounds",
        "bind-communication",
    ];
    assert_eq!(small_changed, three);
    assert_eq!(large_changed, three);
    // The same statements: twelve section sends, each bound to its
    // receiver, each a stride-4 section of the cyclic operand.
    assert_eq!(large.stmt_census(), small.stmt_census());
    let mut sends = 0;
    large.visit(&mut |s| {
        if let Stmt::Send { sec, dest, .. } = s {
            sends += 1;
            assert!(matches!(dest, xdp_ir::DestSet::Pids(pids) if pids.len() == 1));
            let xdp_ir::Subscript::Range(t) = &sec.subs[0] else {
                panic!("a point send survived");
            };
            assert_eq!(t.st.as_const(), Some(4));
        }
    });
    assert_eq!(sends, 12);

    // And a thousand-iteration pair fuses as a sixteen-iteration one does.
    let pair = |n: i64| {
        format!(
            "real A[1:{n}] distribute (BLOCK) onto 4\nreal B[1:{n}] distribute (BLOCK) onto 4\n\
             do i = 1, {n} {{ iown(A[i]) : {{ A[i] = A[i] + 1.0 }} }}\n\
             do i = 1, {n} {{ iown(B[i]) : {{ B[i] = B[i] + A[i] }} }}\n"
        )
    };
    use xdp_compiler::passes::FuseLoops;
    for n in [16, 1024, 1 << 16] {
        assert!(notes_of(FuseLoops, &pair(n)).0, "the pair at n = {n}");
    }
}

#[test]
fn a_pass_that_declines_says_why() {
    use xdp_compiler::passes::{FuseLoops, SinkAwait};
    // A subscript that is not `i + c` (the old probe at i = 0 and 1 took
    // `i*i` for `i + 0`).
    let square = simple_source(4).replace("B[i]", "B[i * i]");
    for (pass, changed, notes) in [
        ("vectorize-messages", notes_of(VectorizeMessages, &square)),
        (
            "elide-same-owner-comm",
            notes_of(ElideSameOwnerComm, &square),
        ),
    ]
    .map(|(pass, (changed, notes))| (pass, changed, notes))
    {
        let want = format!("{pass}: declined loop i — subscript B[(i * i)] is not i + c");
        assert_eq!((changed, notes), (false, vec![want]));
    }
    // A loop whose bounds only the run knows.
    let symbolic = simple_source(16).replace("do i = 1, 16", "do i = 1, n");
    let (changed, notes) = notes_of(BindCommunication, &symbolic);
    assert!(!changed);
    assert_eq!(
        notes,
        ["bind-communication: declined loop i — its bounds are not compile-time constants"]
    );
    // Fusion that would read ahead of the first loop's writes.
    let ahead = "real A[1:16] distribute (*) onto 1\nreal B[1:16] distribute (*) onto 1\n\
                 do i = 1, 15 { A[i] = A[i] + 1.0 }\ndo k = 1, 15 { B[k] = B[k] + A[k + 1] }\n";
    assert_eq!(
        notes_of(FuseLoops, ahead).1,
        [
            "fuse-loops: declined loops at 0,1 — A[(i + 1)] read in the second is written in the \
          first 1 iteration later"
        ]
    );
    // An await narrower than what the nest touches.
    let (label, src) = FUSE_AND_SINK[10];
    assert_eq!(label, "loop4-too-narrow");
    let (changed, notes) = notes_of(SinkAwait, src);
    assert!(!changed);
    assert_eq!(notes.len(), 1, "{notes:?}");
    assert!(notes[0].starts_with("sink-await: declined await(A[1,(mypid + 1),*]) — "));
    // No note means nothing matched.
    let plain = "real A[1:8] distribute (BLOCK) onto 2\nA[1] = 2.0\n";
    for pass in xdp_compiler::passes::registry() {
        if pass.name() != "auto-place" {
            let r = pass.run(&xdp_lang::parse_program(plain).unwrap());
            assert_eq!((r.changed, r.notes), (false, vec![]), "{}", pass.name());
        }
    }
}

/// Tier-1's view of `xdp_ir::analysis`'s own property tests: the
/// `OwnerMap` of `A[i + c]` over a window is what walking the window and
/// asking `owner_of` gives, and a map is refused exactly where the walk
/// leaves the bounds.
#[test]
fn owner_maps_are_the_point_walk() {
    use xdp_ir::analysis::Owners;
    let dists = [
        DimDist::Star,
        DimDist::Block,
        DimDist::Cyclic,
        DimDist::BlockCyclic(2),
        DimDist::BlockCyclic(3),
    ];
    for dd in dists {
        for nprocs in [1, 3, 4, 6] {
            for (n, c, lo, hi) in [
                (16, 0, 1, 16),
                (17, 2, 1, 15),
                (17, -1, 2, 17),
                (60, 2, 5, 40),
                (16, 2, 1, 16),
                (16, 0, 9, 8),
                (4096, 3, 1, 4093),
            ] {
                let mut p = Program::new();
                let grid = ProcGrid::linear(nprocs);
                let a = p.declare(build::array(
                    "A",
                    ElemType::F64,
                    vec![(1, n)],
                    vec![dd],
                    grid,
                ));
                let r = build::sref(a, vec![build::at(build::iv("i").add(build::c(c)))]);
                let decl = p.decl(a);
                let dist = decl.dist.as_ref().unwrap();
                let mut walked = vec![Vec::new(); nprocs];
                let inside = (lo..=hi).all(|i| (1..=n).contains(&(i + c)));
                for i in (lo..=hi).filter(|_| inside) {
                    walked[dist.owner_of(&decl.bounds, &[i + c])].push(i);
                }
                let map = Owners::new(&p).map(&r, "i", Triplet::range(lo, hi));
                assert_eq!(map.is_ok(), inside, "{dd} onto {nprocs}, n = {n}, c = {c}");
                if let Ok(map) = map {
                    let members = |runs: &Vec<Triplet>| -> Vec<i64> {
                        runs.iter().flat_map(|t| t.iter()).collect()
                    };
                    let got: Vec<Vec<i64>> = map.runs.iter().map(members).collect();
                    assert_eq!(got, walked, "{dd} onto {nprocs}, n = {n}, c = {c}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pinned pass behaviour.
// ---------------------------------------------------------------------

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a pass run produced, as text: the program, and the notes of every
/// pass. Notes of the form `<pass>: declined ...` say why a matched loop
/// was left alone; they are pinned by their own tests, not here.
#[derive(Default)]
pub struct Outcome {
    pub program: String,
    pub notes: String,
}

impl Outcome {
    fn push(&mut self, program: &Program, notes: impl IntoIterator<Item = String>) {
        self.program += &xdp_ir::pretty::program(program);
        for note in notes {
            if !note.contains(": declined ") {
                self.notes += &note;
                self.notes.push('\n');
            }
        }
    }

    fn run(&mut self, mgr: PassManager, p: &Program) {
        let (out, log) = mgr.run(p);
        self.push(&out, log.into_iter().flat_map(|(_, r)| r.notes));
    }

    fn row(&self, label: &str) -> String {
        format!(
            "{label} {:016x} {:016x}",
            fnv1a(&self.program),
            fnv1a(&self.notes)
        )
    }
}

/// `do i = lo, hi { A[i] = A[i] + B[i + c] }`, lowered owner-computes.
fn shifted_loop(
    n: i64,
    nprocs: usize,
    ad: DimDist,
    bd: DimDist,
    c: i64,
    lo: i64,
    hi: i64,
) -> Program {
    let grid = ProcGrid::linear(nprocs);
    let mut s = Program::new();
    let a = s.declare(build::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![ad],
        grid.clone(),
    ));
    let b = s.declare(build::array(
        "B",
        ElemType::F64,
        vec![(1, n)],
        vec![bd],
        grid,
    ));
    let ai = build::sref(a, vec![build::at(build::iv("i"))]);
    let bi = build::sref(b, vec![build::at(build::iv("i").add(build::c(c)))]);
    s.body = vec![build::do_loop(
        "i",
        build::c(lo),
        build::c(hi),
        vec![build::assign(
            ai.clone(),
            build::val(ai).add(build::val(bi)),
        )],
    )];
    lower_owner_computes(&s).unwrap()
}

/// Hand-written loop pairs and awaited nests for `fuse-loops` and
/// `sink-await`: (label, source).
const FUSE_AND_SINK: [(&str, &str); 12] = [
    (
        "fusable-same-iteration",
        "real A[1:16] distribute (BLOCK) onto 4\nreal B[1:16] distribute (BLOCK) onto 4\n\
         do i = 1, 16 { iown(A[i]) : { A[i] = A[i] + 1.0 } }\n\
         do k = 1, 16 { iown(B[k]) : { B[k] = B[k] + A[k] } }\n",
    ),
    (
        "fusable-reads-earlier",
        "real A[1:16] distribute (BLOCK) onto 4\nreal B[1:16] distribute (BLOCK) onto 4\n\
         do i = 2, 16 { iown(A[i]) : { A[i] = A[i] + 1.0 } }\n\
         do k = 2, 16 { iown(B[k]) : { B[k] = B[k] + A[k - 1] } }\n",
    ),
    (
        "fusable-fft-columns",
        "complex A[1:4,1:4,1:4] distribute (*,*,BLOCK) onto 4 segment (4,1,1)\n\
         do j = 1, 4 { fft1d(A[*,j,mypid + 1]) }\n\
         do n = 1, 4 { A[*,n,mypid + 1] -=> }\n",
    ),
    (
        "fusable-strided",
        "real A[1:16] distribute (CYCLIC) onto 4\nreal B[1:16] distribute (CYCLIC) onto 4\n\
         do i = 1, 15, 2 { iown(A[i]) : { A[i] = A[i] + 1.0 } }\n\
         do k = 1, 15, 2 { iown(B[k]) : { B[k] = B[k] + A[k + 1] } }\n",
    ),
    (
        "unfusable-reads-later",
        "real A[1:16] distribute (BLOCK) onto 4\nreal B[1:16] distribute (BLOCK) onto 4\n\
         do i = 1, 15 { iown(A[i]) : { A[i] = A[i] + 1.0 } }\n\
         do k = 1, 15 { iown(B[k]) : { B[k] = B[k] + A[k + 1] } }\n",
    ),
    (
        "unfusable-whole-plane",
        "complex A[1:4,1:4] distribute (*,BLOCK) onto 4\n\
         do j = 1, 4 { fft1d(A[*,j]) }\n\
         do n = 1, 4 { A[*,*] -=> }\n",
    ),
    (
        "unfusable-strided",
        "real A[1:16] distribute (CYCLIC) onto 4\nreal B[1:16] distribute (CYCLIC) onto 4\n\
         do i = 1, 13, 2 { iown(A[i]) : { A[i] = A[i] + 1.0 } }\n\
         do k = 1, 13, 2 { iown(B[k]) : { B[k] = B[k] + A[k + 2] } }\n",
    ),
    (
        "unfusable-bounds-differ",
        "real A[1:16] distribute (BLOCK) onto 4\n\
         do i = 1, 16 { iown(A[i]) : { A[i] = A[i] + 1.0 } }\n\
         do k = 1, 15 { iown(A[k]) : { A[k] = A[k] + 1.0 } }\n",
    ),
    (
        "loop4",
        "complex A[1:4,1:4,1:4] distribute (*,BLOCK,*) onto 4\n\
         await(A[*,mypid + 1,*]) : { do i = 1, 4 { fft1d(A[i,mypid + 1,*]) } }\n",
    ),
    (
        "loop4-slabs",
        "complex A[1:8,1:8,1:8] distribute (*,BLOCK,*) onto 4\n\
         integer OWN[1:8] distribute (BLOCK) onto 4\n\
         await(A[*,mylb(OWN[*], 1):myub(OWN[*], 1),*]) : {\n\
           do j = mylb(OWN[*], 1), myub(OWN[*], 1) { do i = 1, 8 { fft1d(A[i,j,*]) } }\n\
         }\n",
    ),
    (
        "loop4-too-narrow",
        "complex A[1:4,1:4,1:4] distribute (*,BLOCK,*) onto 4\n\
         await(A[1,mypid + 1,*]) : { do i = 1, 4 { fft1d(A[i,mypid + 1,*]) } }\n",
    ),
    (
        "loop4-two-refs",
        "complex A[1:4,1:4,1:4] distribute (*,BLOCK,*) onto 4\n\
         await(A[*,mypid + 1,*]) : {\n\
           do i = 1, 4 { fft1d(A[i,mypid + 1,*])\n fft1d(A[1,1,*]) }\n\
         }\n",
    ),
];

/// Every pinned (label, outcome) pair, in table order.
pub fn pinned_outcomes() -> Vec<(String, Outcome)> {
    use xdp_compiler::{compile_program, CompileOptions, SeqMode};
    let auto = CompileOptions::default().with_seq(SeqMode::Auto);
    let mut got = Vec::new();

    // The corpus, through each registered pass alone and the paper pipeline.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("xdp-programs");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    for file in files {
        let name = file.file_stem().unwrap().to_string_lossy().into_owned();
        let parsed = xdp_lang::parse_program(&std::fs::read_to_string(&file).unwrap()).unwrap();
        let base = compile_program(&parsed, &auto).unwrap().program;
        for pass in xdp_compiler::passes::registry() {
            let mut o = Outcome::default();
            let label = format!("{name}/{}", pass.name());
            o.run(PassManager::new().add_boxed(pass), &base);
            got.push((label, o));
        }
        let mut o = Outcome::default();
        o.run(PassManager::paper_pipeline(), &base);
        got.push((format!("{name}/paper-pipeline"), o));
    }

    // The benchmark's serve-cold family: k nests, optimized and placed.
    for k in 6..=10 {
        let mut src = String::new();
        for j in 1..=k {
            src += &format!(
                "real A{j}[1:16] distribute (BLOCK) onto 4\nreal B{j}[1:16] distribute (CYCLIC) onto 4\n"
            );
        }
        for j in 1..=k {
            src += &format!("do i = 1, 16\n  A{j}[i] = A{j}[i] + B{j}[i]\nenddo\n");
        }
        let parsed = xdp_lang::parse_program(&src).unwrap();
        let c = compile_program(&parsed, &auto.clone().optimized().placed()).unwrap();
        let mut o = Outcome::default();
        o.push(&c.program, c.trace.passes.into_iter().flat_map(|p| p.notes));
        got.push((format!("knest-{k}"), o));
    }

    // Owner-computes loops over every pair of distributions: machine
    // widths, sizes and subscript offsets folded into one row per pair.
    let dists = [
        DimDist::Block,
        DimDist::Cyclic,
        DimDist::BlockCyclic(2),
        DimDist::BlockCyclic(3),
    ];
    for ad in dists {
        for bd in dists {
            let mut o = Outcome::default();
            for nprocs in [2, 3, 4] {
                let mut loops = Vec::new();
                for n in [16, 17, 60] {
                    for c in [-1, 0, 2] {
                        loops.push(shifted_loop(
                            n,
                            nprocs,
                            ad,
                            bd,
                            c,
                            1.max(1 - c),
                            n.min(n - c),
                        ));
                    }
                }
                // Windows that leave B's declared bounds, and an empty one.
                loops.push(shifted_loop(16, nprocs, ad, bd, 2, 1, 16));
                loops.push(shifted_loop(16, nprocs, ad, bd, -1, 1, 16));
                loops.push(shifted_loop(16, nprocs, ad, bd, 0, 9, 8));
                for naive in &loops {
                    o.run(PassManager::paper_pipeline(), naive);
                    o.run(PassManager::new().add(ElideSameOwnerComm), naive);
                    o.run(PassManager::new().add(VectorizeMessages), naive);
                    o.run(PassManager::new().add(LocalizeBounds), naive);
                    o.run(PassManager::new().add(BindCommunication), naive);
                }
            }
            got.push((format!("loops/{ad}x{bd}"), o));
        }
    }

    // The differential fuzzer's generator, twenty seeds to a row.
    for first in (1..=200).step_by(20) {
        let mut o = Outcome::default();
        for seed in first..first + 20 {
            let tp = xdp_verify::gen::executable_program(seed);
            o.run(PassManager::paper_pipeline(), &tp.program);
        }
        got.push((format!("gen/{first}..{}", first + 19), o));
    }

    // Loop pairs and awaited nests, through the two §4 passes.
    use xdp_compiler::passes::{FuseLoops, SinkAwait};
    for (label, src) in FUSE_AND_SINK {
        let p = xdp_lang::parse_program(src).unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut o = Outcome::default();
        o.run(PassManager::new().add(FuseLoops), &p);
        o.run(PassManager::new().add(SinkAwait), &p);
        got.push((format!("nest/{label}"), o));
    }

    // Every §4 FFT stage, through the passes of its derivation.
    use xdp_apps::fft3d::{build, Fft3dConfig, Stage};
    for (n, nprocs) in [(4, 4), (8, 4), (8, 2), (16, 4)] {
        for stage in Stage::all() {
            let (p, _) = build(Fft3dConfig::new(n, nprocs), stage);
            let mut o = Outcome::default();
            o.run(PassManager::new().add(LocalizeBounds), &p);
            o.run(PassManager::new().add(FuseLoops), &p);
            o.run(PassManager::new().add(SinkAwait), &p);
            o.run(PassManager::fft_pipeline(), &p);
            got.push((format!("fft/{n}/{nprocs}/{}", stage.label()), o));
        }
    }

    got
}

/// The text every pass produces, and what it says it did, pinned by
/// digest: `program-digest notes-digest` per row, computed before the
/// passes stopped walking the iteration space point by point. A deliberate
/// change to a pass's output re-pins its rows.
#[test]
fn pass_outputs_and_notes_are_pinned() {
    let got: Vec<String> = pinned_outcomes()
        .iter()
        .map(|(label, o)| o.row(label))
        .collect();
    let want: Vec<&str> = PASS_PINS.lines().map(str::trim).collect();
    let moved: Vec<&String> = got
        .iter()
        .filter(|row| !want.contains(&row.as_str()))
        .collect();
    assert!(
        got == want,
        "rows that moved: {moved:#?}\nfull table:\n{}",
        got.join("\n")
    );
}

const PASS_PINS: &str = "\
    fft3d/elide-same-owner-comm ff3ce5959ff88e37 cbf29ce484222325
    fft3d/vectorize-messages ff3ce5959ff88e37 cbf29ce484222325
    fft3d/localize-bounds 79aca91db3d0acdb c64dfbb4f3e18e97
    fft3d/bind-communication ff3ce5959ff88e37 cbf29ce484222325
    fft3d/elide-accessible-checks ff3ce5959ff88e37 cbf29ce484222325
    fft3d/fuse-loops ff3ce5959ff88e37 cbf29ce484222325
    fft3d/sink-await ff3ce5959ff88e37 cbf29ce484222325
    fft3d/migrate-ownership ff3ce5959ff88e37 cbf29ce484222325
    fft3d/lower-redistribute ff3ce5959ff88e37 cbf29ce484222325
    fft3d/auto-place ff3ce5959ff88e37 9e55a19e30eb6150
    fft3d/paper-pipeline 79aca91db3d0acdb c64dfbb4f3e18e97
    jacobi2d/elide-same-owner-comm 1fa89558b37d7282 cbf29ce484222325
    jacobi2d/vectorize-messages 1fa89558b37d7282 cbf29ce484222325
    jacobi2d/localize-bounds 1fa89558b37d7282 cbf29ce484222325
    jacobi2d/bind-communication 1fa89558b37d7282 cbf29ce484222325
    jacobi2d/elide-accessible-checks 1fa89558b37d7282 cbf29ce484222325
    jacobi2d/fuse-loops 1fa89558b37d7282 cbf29ce484222325
    jacobi2d/sink-await 1fa89558b37d7282 cbf29ce484222325
    jacobi2d/migrate-ownership 1fa89558b37d7282 cbf29ce484222325
    jacobi2d/lower-redistribute 1fa89558b37d7282 cbf29ce484222325
    jacobi2d/auto-place 4e33a6e884e4938d cd59c0e2e33daf20
    jacobi2d/paper-pipeline 1fa89558b37d7282 cbf29ce484222325
    membound/elide-same-owner-comm cf3161f67b38901d cbf29ce484222325
    membound/vectorize-messages cf3161f67b38901d cbf29ce484222325
    membound/localize-bounds 403f8f63c256e118 4397419e5dece793
    membound/bind-communication cf3161f67b38901d cbf29ce484222325
    membound/elide-accessible-checks cf3161f67b38901d cbf29ce484222325
    membound/fuse-loops cf3161f67b38901d cbf29ce484222325
    membound/sink-await cf3161f67b38901d cbf29ce484222325
    membound/migrate-ownership cf3161f67b38901d cbf29ce484222325
    membound/lower-redistribute cf3161f67b38901d cbf29ce484222325
    membound/auto-place f808e03565595312 7171adcf98edf5b7
    membound/paper-pipeline 403f8f63c256e118 4397419e5dece793
    migration/elide-same-owner-comm 1ba50700ad74fb50 cbf29ce484222325
    migration/vectorize-messages 1ba50700ad74fb50 cbf29ce484222325
    migration/localize-bounds 1ba50700ad74fb50 cbf29ce484222325
    migration/bind-communication 1ba50700ad74fb50 cbf29ce484222325
    migration/elide-accessible-checks 1ba50700ad74fb50 cbf29ce484222325
    migration/fuse-loops 1ba50700ad74fb50 cbf29ce484222325
    migration/sink-await 1ba50700ad74fb50 cbf29ce484222325
    migration/migrate-ownership 1ba50700ad74fb50 cbf29ce484222325
    migration/lower-redistribute 1ba50700ad74fb50 cbf29ce484222325
    migration/auto-place 1ba50700ad74fb50 e07045e460ddc4c6
    migration/paper-pipeline 1ba50700ad74fb50 cbf29ce484222325
    pipeline/elide-same-owner-comm 05e9504d6a05ed1e cbf29ce484222325
    pipeline/vectorize-messages 05e9504d6a05ed1e cbf29ce484222325
    pipeline/localize-bounds 05e9504d6a05ed1e cbf29ce484222325
    pipeline/bind-communication 05e9504d6a05ed1e cbf29ce484222325
    pipeline/elide-accessible-checks 05e9504d6a05ed1e cbf29ce484222325
    pipeline/fuse-loops 05e9504d6a05ed1e cbf29ce484222325
    pipeline/sink-await 05e9504d6a05ed1e cbf29ce484222325
    pipeline/migrate-ownership 05e9504d6a05ed1e cbf29ce484222325
    pipeline/lower-redistribute 05e9504d6a05ed1e cbf29ce484222325
    pipeline/auto-place ba9cc6e5ffa32719 d2bde9344c1872ec
    pipeline/paper-pipeline 05e9504d6a05ed1e cbf29ce484222325
    remap/elide-same-owner-comm 9fb0b236ff6957cc cbf29ce484222325
    remap/vectorize-messages 9fb0b236ff6957cc cbf29ce484222325
    remap/localize-bounds 9fb0b236ff6957cc cbf29ce484222325
    remap/bind-communication 9fb0b236ff6957cc cbf29ce484222325
    remap/elide-accessible-checks 9fb0b236ff6957cc cbf29ce484222325
    remap/fuse-loops 9fb0b236ff6957cc cbf29ce484222325
    remap/sink-await 9fb0b236ff6957cc cbf29ce484222325
    remap/migrate-ownership 9fb0b236ff6957cc cbf29ce484222325
    remap/lower-redistribute 9fb0b236ff6957cc cbf29ce484222325
    remap/auto-place 9fb0b236ff6957cc e9d44becbb0e9114
    remap/paper-pipeline 9fb0b236ff6957cc cbf29ce484222325
    seq_sum/elide-same-owner-comm 9a2d05a0757c3d20 cbf29ce484222325
    seq_sum/vectorize-messages 27277d7fdd9b6462 7ad473019ba8541b
    seq_sum/localize-bounds 9a2d05a0757c3d20 cbf29ce484222325
    seq_sum/bind-communication 958bd92d9670975c c6907558ce002dd7
    seq_sum/elide-accessible-checks 9a2d05a0757c3d20 cbf29ce484222325
    seq_sum/fuse-loops 9a2d05a0757c3d20 cbf29ce484222325
    seq_sum/sink-await 9a2d05a0757c3d20 cbf29ce484222325
    seq_sum/migrate-ownership 51b80371ff8db04b 8bbd91358eb9dd10
    seq_sum/lower-redistribute 9a2d05a0757c3d20 cbf29ce484222325
    seq_sum/auto-place d9a5ef297f992545 bc37ab4cb0c894db
    seq_sum/paper-pipeline 6696ecead4da9154 9e42c7918b816ec1
    simple/elide-same-owner-comm fe0e7ae4418c1e60 cbf29ce484222325
    simple/vectorize-messages 71fe84ced41e3e51 7ad473019ba8541b
    simple/localize-bounds fe0e7ae4418c1e60 cbf29ce484222325
    simple/bind-communication 8174f190096e7f1c c6907558ce002dd7
    simple/elide-accessible-checks fe0e7ae4418c1e60 cbf29ce484222325
    simple/fuse-loops fe0e7ae4418c1e60 cbf29ce484222325
    simple/sink-await fe0e7ae4418c1e60 cbf29ce484222325
    simple/migrate-ownership 40b6a0917d0272c4 8bbd91358eb9dd10
    simple/lower-redistribute fe0e7ae4418c1e60 cbf29ce484222325
    simple/auto-place 7775ee008e226811 bc37ab4cb0c894db
    simple/paper-pipeline 4440b1cce06846dd 9e42c7918b816ec1
    twophase/elide-same-owner-comm ab4126aa7200c8f9 cbf29ce484222325
    twophase/vectorize-messages ab4126aa7200c8f9 cbf29ce484222325
    twophase/localize-bounds e839adeecc167b1e 4397419e5dece793
    twophase/bind-communication ab4126aa7200c8f9 cbf29ce484222325
    twophase/elide-accessible-checks ab4126aa7200c8f9 cbf29ce484222325
    twophase/fuse-loops ab4126aa7200c8f9 cbf29ce484222325
    twophase/sink-await ab4126aa7200c8f9 cbf29ce484222325
    twophase/migrate-ownership ab4126aa7200c8f9 cbf29ce484222325
    twophase/lower-redistribute ab4126aa7200c8f9 cbf29ce484222325
    twophase/auto-place ab4126aa7200c8f9 c266c5f295462d4d
    twophase/paper-pipeline e839adeecc167b1e 4397419e5dece793
    knest-6 db351226f15e08aa 4d7783d4511981c4
    knest-7 fb0e957d3b92ddcc 98347f004a4b827f
    knest-8 61dc30ee88e727ac 867c338ea8cb2160
    knest-9 cff74548d6544452 d793ad6cb35595df
    knest-10 829da1d91a3828a4 df8df30e903db7b0
    loops/BLOCKxBLOCK 7e20467794673d3f 4dc671df287b934f
    loops/BLOCKxCYCLIC ce84b81cc09dea5b 4b259a3a6c4a0ef9
    loops/BLOCKxCYCLIC(2) fafc8413b56e5ab3 d9b17f3414a0ec9f
    loops/BLOCKxCYCLIC(3) c6a357aaf16de8cd 799388e27ac9ed6d
    loops/CYCLICxBLOCK cc31aa89e7e064c4 037f17db67568a2e
    loops/CYCLICxCYCLIC d21a74dddfaa063f c0d1063c98efc26d
    loops/CYCLICxCYCLIC(2) 0e8855784077dadb 84c7e618ea4786c3
    loops/CYCLICxCYCLIC(3) fbdc847e427b7157 33fefa71035d0c53
    loops/CYCLIC(2)xBLOCK ba963dbd802734fc 3b012e0c491af999
    loops/CYCLIC(2)xCYCLIC d806768cb36f4df4 d2314c2861d44759
    loops/CYCLIC(2)xCYCLIC(2) 40f87c8aa56900a8 6e798bbe3ac9a3ec
    loops/CYCLIC(2)xCYCLIC(3) 85a54034066f68fa a8f22c19252f83e5
    loops/CYCLIC(3)xBLOCK e631b7b11b7981f9 fe829a1a3fd64578
    loops/CYCLIC(3)xCYCLIC 0e5d8df22127b172 755059c51f530345
    loops/CYCLIC(3)xCYCLIC(2) 33c916340416032a ea037ecccec2104f
    loops/CYCLIC(3)xCYCLIC(3) 2c0eea7a97b9c3c6 21b6a1d15d697ac1
    gen/1..20 6534e607f1a91f03 ed685a30903f7d05
    gen/21..40 47fb67d218b1230f 1afba0bb042d3bf1
    gen/41..60 d831ff176cf1592a 4c81ec8dcf3b1ee6
    gen/61..80 bb66a63d401a3ff8 6353f8c8f7326dd9
    gen/81..100 ea1f01ed80e53c97 ef924ccd8c07c92e
    gen/101..120 e2a92915d29836eb 5bc9008bab55fc37
    gen/121..140 5c43d641d0ee10b1 ffeb4476ed3768b3
    gen/141..160 b75cbe01dca6b3bb f17dd250d97d5edc
    gen/161..180 80c898bbc74c228c 693ea96f22caf6cf
    gen/181..200 6093ac84cf7db31d 85ecd4719cc783e9
    nest/fusable-same-iteration 08d1d68a81eb290c 25b1893c4decb758
    nest/fusable-reads-earlier 0d27eebd14eeb521 25b1893c4decb758
    nest/fusable-fft-columns c0dbee54f0c07222 25b1893c4decb758
    nest/fusable-strided c9f310b4ae1d83e3 25b1893c4decb758
    nest/unfusable-reads-later 6484b2393e09e355 cbf29ce484222325
    nest/unfusable-whole-plane 6c044491b12ff999 cbf29ce484222325
    nest/unfusable-strided dcaeb98fbde38759 cbf29ce484222325
    nest/unfusable-bounds-differ 570f20d4f687ed89 cbf29ce484222325
    nest/loop4 8b2dc0d1523548ba 3e32dbd9c261fbfc
    nest/loop4-slabs 01807aa6663db57a 9fb05d411477f97f
    nest/loop4-too-narrow 386dd33f7b7edda9 cbf29ce484222325
    nest/loop4-two-refs 2de841f8e16f4a25 cbf29ce484222325
    fft/4/4/v0-naive 967a1d6f3c216feb 6bc6827b9e153d01
    fft/4/4/v1-localized 20958371d1d2f317 bdf8487258d94cbd
    fft/4/4/v2-fused 71cf533429d9f41f bdf8487258d94cbd
    fft/4/4/v3-await-sunk df377379d143f3c9 cbf29ce484222325
    fft/4/4/v4-preposted 49ae3c6d1376bedd cbf29ce484222325
    fft/4/4/v5-planned 0a273f9a0f1faed9 cbf29ce484222325
    fft/4/4/v6-auto 04767b9497e71801 cbf29ce484222325
    fft/8/4/v0-naive 9c684171dddfa6fd aa91b14f61e39ce5
    fft/8/4/v1-localized e1b03773d27dfb47 bdf8487258d94cbd
    fft/8/4/v2-fused e6d4b4da75f3ffbf bdf8487258d94cbd
    fft/8/4/v3-await-sunk f74495ad0ffe8549 cbf29ce484222325
    fft/8/4/v4-preposted 5236b11df293b09d cbf29ce484222325
    fft/8/4/v5-planned c6db986830c58d39 cbf29ce484222325
    fft/8/4/v6-auto e030e3963df09b11 cbf29ce484222325
    fft/8/2/v0-naive e7d928bbb013661d aa91b14f61e39ce5
    fft/8/2/v1-localized 125dd4010213cd2b bdf8487258d94cbd
    fft/8/2/v2-fused 4320c9a66c225c73 bdf8487258d94cbd
    fft/8/2/v3-await-sunk 3919813105a63291 cbf29ce484222325
    fft/8/2/v4-preposted eff93e63e7d9517d cbf29ce484222325
    fft/8/2/v5-planned 13f5b6bde154fc91 cbf29ce484222325
    fft/8/2/v6-auto 064995fdd7af4561 cbf29ce484222325
    fft/16/4/v0-naive 78e20f2afa26269d aa91b14f61e39ce5
    fft/16/4/v1-localized 3d82c6c4d6b71153 bdf8487258d94cbd
    fft/16/4/v2-fused 08a220bcff525fe9 bdf8487258d94cbd
    fft/16/4/v3-await-sunk 54ec38a935ae5575 cbf29ce484222325
    fft/16/4/v4-preposted c1595e6e139baf0d cbf29ce484222325
    fft/16/4/v5-planned 519630d13f2b94a9 cbf29ce484222325
    fft/16/4/v6-auto 521fa3d19e0abb89 cbf29ce484222325";

// ---------------------------------------------------------------------
// A legality check sees every reference.
// ---------------------------------------------------------------------

/// The second loop's only mention of `W` is the `myub` inside a subscript
/// of `A` — an ownership query of what the first loop migrates.
const QUERY_IN_A_SUBSCRIPT: &str = "\
    real A[1:8] distribute (CYCLIC) onto 2\n\
    real W[1:8] distribute (BLOCK) onto 2 segment (1)\n\
    real X[1:8] distribute (CYCLIC) onto 2\n\
    do i = 1, 8\n\
      (iown(W[i]) && !iown(X[i])) : { W[i] -=> }\n\
      (iown(X[i]) && !iown(W[i])) : { W[i] <=- }\n\
    enddo\n\
    do j = 1, 8\n\
      (mypid == 0 && iown(A[j])) : { A[myub(W[*], 1)] = 1.0 }\n\
    enddo\n";

/// The mirrored shape for `sink-await`: the nest's second statement names
/// the awaited array only through the `mylb` that subscripts `B`.
const QUERY_UNDER_AN_AWAIT: &str = "\
    real A[1:4,1:4,1:4] distribute (*,BLOCK,*) onto 4\n\
    real B[1:4] distribute (BLOCK) onto 4\n\
    await(A[*,mypid + 1,*]) : {\n\
      do i = 1, 4 {\n\
        scale(A[i,mypid + 1,*], 2)\n\
        B[mylb(A[*,*,*], 2)] = 1.0\n\
      }\n\
    }\n";

/// Every registered pass alone, and the paper pipeline, leave `src`
/// computing what it computed as written.
fn every_pass_preserves(src: &str) {
    let program = xdp_lang::parse_program(src).unwrap();
    let tp = xdp_verify::TestProgram {
        nprocs: program.decls[0].dist.as_ref().unwrap().nprocs(),
        observable: program.decls.iter().map(|d| d.name.clone()).collect(),
        program,
        seed: 0,
    };
    let mut runs: Vec<Vec<(&'static str, Box<dyn Pass>)>> = xdp_compiler::passes::registry()
        .into_iter()
        .map(|pass| vec![(pass.name(), pass)])
        .collect();
    runs.push(xdp_verify::diff::default_passes());
    for passes in runs {
        let diverged = xdp_verify::diff::check_passes_only(&tp, &passes);
        assert!(diverged.is_none(), "{}", diverged.unwrap().detail());
    }
}

#[test]
fn a_query_inside_a_subscript_keeps_the_loops_apart() {
    use xdp_compiler::passes::FuseLoops;
    every_pass_preserves(QUERY_IN_A_SUBSCRIPT);
    let (changed, notes) = notes_of(FuseLoops, QUERY_IN_A_SUBSCRIPT);
    assert!(!changed, "{notes:?}");
    // (It names the first thing of the first loop the query meets, its
    // `iown(W[i])` — two statements before the send it must not cross.)
    assert_eq!(
        notes,
        [
            "fuse-loops: declined loops at 0,1 — W[*] queried in the second (by A[myub(W[*], 1)]) \
          is queried in the first 1 iteration later"
        ]
    );
}

#[test]
fn a_query_inside_a_subscript_keeps_the_await_whole() {
    use xdp_compiler::passes::SinkAwait;
    every_pass_preserves(QUERY_UNDER_AN_AWAIT);
    let (changed, notes) = notes_of(SinkAwait, QUERY_UNDER_AN_AWAIT);
    assert!(!changed, "{notes:?}");
    assert_eq!(
        notes,
        [
            "sink-await: declined await(A[*,(mypid + 1),*]) — the nest names 2 different sections \
          of A: A[i,(mypid + 1),*], and A[*,*,*] queried by B[mylb(A[*,*,*], 2)]"
        ]
    );
}
