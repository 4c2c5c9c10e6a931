//! Compiler-level integration properties: idempotency, note quality,
//! pass-derivation of the paper's staged programs, and the equivalence of
//! `run_traced`'s provenance with its two-renders-per-pass definition.

use xdp_compiler::passes::{
    AutoPlace, BindCommunication, ElideAccessibleChecks, ElideSameOwnerComm, FuseLoops,
    LocalizeBounds, LowerRedistribute, MigrateOwnership, SinkAwait, VectorizeMessages,
};
use xdp_compiler::{compile, lower_owner_computes, CompileOptions, Pass, PassManager, SeqMode};
use xdp_ir::build as b;
use xdp_ir::{pretty, DimDist, ElemType, ProcGrid, Program};

fn source(n: i64, nprocs: usize, bd: DimDist) -> Program {
    let grid = ProcGrid::linear(nprocs);
    let mut s = Program::new();
    let a = s.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let bb = s.declare(b::array("B", ElemType::F64, vec![(1, n)], vec![bd], grid));
    let ai = b::sref(a, vec![b::at(b::iv("i"))]);
    let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
    s.body = vec![b::do_loop(
        "i",
        b::c(1),
        b::c(n),
        vec![b::assign(ai.clone(), b::val(ai).add(b::val(bi)))],
    )];
    s
}

#[test]
fn paper_pipeline_is_idempotent() {
    for bd in [DimDist::Block, DimDist::Cyclic, DimDist::BlockCyclic(2)] {
        let naive = lower_owner_computes(&source(16, 4, bd)).unwrap();
        let (once, _) = PassManager::paper_pipeline().run(&naive);
        let (twice, log2) = PassManager::paper_pipeline().run(&once);
        assert_eq!(
            pretty::program(&once),
            pretty::program(&twice),
            "second pipeline run changed the program ({bd:?}); passes that fired: {:?}",
            log2.iter()
                .filter(|(_, r)| r.changed)
                .map(|(n, _)| n)
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn run_traced_matches_run_and_records_provenance() {
    let naive = lower_owner_computes(&source(16, 4, DimDist::Cyclic)).unwrap();
    let (plain, log) = PassManager::paper_pipeline().run(&naive);
    let (traced, ct) = PassManager::paper_pipeline().run_traced(&naive);
    // Instrumentation is observation only: same output program.
    assert_eq!(pretty::program(&plain), pretty::program(&traced));
    assert_eq!(ct.passes.len(), log.len());
    for (pt, (name, r)) in ct.passes.iter().zip(&log) {
        assert_eq!(&pt.name, name);
        assert_eq!(pt.changed, r.changed);
        assert!(pt.wall_ms >= 0.0);
        // A pass that changed the program must show statement-level edits
        // or at least a node-count delta it can explain.
        if pt.changed {
            assert!(
                !pt.removed.is_empty() || !pt.added.is_empty() || !pt.notes.is_empty(),
                "pass {name} changed the program but recorded no provenance"
            );
        } else {
            assert!(pt.removed.is_empty() && pt.added.is_empty());
            assert_eq!(pt.node_delta(), 0);
        }
    }
    // The render names every pass and the edits.
    let text = ct.render();
    for (name, _) in &log {
        assert!(text.contains(name), "{text}");
    }
}

/// The statement table as it was first defined: the first line of each
/// statement's *full* pretty form (a compound statement renders its whole
/// body to get its header).
fn reference_table(p: &Program) -> Vec<(u32, String)> {
    fn walk(p: &Program, block: &[xdp_ir::Stmt], base: u32, out: &mut Vec<(u32, String)>) {
        for (s, sid) in block.iter().zip(xdp_ir::block_stmt_ids(base, block)) {
            let full = pretty::stmt(p, s, 0);
            out.push((sid, full.lines().next().unwrap_or_default().to_string()));
            walk(p, s.body(), sid + 1, out);
        }
    }
    let mut out = Vec::new();
    walk(p, &p.body, 0, &mut out);
    out
}

type Table = Vec<(u32, String)>;

/// Counted-multiset diff: a summary present `k` more times before than
/// after is removed `k` times (first occurrences, input ids); the
/// converse is added.
fn reference_diff(before: &Table, after: &Table) -> (Table, Table) {
    let mut surplus = std::collections::HashMap::<&str, i64>::new();
    for (_, s) in before {
        *surplus.entry(s).or_default() += 1;
    }
    for (_, s) in after {
        *surplus.entry(s).or_default() -= 1;
    }
    let mut take = |table: &Table, sign: i64| -> Table {
        let mut taken = Vec::new();
        for (id, s) in table {
            let left = surplus.get_mut(s.as_str()).unwrap();
            if *left * sign > 0 {
                *left -= sign;
                taken.push((*id, s.clone()));
            }
        }
        taken
    };
    let removed = take(before, 1);
    (removed, take(after, -1))
}

/// `run_traced` must equal, field by field, the definition that renders
/// both tables around every pass; must return `run`'s program; and every
/// pass that says it changed nothing must have returned its input.
fn assert_provenance_is_the_two_render_definition(
    what: &str,
    pipeline: fn() -> PassManager,
    p: &Program,
) {
    let (traced, ct) = pipeline().run_traced(p);
    assert_eq!(traced, pipeline().run(p).0, "{what}: run_traced != run");
    let passes = pipeline().into_passes();
    assert_eq!(ct.passes.len(), passes.len(), "{what}");
    let mut cur = p.clone();
    for (pass, got) in passes.iter().zip(&ct.passes) {
        let at = format!("{what}: {}", pass.name());
        let r = pass.run(&cur);
        let (before, after) = (reference_table(&cur), reference_table(&r.program));
        let (removed, added) = reference_diff(&before, &after);
        assert_eq!(got.name, pass.name(), "{at}");
        assert_eq!(got.changed, r.changed, "{at}");
        assert_eq!(got.nodes_before, before.len(), "{at}");
        assert_eq!(got.nodes_after, after.len(), "{at}");
        assert_eq!(got.removed, removed, "{at}");
        assert_eq!(got.added, added, "{at}");
        assert_eq!(got.notes, r.notes, "{at}");
        assert!(
            r.changed || r.program == cur,
            "{at}: reports `changed == false` but rewrote the program"
        );
        cur = r.program;
    }
    assert_eq!(cur, traced, "{what}");
}

/// What `compile` hands the pass manager for every corpus program and for
/// the benchmark's cold K-nests: parsed, lowered when sequential, valid.
fn lowered_corpus() -> Vec<(String, Program)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../xdp-programs");
    let mut sources: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("xdp-programs/ exists")
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|x| x == "xdp"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect();
    sources.sort();
    assert!(sources.len() >= 9, "the corpus shrank: {}", sources.len());
    for k in 6..=10 {
        let mut knest = String::new();
        for j in 1..=k {
            knest.push_str(&format!(
                "real A{j}[1:16] distribute (BLOCK) onto 4\n\
                 real B{j}[1:16] distribute (CYCLIC) onto 4\n"
            ));
        }
        for j in 1..=k {
            knest.push_str(&format!(
                "do i = 1, 16\n  A{j}[i] = A{j}[i] + B{j}[i]\nenddo\n"
            ));
        }
        sources.push((format!("knest-{k}"), knest));
    }
    let auto = CompileOptions::default().with_seq(SeqMode::Auto);
    sources
        .into_iter()
        .map(|(name, source)| {
            let lowered = compile(&source, &auto).unwrap_or_else(|e| panic!("{name}: {e}"));
            let program = Program::clone(&lowered.program);
            (name, program)
        })
        .collect()
}

#[test]
fn provenance_equals_its_two_render_definition_on_the_corpus() {
    // What `compile(.., optimized().placed())` runs, and every pass there is.
    let served: fn() -> PassManager = || PassManager::paper_pipeline().add(AutoPlace::new());
    let all_ten: fn() -> PassManager = || {
        PassManager::new()
            .add(ElideSameOwnerComm)
            .add(VectorizeMessages)
            .add(LocalizeBounds)
            .add(BindCommunication)
            .add(FuseLoops)
            .add(SinkAwait)
            .add(MigrateOwnership::default())
            .add(LowerRedistribute)
            .add(ElideAccessibleChecks)
            .add(AutoPlace::new())
    };
    assert_eq!(all_ten().into_passes().len(), 10);
    for (name, program) in lowered_corpus() {
        assert_provenance_is_the_two_render_definition(&name, served, &program);
        assert_provenance_is_the_two_render_definition(&format!("{name}/ten"), all_ten, &program);
    }
}

#[test]
fn pass_notes_are_informative() {
    let naive = lower_owner_computes(&source(16, 4, DimDist::Cyclic)).unwrap();
    let (_, log) = PassManager::paper_pipeline().run(&naive);
    for (name, r) in &log {
        if r.changed {
            assert!(
                !r.notes.is_empty(),
                "pass {name} changed the program but left no notes"
            );
        }
    }
}

#[test]
fn fft_v1_to_v3_derived_by_passes() {
    // The §4 paper-shape program (n == P == 4): localize the guarded v0,
    // fuse the compute/send loops, sink the await — each pass must fire.
    let (v0, _) = {
        // Rebuild the paper-shape v0 via the apps builder shape, inline to
        // avoid a dependency cycle: the shape matters, not the data.
        let mut p = xdp_ir::Program::new();
        let a = p.declare(b::array_seg(
            "A",
            ElemType::C64,
            vec![(1, 4), (1, 4), (1, 4)],
            vec![DimDist::Star, DimDist::Star, DimDist::Block],
            ProcGrid::linear(4),
            vec![4, 1, 1],
        ));
        let plane_k = b::sref(a, vec![b::all(), b::all(), b::at(b::iv("k"))]);
        let col_j_k = b::sref(a, vec![b::all(), b::at(b::iv("j")), b::at(b::iv("k"))]);
        let col_nn_k = b::sref(a, vec![b::all(), b::at(b::iv("nn")), b::at(b::iv("k"))]);
        p.body = vec![
            b::do_loop(
                "k",
                b::c(1),
                b::c(4),
                vec![b::guarded(
                    b::iown(plane_k.clone()),
                    vec![b::do_loop(
                        "j",
                        b::c(1),
                        b::c(4),
                        vec![b::kernel("fft1d", vec![col_j_k.clone()])],
                    )],
                )],
            ),
            b::do_loop(
                "k",
                b::c(1),
                b::c(4),
                vec![b::guarded(
                    b::iown(plane_k.clone()),
                    vec![b::do_loop(
                        "nn",
                        b::c(1),
                        b::c(4),
                        vec![b::send_own_val(col_nn_k.clone())],
                    )],
                )],
            ),
        ];
        (p, a)
    };
    // v0 -> v1: both k-loops collapse to k := mypid + 1.
    let v1 = LocalizeBounds.run(&v0);
    assert!(v1.changed, "{}", pretty::program(&v0));
    let text = pretty::program(&v1.program);
    assert!(text.contains("(mypid + 1)"), "{text}");
    assert_eq!(v1.program.stmt_census().guards, 0);
    // v1 -> v2: the two remaining inner loops fuse.
    let v2 = FuseLoops.run(&v1.program);
    assert!(v2.changed, "{}", pretty::program(&v1.program));
    assert_eq!(v2.program.stmt_census().loops, 1);
    let text = pretty::program(&v2.program);
    assert!(text.contains("fft1d"), "{text}");
    assert!(text.contains("-=>"), "{text}");
}

#[test]
fn sink_await_derives_v3_loop4() {
    let mut p = xdp_ir::Program::new();
    let a = p.declare(b::array(
        "A",
        ElemType::C64,
        vec![(1, 4), (1, 4), (1, 4)],
        vec![DimDist::Star, DimDist::Block, DimDist::Star],
        ProcGrid::linear(4),
    ));
    let slab = b::sref(a, vec![b::all(), b::at(b::mypid().add(b::c(1))), b::all()]);
    let line = b::sref(
        a,
        vec![b::at(b::iv("i")), b::at(b::mypid().add(b::c(1))), b::all()],
    );
    p.body = vec![b::guarded(
        b::await_(slab),
        vec![b::do_loop(
            "i",
            b::c(1),
            b::c(4),
            vec![b::kernel("fft1d", vec![line])],
        )],
    )];
    let r = SinkAwait.run(&p);
    assert!(r.changed);
    let text = pretty::program(&r.program);
    assert!(text.contains("await(A[i,(mypid + 1),*]) : {"), "{text}");
}

#[test]
fn pipeline_handles_multi_statement_programs() {
    // Two independent loops in one program: both get optimized.
    let grid = ProcGrid::linear(4);
    let mut s = Program::new();
    let a = s.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, 16)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let bb = s.declare(b::array(
        "B",
        ElemType::F64,
        vec![(1, 16)],
        vec![DimDist::Cyclic],
        grid.clone(),
    ));
    let cc = s.declare(b::array(
        "C",
        ElemType::F64,
        vec![(1, 16)],
        vec![DimDist::Block],
        grid,
    ));
    let ai = b::sref(a, vec![b::at(b::iv("i"))]);
    let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
    let ci = b::sref(cc, vec![b::at(b::iv("j"))]);
    let aj = b::sref(a, vec![b::at(b::iv("j"))]);
    s.body = vec![
        b::do_loop(
            "i",
            b::c(1),
            b::c(16),
            vec![b::assign(ai.clone(), b::val(ai).add(b::val(bi)))],
        ),
        b::do_loop(
            "j",
            b::c(1),
            b::c(16),
            vec![b::assign(ci.clone(), b::val(ci).add(b::val(aj)))],
        ),
    ];
    let naive = lower_owner_computes(&s).unwrap();
    let (opt, log) = PassManager::paper_pipeline().run(&naive);
    // Loop 1 vectorizes (misaligned); loop 2 elides (aligned).
    let fired: Vec<&str> = log
        .iter()
        .filter(|(_, r)| r.changed)
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(fired.contains(&"elide-same-owner-comm"), "{fired:?}");
    assert!(fired.contains(&"vectorize-messages"), "{fired:?}");
    // The aligned loop ends with zero communication statements inside it.
    let text = pretty::program(&opt);
    assert!(!text.contains("C[j] <-"), "{text}");
}

#[test]
fn rank2_column_stencil_vectorizes() {
    // do j = 1, m-1 { A[*,j] = A[*,j] + B[*,j+1] } with (*,BLOCK) columns:
    // the operand is rank-2 (whole column per iteration); vectorization
    // must combine the per-column transfers into one boundary-column
    // message per processor pair.
    use xdp_compiler::passes::VectorizeMessages;
    let (n, m, nprocs) = (6i64, 16i64, 4usize);
    let grid = ProcGrid::linear(nprocs);
    let mut s = Program::new();
    let a = s.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, n), (1, m)],
        vec![DimDist::Star, DimDist::Block],
        grid.clone(),
    ));
    let bb = s.declare(b::array(
        "B",
        ElemType::F64,
        vec![(1, n), (1, m)],
        vec![DimDist::Star, DimDist::Block],
        grid,
    ));
    let aj = b::sref(a, vec![b::all(), b::at(b::iv("j"))]);
    let bj1 = b::sref(bb, vec![b::all(), b::at(b::iv("j").add(b::c(1)))]);
    s.body = vec![b::do_loop(
        "j",
        b::c(1),
        b::c(m - 1),
        vec![b::assign(aj.clone(), b::val(aj).add(b::val(bj1)))],
    )];
    let naive = lower_owner_computes(&s).unwrap();
    let r = VectorizeMessages.run(&naive);
    assert!(r.changed, "{}", pretty::program(&naive));
    // Static sends: one column message per interior processor boundary.
    let mut sends = 0;
    r.program.visit(&mut |st| {
        if matches!(st, xdp_ir::Stmt::Send { .. }) {
            sends += 1;
        }
    });
    assert_eq!(sends, 3, "{}", pretty::program(&r.program));

    // And it computes the same thing as the naive program.
    use std::sync::Arc;
    use xdp_core::{KernelRegistry, MachineConfig, SimExec};
    use xdp_runtime::Value;
    let run = |prog: &xdp_ir::Program| {
        let mut exec = SimExec::new(
            Arc::new(prog.clone()),
            KernelRegistry::standard(),
            MachineConfig::new(nprocs),
        );
        exec.init_exclusive(a, |idx| Value::F64((idx[0] * 100 + idx[1]) as f64));
        exec.init_exclusive(bb, |idx| Value::F64((idx[0] * 7 + idx[1] * 3) as f64));
        let rep = exec.run().expect("run");
        let g = exec.gather(a);
        let mut vals = Vec::new();
        for i in 1..=n {
            for j in 1..=m {
                vals.push(g.get(&[i, j]).unwrap().as_f64());
            }
        }
        (vals, rep.net.messages)
    };
    let (v0, m0) = run(&naive);
    let (v1, m1) = run(&r.program);
    assert_eq!(v0, v1);
    assert_eq!(m0, (m - 1) as u64, "naive: one message per iteration");
    assert_eq!(m1, 3, "vectorized: one column per boundary");
}

#[test]
fn fft_pipeline_preset_derives_the_paper_stages() {
    // The preset applied to the paper-shape v0 (n == P == 4) produces the
    // fused, awaited form in one call.
    let mut p = xdp_ir::Program::new();
    let a = p.declare(b::array_seg(
        "A",
        ElemType::C64,
        vec![(1, 4), (1, 4), (1, 4)],
        vec![DimDist::Star, DimDist::Star, DimDist::Block],
        ProcGrid::linear(4),
        vec![4, 1, 1],
    ));
    let plane_k = b::sref(a, vec![b::all(), b::all(), b::at(b::iv("k"))]);
    let col_j_k = b::sref(a, vec![b::all(), b::at(b::iv("j")), b::at(b::iv("k"))]);
    let col_nn_k = b::sref(a, vec![b::all(), b::at(b::iv("nn")), b::at(b::iv("k"))]);
    p.body = vec![
        b::do_loop(
            "k",
            b::c(1),
            b::c(4),
            vec![b::guarded(
                b::iown(plane_k.clone()),
                vec![b::do_loop(
                    "j",
                    b::c(1),
                    b::c(4),
                    vec![b::kernel("fft1d", vec![col_j_k.clone()])],
                )],
            )],
        ),
        b::do_loop(
            "k",
            b::c(1),
            b::c(4),
            vec![b::guarded(
                b::iown(plane_k),
                vec![b::do_loop(
                    "nn",
                    b::c(1),
                    b::c(4),
                    vec![b::send_own_val(col_nn_k)],
                )],
            )],
        ),
    ];
    let (out, log) = PassManager::fft_pipeline().run(&p);
    let fired: Vec<&str> = log
        .iter()
        .filter(|(_, r)| r.changed)
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(fired.contains(&"localize-bounds"), "{fired:?}");
    assert!(fired.contains(&"fuse-loops"), "{fired:?}");
    let text = pretty::program(&out);
    assert_eq!(out.stmt_census().loops, 1, "{text}");
    assert_eq!(out.stmt_census().guards, 0, "{text}");
}

mod no_panic {
    //! Totality: the paper pipeline must never panic on a well-formed
    //! program, arbitrary or executable (the *semantic* pass-equivalence
    //! oracle lives in `xdp-verify`; this is the cheaper syntactic net).

    use proptest::prelude::*;
    use xdp_compiler::PassManager;
    use xdp_verify::gen;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn paper_pipeline_never_panics_on_generated_programs(p in gen::program()) {
            let (out, _) = PassManager::paper_pipeline().run(&p);
            // The rewrite must stay well-formed enough to pretty-print.
            let _ = xdp_ir::pretty::program(&out);
        }
    }

    #[test]
    fn paper_pipeline_never_panics_on_executable_programs() {
        for seed in 0..40u64 {
            let tp = gen::executable_program(seed);
            let (out, _) = PassManager::paper_pipeline().run(&tp.program);
            let errs = xdp_ir::validate(&out);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
        }
    }
}
