//! Wall-clock benchmarks of the IL+XDP interpreter and both executors on
//! the paper's running example.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use xdp_compiler::{lower_owner_computes, FrontendOptions, PassManager, SeqProgram, SeqStmt};
use xdp_core::{AsyncConfig, AsyncExec, KernelRegistry, SimConfig, SimExec};
use xdp_ir::build as b;
use xdp_ir::{DimDist, ElemType, ProcGrid, Program, VarId};
use xdp_runtime::Value;

fn source(n: i64, nprocs: usize) -> (SeqProgram, VarId, VarId) {
    let grid = ProcGrid::linear(nprocs);
    let mut s = SeqProgram::new();
    let a = s.declare(b::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let bb = s.declare(b::array(
        "B",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Cyclic],
        grid,
    ));
    let ai = b::sref(a, vec![b::at(b::iv("i"))]);
    let bi = b::sref(bb, vec![b::at(b::iv("i"))]);
    s.body = vec![SeqStmt::DoLoop {
        var: "i".into(),
        lo: b::c(1),
        hi: b::c(n),
        body: vec![SeqStmt::Assign {
            target: ai.clone(),
            rhs: b::val(ai).add(b::val(bi)),
        }],
    }];
    (s, a, bb)
}

fn run_sim(p: &Program, a: VarId, bb: VarId, nprocs: usize) -> f64 {
    let mut exec = SimExec::new(
        Arc::new(p.clone()),
        KernelRegistry::standard(),
        SimConfig::new(nprocs),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    exec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64));
    exec.run().unwrap().virtual_time
}

fn bench_sim_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_executor_naive_loop");
    for &n in &[64i64, 256] {
        let (s, a, bb) = source(n, 4);
        let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(run_sim(&naive, a, bb, 4)))
        });
    }
    g.finish();
}

fn bench_optimized_vs_naive(c: &mut Criterion) {
    let (s, a, bb) = source(256, 4);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    let (opt, _) = PassManager::paper_pipeline().run(&naive);
    c.bench_function("sim_executor_optimized_loop_256", |bch| {
        bch.iter(|| black_box(run_sim(&opt, a, bb, 4)))
    });
}

fn bench_pass_pipeline(c: &mut Criterion) {
    let (s, _, _) = source(256, 4);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    c.bench_function("compiler_paper_pipeline_256", |bch| {
        bch.iter(|| black_box(PassManager::paper_pipeline().run(black_box(&naive))))
    });
}

fn bench_task_executor(c: &mut Criterion) {
    let (s, a, bb) = source(64, 4);
    let naive = lower_owner_computes(&s, &FrontendOptions::default()).unwrap();
    c.bench_function("task_executor_naive_loop_64", |bch| {
        bch.iter(|| {
            let mut exec = AsyncExec::new(
                Arc::new(naive.clone()),
                KernelRegistry::standard(),
                AsyncConfig::new(4),
            );
            exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
            exec.init_exclusive(bb, |idx| Value::F64(idx[0] as f64));
            black_box(exec.run().unwrap().wall)
        })
    });
}

criterion_group!(
    benches,
    bench_sim_executor,
    bench_optimized_vs_naive,
    bench_pass_pipeline,
    bench_task_executor
);
criterion_main!(benches);
