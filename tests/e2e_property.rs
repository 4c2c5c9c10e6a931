//! Property-based end-to-end tests: for random sizes, machine widths,
//! distributions and subscript shifts, the optimized program computes
//! exactly what the naive owner-computes program computes, with no more
//! messages.

use proptest::prelude::*;
use std::sync::Arc;
use xdp::prelude::*;

fn dist_strategy() -> impl Strategy<Value = DimDist> {
    prop_oneof![
        Just(DimDist::Block),
        Just(DimDist::Cyclic),
        (2i64..4).prop_map(DimDist::BlockCyclic),
    ]
}

fn run(p: &Program, a: VarId, bvar: VarId, nprocs: usize, n: i64) -> (Vec<f64>, u64) {
    let mut exec = SimExec::new(
        Arc::new(p.clone()),
        KernelRegistry::standard(),
        MachineConfig::new(nprocs),
    );
    exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
    exec.init_exclusive(bvar, |idx| Value::F64(3.0 * idx[0] as f64 + 1.0));
    let r = exec.run().expect("run");
    let g = exec.gather(a);
    let vals = (1..=n)
        .map(|i| g.get(&[i]).expect("owned").as_f64())
        .collect();
    (vals, r.net.messages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimized_equals_naive(
        nprocs in 2usize..5,
        chunks in 2i64..6,
        ad in dist_strategy(),
        bd in dist_strategy(),
        shift in 0i64..3,
    ) {
        let n = nprocs as i64 * chunks * 2;
        let grid = ProcGrid::linear(nprocs);
        let mut s = Program::new();
        let a = s.declare(build::array(
            "A", ElemType::F64, vec![(1, n)], vec![ad], grid.clone(),
        ));
        let bvar = s.declare(build::array(
            "B", ElemType::F64, vec![(1, n)], vec![bd], grid,
        ));
        let ai = build::sref(a, vec![build::at(build::iv("i"))]);
        let bi = build::sref(
            bvar,
            vec![build::at(build::iv("i").add(build::c(shift)))],
        );
        s.body = vec![build::do_loop("i", build::c(1), build::c(n - shift), vec![build::assign(ai.clone(), build::val(ai).add(build::val(bi)))])];
        let naive = lower_owner_computes(&s).unwrap();
        let (opt, _) = PassManager::paper_pipeline().run(&naive);

        let (v0, m0) = run(&naive, a, bvar, nprocs, n);
        let (v1, m1) = run(&opt, a, bvar, nprocs, n);
        for i in 0..n as usize {
            prop_assert!((v0[i] - v1[i]).abs() < 1e-12, "A[{}]: {} vs {}", i + 1, v0[i], v1[i]);
        }
        prop_assert!(m1 <= m0, "optimized moved more messages: {m1} > {m0}");
        // And both match the sequential semantics.
        for i in 1..=(n - shift) {
            let want = i as f64 + (3.0 * (i + shift) as f64 + 1.0);
            prop_assert!((v0[(i - 1) as usize] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn migration_equals_naive(
        nprocs in 2usize..5,
        chunks in 2i64..5,
        bd in dist_strategy(),
    ) {
        let n = nprocs as i64 * chunks;
        let grid = ProcGrid::linear(nprocs);
        let mut s = Program::new();
        let a = s.declare(build::array(
            "A", ElemType::F64, vec![(1, n)], vec![DimDist::Block], grid.clone(),
        ));
        let bvar = s.declare(build::array(
            "B", ElemType::F64, vec![(1, n)], vec![bd], grid,
        ));
        let ai = build::sref(a, vec![build::at(build::iv("i"))]);
        let bi = build::sref(bvar, vec![build::at(build::iv("i"))]);
        s.body = vec![build::do_loop("i", build::c(1), build::c(n), vec![build::assign(ai.clone(), build::val(ai).add(build::val(bi)))])];
        let naive = lower_owner_computes(&s).unwrap();
        let mig = xdp_compiler::passes::MigrateOwnership::default()
            .run(&naive)
            .program;
        let (v0, _) = run(&naive, a, bvar, nprocs, n);
        let (v1, _) = run(&mig, a, bvar, nprocs, n);
        prop_assert_eq!(v0, v1);
    }

    #[test]
    fn sim_and_threads_agree(
        nprocs in 2usize..4,
        chunks in 2i64..4,
        bd in dist_strategy(),
    ) {
        let n = nprocs as i64 * chunks;
        let grid = ProcGrid::linear(nprocs);
        let mut s = Program::new();
        let a = s.declare(build::array(
            "A", ElemType::F64, vec![(1, n)], vec![DimDist::Block], grid.clone(),
        ));
        let bvar = s.declare(build::array(
            "B", ElemType::F64, vec![(1, n)], vec![bd], grid,
        ));
        let ai = build::sref(a, vec![build::at(build::iv("i"))]);
        let bi = build::sref(bvar, vec![build::at(build::iv("i"))]);
        s.body = vec![build::do_loop("i", build::c(1), build::c(n), vec![build::assign(ai.clone(), build::val(ai).mul(build::val(bi)))])];
        let p = lower_owner_computes(&s).unwrap();
        let (vs, _) = run(&p, a, bvar, nprocs, n);

        let mut thr = AsyncExec::new(
            Arc::new(p),
            KernelRegistry::standard(),
            MachineConfig::new(nprocs),
        );
        thr.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        thr.init_exclusive(bvar, |idx| Value::F64(3.0 * idx[0] as f64 + 1.0));
        thr.run().expect("threads");
        let g = thr.gather(a);
        for i in 1..=n {
            prop_assert_eq!(
                g.get(&[i]).unwrap().as_f64(),
                vs[(i - 1) as usize],
                "i={}", i
            );
        }
    }
}
