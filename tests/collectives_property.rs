//! Property-based tests for the collectives subsystem: for random
//! (source, destination) distribution pairs and grid shapes, the planned
//! redistribution delivers every element exactly once, the executed
//! `redistribute` statement leaves each processor owning exactly its
//! destination-distribution sections and holding what the in-memory
//! reference of its plan puts there, and the simulator and the task-machine
//! backend agree bit-for-bit. A fixed grid of redistributions, machine
//! sizes, budgets and cost models pins, by digest, the plan the planner
//! picks and every processor's lowering of it.

use proptest::prelude::*;
use std::fmt::Write;
use std::sync::Arc;
use xdp::collectives;
use xdp::prelude::*;
use xdp_runtime::symtab::SecState;

fn dist_strategy() -> impl Strategy<Value = DimDist> {
    prop_oneof![
        Just(DimDist::Block),
        Just(DimDist::Cyclic),
        (2i64..4).prop_map(DimDist::BlockCyclic),
    ]
}

/// One vector per processor laid out by `bounds`: `7·i` at every index
/// `src` gives the processor, NaN elsewhere.
fn src_owned_data(src: &Distribution, bounds: &[Triplet], n: i64) -> Vec<Vec<f64>> {
    (0..src.nprocs())
        .map(|p| {
            let mut v = vec![f64::NAN; n as usize];
            for rect in src.owned_rects(bounds, p) {
                for pt in rect.iter() {
                    v[(pt[0] - 1) as usize] = 7.0 * pt[0] as f64;
                }
            }
            v
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The section algebra partitions the array: every element is in
    /// exactly one (src-owner, dst-owner) piece, and both planned schedules
    /// (packed and single-section) place every element on its destination.
    #[test]
    fn pieces_partition_and_plans_deliver(
        nprocs in 2usize..6,
        chunks in 2i64..5,
        ragged in 0i64..3,
        src_d in dist_strategy(),
        dst_d in dist_strategy(),
    ) {
        let n = nprocs as i64 * chunks + ragged;
        let bounds = [Triplet::range(1, n)];
        let grid = ProcGrid::linear(nprocs);
        let src = Distribution::new(vec![src_d], grid.clone());
        let dst = Distribution::new(vec![dst_d], grid);

        // Exactly-once partition.
        let pieces = collectives::redistribution_pieces(&bounds, &src, &dst);
        let mut hit = vec![0u32; n as usize];
        for p in &pieces {
            for pt in p.sec.iter() {
                hit[(pt[0] - 1) as usize] += 1;
            }
        }
        prop_assert!(hit.iter().all(|&h| h == 1), "partition: {hit:?}");

        // Both plan flavours deliver every element to its new owner.
        let bsec = Section::new(bounds.to_vec());
        let model = CostModel::default_1993();
        for single in [true, false] {
            let plan = collectives::plan(
                VarId(0), &bounds, 8, &src, &dst, &model, &Topology::Linear, single,
            );
            let mut data = src_owned_data(&src, &bounds, n);
            collectives::run_lockstep(&plan.schedule, &bsec, &mut data).unwrap();
            for (p, local) in data.iter().enumerate() {
                for rect in dst.owned_rects(&bounds, p) {
                    for pt in rect.iter() {
                        prop_assert_eq!(local[(pt[0] - 1) as usize], 7.0 * pt[0] as f64);
                    }
                }
            }
        }
    }

    /// Executing `redistribute` through the interpreter: values survive,
    /// final ownership matches the destination distribution exactly, and
    /// the simulator and task-machine backends produce identical arrays.
    #[test]
    fn redistribute_stmt_moves_ownership_on_both_backends(
        nprocs in 2usize..5,
        chunks in 2i64..5,
        src_d in dist_strategy(),
        dst_d in dist_strategy(),
    ) {
        let n = nprocs as i64 * chunks;
        let grid = ProcGrid::linear(nprocs);
        let mut p = Program::new();
        let a = p.declare(build::array(
            "A", ElemType::F64, vec![(1, n)], vec![src_d], grid.clone(),
        ));
        let dst = Distribution::new(vec![dst_d], grid);
        p.body = vec![build::redistribute(a, dst.clone())];
        prop_assert!(xdp_ir::validate(&p).is_empty());
        let p = Arc::new(p);

        let mut sim = SimExec::new(p.clone(), KernelRegistry::standard(), MachineConfig::new(nprocs));
        sim.init_exclusive(a, |idx| Value::F64(7.0 * idx[0] as f64));
        sim.run().expect("sim run");
        let g_sim = sim.gather(a);
        for i in 1..=n {
            prop_assert_eq!(g_sim.get(&[i]).expect("covered").as_f64(), 7.0 * i as f64);
        }
        // Ownership now follows the destination distribution.
        let bounds = [Triplet::range(1, n)];
        for pid in 0..nprocs {
            let mut owned = 0i64;
            for rect in dst.owned_rects(&bounds, pid) {
                prop_assert_eq!(
                    sim.interp_mut(pid).env.symtab.state_of(a, &rect),
                    SecState::Accessible,
                    "pid {} must own {} after redistribute", pid, rect
                );
                owned += rect.volume();
            }
            // ... and nothing else: every processor's holdings are exactly
            // its dst sections (total owned across pids is n, checked by
            // gather covering every index above).
            let _ = owned;
        }

        let mut thr = AsyncExec::new(p, KernelRegistry::standard(), MachineConfig::new(nprocs));
        thr.init_exclusive(a, |idx| Value::F64(7.0 * idx[0] as f64));
        thr.run().expect("task-machine run");
        let g_thr = thr.gather(a);
        for i in 1..=n {
            prop_assert_eq!(
                g_thr.get(&[i]).expect("covered").as_f64(),
                g_sim.get(&[i]).unwrap().as_f64()
            );
        }
    }

    /// The engine is what moves a planned redistribution: on `SimExec` the
    /// `redistribute` statement leaves every processor holding, at each
    /// index its destination distribution owns, the value the in-memory
    /// reference of the lowerable plan puts there; it sends exactly the
    /// plan's messages; and where both interconnects get the same schedule
    /// a linear array is never faster than a uniform net. (Where they get
    /// different ones it can be: BLOCK-CYCLIC(3) -> CYCLIC over 8 elements
    /// on 4 processors is staged on the uniform net, direct on the linear
    /// one, and the engine runs the direct plan sooner.)
    #[test]
    fn redistribute_stmt_matches_the_lockstep_reference_of_its_plan(
        nprocs in 2usize..6,
        chunks in 2i64..5,
        src_d in dist_strategy(),
        dst_d in dist_strategy(),
    ) {
        let n = nprocs as i64 * chunks;
        let bounds = [Triplet::range(1, n)];
        let bsec = Section::new(bounds.to_vec());
        let grid = ProcGrid::linear(nprocs);
        let src = Distribution::new(vec![src_d], grid.clone());
        let dst = Distribution::new(vec![dst_d], grid.clone());
        let mut p = Program::new();
        let a = p.declare(build::array("A", ElemType::F64, vec![(1, n)], vec![src_d], grid));
        p.body = vec![build::redistribute(a, dst.clone())];
        let p = Arc::new(p);

        let model = CostModel::default_1993();
        let mut ran = Vec::new();
        for topo in [Topology::Uniform, Topology::Linear] {
            let plan = collectives::plan(a, &bounds, 8, &src, &dst, &model, &topo, true);
            let mut want = src_owned_data(&src, &bounds, n);
            collectives::run_lockstep(&plan.schedule, &bsec, &mut want).unwrap();

            let cfg = MachineConfig::new(nprocs).with_cost(model).with_topo(topo);
            let mut sim = SimExec::new(p.clone(), KernelRegistry::standard(), cfg);
            sim.init_exclusive(a, |idx| Value::F64(7.0 * idx[0] as f64));
            let report = sim.run().expect("sim run");
            prop_assert_eq!(report.net.messages as usize, plan.schedule.message_count());
            for (pid, local) in want.iter().enumerate() {
                for rect in dst.owned_rects(&bounds, pid) {
                    for pt in rect.iter() {
                        let got = sim.interp_mut(pid).env.symtab.read(a, &pt);
                        prop_assert_eq!(
                            got.map(|v| v.as_f64()),
                            Some(local[(pt[0] - 1) as usize]),
                            "p{} at {:?}", pid, pt
                        );
                    }
                }
            }
            ran.push((plan.schedule, report.virtual_time));
        }
        let [(s_uni, t_uni), (s_lin, t_lin)] = &ran[..] else { unreachable!() };
        prop_assert!(s_uni != s_lin || t_lin >= t_uni, "linear {} < uniform {}", t_lin, t_uni);
    }

    /// Redistributing across grid shapes (rank-2 remaps, including
    /// transposed grids) keeps data intact.
    #[test]
    fn grid_shape_remaps_deliver(
        rows in 1usize..3,
        cols in 1usize..3,
        m in 2i64..4,
    ) {
        let nprocs = rows * cols;
        prop_assume!(nprocs > 1);
        let n = m * nprocs as i64;
        let mut p = Program::new();
        let a = p.declare(build::array(
            "A",
            ElemType::F64,
            vec![(1, n), (1, n)],
            vec![DimDist::Block, DimDist::Block],
            ProcGrid::grid2(rows, cols),
        ));
        let dst = Distribution::new(
            vec![DimDist::Block, DimDist::Block],
            ProcGrid::grid2(cols, rows),
        );
        p.body = vec![build::redistribute(a, dst)];
        prop_assert!(xdp_ir::validate(&p).is_empty());

        let mut sim = SimExec::new(
            Arc::new(p),
            KernelRegistry::standard(),
            MachineConfig::new(nprocs),
        );
        sim.init_exclusive(a, |idx| Value::F64((idx[0] * 100 + idx[1]) as f64));
        sim.run().expect("sim run");
        let g = sim.gather(a);
        for i in 1..=n {
            for j in 1..=n {
                prop_assert_eq!(
                    g.get(&[i, j]).expect("covered").as_f64(),
                    (i * 100 + j) as f64
                );
            }
        }
    }
}

/// FNV-1a over a rendered plan: a digest that is the same on every build.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A label, the bounds, and the source and target per-dimension
/// distributions of one redistribution.
type Remap = (String, Vec<(i64, i64)>, Vec<DimDist>, Vec<DimDist>);

/// The redistributions the planner is pinned on: BLOCK, CYCLIC and
/// BLOCK-CYCLIC(3) against each other at n = 8 and 64, the 16x16
/// transpose, and `membound.xdp`'s incommensurate reblock.
fn pinned_remaps() -> Vec<Remap> {
    use DimDist::{Block, BlockCyclic, Cyclic, Star};
    let one_d = [
        ("BLOCK", Block),
        ("CYCLIC", Cyclic),
        ("CYCLIC(3)", BlockCyclic(3)),
    ];
    let mut out = Vec::new();
    for n in [8, 64] {
        for (s, sd) in one_d {
            for (d, dd) in one_d.into_iter().filter(|(d, _)| *d != s) {
                out.push((format!("n{n} {s}>{d}"), vec![(1, n)], vec![sd], vec![dd]));
            }
        }
    }
    out.push((
        "16x16 (*,BLOCK)>(BLOCK,*)".into(),
        vec![(1, 16), (1, 16)],
        vec![Star, Block],
        vec![Block, Star],
    ));
    out.push((
        "64x64 (*,BLOCK)>(CYCLIC(6),*)".into(),
        vec![(1, 64), (1, 64)],
        vec![Star, Block],
        vec![BlockCyclic(6), Star],
    ));
    out
}

/// One digest of everything a plan decides that a `redistribute` runs or
/// `xdpc plan` reports: strategy, predicted bits, peak bytes, discipline,
/// moved elements, the frontier and the priced alternatives, the schedule
/// as `xdpc plan` prints it, and, for a single-section plan, every processor's lowered
/// statements as the pretty-printer writes them.
fn plan_digest(prog: &Program, plan: &RedistPlan) -> u32 {
    let mut s = format!(
        "{} {:x} {} {} {}\n",
        plan.strategy,
        plan.predicted.to_bits(),
        plan.peak_bytes,
        plan.synchronized,
        plan.moved_elems
    );
    for f in &plan.frontier {
        let (st, t, peak, chosen) = (f.strategy, f.predicted.to_bits(), f.peak_bytes, f.chosen);
        writeln!(s, "frontier {st} {t:x} {peak} {chosen}").unwrap();
    }
    for (st, c) in &plan.alternatives {
        writeln!(s, "alt {st} {:x}", c.to_bits()).unwrap();
    }
    write!(s, "{}", plan.schedule).unwrap();
    // Only single-section plans lower to transfer statements.
    if plan.schedule.transfers().all(|t| t.secs.len() == 1) {
        for pid in 0..plan.schedule.nprocs {
            writeln!(s, "p{pid}").unwrap();
            for st in collectives::lower_redistribute_for_pid(plan, pid, 1 << 20) {
                s.push_str(&xdp::ir::pretty::stmt(prog, &st, 1));
            }
        }
    }
    fnv(&s) as u32
}

/// One row per (redistribution, P, budget): eight digests, for
/// single-section true then false, each over uniform then linear, each at
/// α = 1 then 3000. The budgets are none, 4096 bytes, and the smallest
/// that fits (what a 1-byte budget's refusal names).
fn plan_pin_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for (label, bounds, src_d, dst_d) in pinned_remaps() {
        for nprocs in [2, 3, 4, 8] {
            let grid = ProcGrid::linear(nprocs);
            let mut prog = Program::new();
            let decl = build::array(
                "A",
                ElemType::F64,
                bounds.clone(),
                src_d.clone(),
                grid.clone(),
            );
            let (tr, src) = (decl.bounds.clone(), decl.dist.clone().unwrap());
            let a = prog.declare(decl);
            let dst = Distribution::new(dst_d.clone(), grid);
            for budget in ["none", "4096", "smallest"] {
                let mut row = format!("{label} P{nprocs} {budget}");
                for single in [true, false] {
                    for topo in [Topology::Uniform, Topology::Linear] {
                        for alpha in [1.0, 3000.0] {
                            let model = CostModel {
                                alpha,
                                ..CostModel::default_1993()
                            };
                            let at = |m: &CostModel| {
                                collectives::try_plan(a, &tr, 8, &src, &dst, m, &topo, single)
                            };
                            let model = match budget {
                                "none" => model,
                                "4096" => model.with_mem_budget(4096),
                                _ => model.with_mem_budget(match at(&model.with_mem_budget(1)) {
                                    Err(collectives::PlanError::NoPlanFits {
                                        smallest_feasible,
                                        ..
                                    }) => smallest_feasible,
                                    Ok(_) => 1,
                                }),
                            };
                            let pl =
                                collectives::plan(a, &tr, 8, &src, &dst, &model, &topo, single);
                            write!(row, " {:08x}", plan_digest(&prog, &pl)).unwrap();
                        }
                    }
                }
                rows.push(row);
            }
        }
    }
    rows
}

/// What the planner makes of every pinned redistribution — the plan it
/// picks, what it reports, and what every processor runs — does not move
/// when the planner's code is rearranged.
#[test]
fn plans_and_their_lowering_are_pinned() {
    let got = plan_pin_rows();
    let want: Vec<&str> = PLAN_PINS.lines().map(str::trim).collect();
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

const PLAN_PINS: &str = "\
    n8 BLOCK>CYCLIC P2 none 15f08264 dab6fde8 15f08264 dab6fde8 15f08264 dab6fde8 15f08264 dab6fde8
    n8 BLOCK>CYCLIC P2 4096 3ebc65b4 bbcd6502 3ebc65b4 bbcd6502 3ebc65b4 bbcd6502 3ebc65b4 bbcd6502
    n8 BLOCK>CYCLIC P2 smallest a0550c9d 118ee2fc a0550c9d 118ee2fc a0550c9d 118ee2fc a0550c9d 118ee2fc
    n8 BLOCK>CYCLIC P3 none 987f5b06 cc5d91b9 bf5cfb3e 3e8606da 987f5b06 cc5d91b9 bf5cfb3e 3e8606da
    n8 BLOCK>CYCLIC P3 4096 9a491329 303e1ee0 4c833325 4db7e560 9a491329 303e1ee0 4c833325 4db7e560
    n8 BLOCK>CYCLIC P3 smallest 0c1d9082 23ab68ef e01d5492 4ffa27b2 0c1d9082 23ab68ef e01d5492 4ffa27b2
    n8 BLOCK>CYCLIC P4 none 81583755 c6c3db9d 222dcdf9 6726540b 81583755 c6c3db9d 222dcdf9 6726540b
    n8 BLOCK>CYCLIC P4 4096 860f56dd 33eb8fe6 71892235 e5c44886 860f56dd 33eb8fe6 71892235 e5c44886
    n8 BLOCK>CYCLIC P4 smallest 53f965d8 8a8bfb8d cbd5c6a0 60b30961 53f965d8 8a8bfb8d cbd5c6a0 60b30961
    n8 BLOCK>CYCLIC P8 none a24beda4 a24beda4 a24beda4 a24beda4 a24beda4 a24beda4 a24beda4 a24beda4
    n8 BLOCK>CYCLIC P8 4096 fd561079 fd561079 fd561079 fd561079 fd561079 fd561079 fd561079 fd561079
    n8 BLOCK>CYCLIC P8 smallest fd561079 fd561079 fd561079 fd561079 fd561079 fd561079 fd561079 fd561079
    n8 BLOCK>CYCLIC(3) P2 none 55b9c045 f380c901 55b9c045 f380c901 55b9c045 f380c901 55b9c045 f380c901
    n8 BLOCK>CYCLIC(3) P2 4096 4e7e9f8d e39d141b 4e7e9f8d e39d141b 4e7e9f8d e39d141b 4e7e9f8d e39d141b
    n8 BLOCK>CYCLIC(3) P2 smallest 75c8462f 24ac71ae 75c8462f 24ac71ae 75c8462f 24ac71ae 75c8462f 24ac71ae
    n8 BLOCK>CYCLIC(3) P3 none 8d89259c 8d89259c 8d89259c 8d89259c 8d89259c 8d89259c 8d89259c 8d89259c
    n8 BLOCK>CYCLIC(3) P3 4096 f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb
    n8 BLOCK>CYCLIC(3) P3 smallest f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb
    n8 BLOCK>CYCLIC(3) P4 none fcb4afae 4885ab1a a30458a5 2ad5d326 fcb4afae 4885ab1a a30458a5 2ad5d326
    n8 BLOCK>CYCLIC(3) P4 4096 2b6c23e0 629ce896 887decbd 91e5c81a 2b6c23e0 629ce896 887decbd 91e5c81a
    n8 BLOCK>CYCLIC(3) P4 smallest 36525a3d ec6e7680 6e9e2cf2 5775f6cc 36525a3d ec6e7680 6e9e2cf2 5775f6cc
    n8 BLOCK>CYCLIC(3) P8 none cf400f9d 4babdedb 8b6c89e4 7c657fbe d3f223fc 202cedae 1beb7a3e 3099cd3a
    n8 BLOCK>CYCLIC(3) P8 4096 c426665e f83906d9 af43dffa 2e498a0c 68503b4f 3542adc0 77d5cd48 f78d57c8
    n8 BLOCK>CYCLIC(3) P8 smallest c34315ac dc2fd132 2efa5e97 1371cb89 623333c1 fad02243 e0a23ec9 46fa162d
    n8 CYCLIC>BLOCK P2 none 888e77f4 674d0328 888e77f4 674d0328 888e77f4 674d0328 888e77f4 674d0328
    n8 CYCLIC>BLOCK P2 4096 6cb6a084 3f7e4fba 6cb6a084 3f7e4fba 6cb6a084 3f7e4fba 6cb6a084 3f7e4fba
    n8 CYCLIC>BLOCK P2 smallest f825a2ad 956045d4 f825a2ad 956045d4 f825a2ad 956045d4 f825a2ad 956045d4
    n8 CYCLIC>BLOCK P3 none badc9d6e 5cba42d9 8cf1fa06 53e2dda2 badc9d6e 5cba42d9 8cf1fa06 53e2dda2
    n8 CYCLIC>BLOCK P3 4096 45424461 5bdcd358 63b67a4d 795699d8 45424461 5bdcd358 63b67a4d 795699d8
    n8 CYCLIC>BLOCK P3 smallest ea10be12 2caed59f 5e302d22 f9ffebc2 ea10be12 2caed59f 5e302d22 f9ffebc2
    n8 CYCLIC>BLOCK P4 none ad00fe6e e1c7d5bd ef9a66ae 2e743a95 685e05a8 e87e1278 aa3750f5 0fc830ea
    n8 CYCLIC>BLOCK P4 4096 4334a0d7 6d917e22 83920887 a4614722 83c3a4d2 3d235c63 64f89a1f e74766c5
    n8 CYCLIC>BLOCK P4 smallest 78d96f31 36423878 7ada5109 0946ff74 79c6e7a8 a5ee6fad cb64d479 e3553b83
    n8 CYCLIC>BLOCK P8 none a24beda4 a24beda4 a24beda4 a24beda4 a24beda4 a24beda4 a24beda4 a24beda4
    n8 CYCLIC>BLOCK P8 4096 fd561079 fd561079 fd561079 fd561079 fd561079 fd561079 fd561079 fd561079
    n8 CYCLIC>BLOCK P8 smallest fd561079 fd561079 fd561079 fd561079 fd561079 fd561079 fd561079 fd561079
    n8 CYCLIC>CYCLIC(3) P2 none 69ec4879 00e97364 69ec4879 00e97364 69ec4879 00e97364 69ec4879 00e97364
    n8 CYCLIC>CYCLIC(3) P2 4096 ff8d339b b0a44574 ff8d339b b0a44574 ff8d339b b0a44574 ff8d339b b0a44574
    n8 CYCLIC>CYCLIC(3) P2 smallest ff8d339b b0a44574 ff8d339b b0a44574 ff8d339b b0a44574 ff8d339b b0a44574
    n8 CYCLIC>CYCLIC(3) P3 none badc9d6e 5cba42d9 8cf1fa06 53e2dda2 badc9d6e 5cba42d9 8cf1fa06 53e2dda2
    n8 CYCLIC>CYCLIC(3) P3 4096 45424461 5bdcd358 63b67a4d 795699d8 45424461 5bdcd358 63b67a4d 795699d8
    n8 CYCLIC>CYCLIC(3) P3 smallest ea10be12 2caed59f 5e302d22 f9ffebc2 ea10be12 2caed59f 5e302d22 f9ffebc2
    n8 CYCLIC>CYCLIC(3) P4 none b3b7ac35 9288addf b3b7ac35 4b2c2ebe 9c71f53d bb2960c6 51f3ec97 32d0f354
    n8 CYCLIC>CYCLIC(3) P4 4096 2bb24cb7 3bdf87fe 2bb24cb7 626800b4 c127bd6a 25f3df4c c00f8690 d111bff6
    n8 CYCLIC>CYCLIC(3) P4 smallest a357d741 47c3ab53 a357d741 16faeba4 26b911e8 dc8a50e5 449dc9d6 143a903e
    n8 CYCLIC>CYCLIC(3) P8 none cf400f9d 4babdedb 8b6c89e4 7c657fbe d3f223fc 202cedae 1beb7a3e 3099cd3a
    n8 CYCLIC>CYCLIC(3) P8 4096 c426665e f83906d9 af43dffa 2e498a0c 68503b4f 3542adc0 77d5cd48 f78d57c8
    n8 CYCLIC>CYCLIC(3) P8 smallest c34315ac dc2fd132 2efa5e97 1371cb89 623333c1 fad02243 e0a23ec9 46fa162d
    n8 CYCLIC(3)>BLOCK P2 none 01389b8b ba6a9b07 01389b8b ba6a9b07 01389b8b ba6a9b07 01389b8b ba6a9b07
    n8 CYCLIC(3)>BLOCK P2 4096 7a1cf913 d9e79e21 7a1cf913 d9e79e21 7a1cf913 d9e79e21 7a1cf913 d9e79e21
    n8 CYCLIC(3)>BLOCK P2 smallest 1b04d884 a3fb066d 1b04d884 a3fb066d 1b04d884 a3fb066d 1b04d884 a3fb066d
    n8 CYCLIC(3)>BLOCK P3 none 8d89259c 8d89259c 8d89259c 8d89259c 8d89259c 8d89259c 8d89259c 8d89259c
    n8 CYCLIC(3)>BLOCK P3 4096 f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb
    n8 CYCLIC(3)>BLOCK P3 smallest f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb f3b735fb
    n8 CYCLIC(3)>BLOCK P4 none 32c70fe2 d24563be 32c70fe2 d24563be 32c70fe2 d24563be 32c70fe2 d24563be
    n8 CYCLIC(3)>BLOCK P4 4096 c520cc3a cd635588 c520cc3a cd635588 c520cc3a cd635588 c520cc3a cd635588
    n8 CYCLIC(3)>BLOCK P4 smallest e2bcabbf f8559a8e e2bcabbf f8559a8e e2bcabbf f8559a8e e2bcabbf f8559a8e
    n8 CYCLIC(3)>BLOCK P8 none d8d769d8 3a8334ab 83cb3e3e ccfa3367 d8d769d8 3a8334ab 83cb3e3e ccfa3367
    n8 CYCLIC(3)>BLOCK P8 4096 583cd052 b16964d8 f63cc027 b57c6a9c 583cd052 b16964d8 f63cc027 b57c6a9c
    n8 CYCLIC(3)>BLOCK P8 smallest d7ebafdf f675d182 8c4b2cd9 a5004e94 d7ebafdf f675d182 8c4b2cd9 a5004e94
    n8 CYCLIC(3)>CYCLIC P2 none ef6560f6 b1ae07db ef6560f6 b1ae07db ef6560f6 b1ae07db ef6560f6 b1ae07db
    n8 CYCLIC(3)>CYCLIC P2 4096 71eb2fb0 d951612b 71eb2fb0 d951612b 71eb2fb0 d951612b 71eb2fb0 d951612b
    n8 CYCLIC(3)>CYCLIC P2 smallest 71eb2fb0 d951612b 71eb2fb0 d951612b 71eb2fb0 d951612b 71eb2fb0 d951612b
    n8 CYCLIC(3)>CYCLIC P3 none 987f5b06 cc5d91b9 bf5cfb3e 3e8606da 987f5b06 cc5d91b9 bf5cfb3e 3e8606da
    n8 CYCLIC(3)>CYCLIC P3 4096 9a491329 303e1ee0 4c833325 4db7e560 9a491329 303e1ee0 4c833325 4db7e560
    n8 CYCLIC(3)>CYCLIC P3 smallest 0c1d9082 23ab68ef e01d5492 4ffa27b2 0c1d9082 23ab68ef e01d5492 4ffa27b2
    n8 CYCLIC(3)>CYCLIC P4 none 9da08a97 ea745778 0955197d 6732df3a 9da08a97 ea745778 0955197d 6732df3a
    n8 CYCLIC(3)>CYCLIC P4 4096 514e7a42 d502cb90 14d0f978 38c7de65 514e7a42 d502cb90 14d0f978 38c7de65
    n8 CYCLIC(3)>CYCLIC P4 smallest 7ced474d 37af3fde 55948abf 3d843f94 7ced474d 37af3fde 55948abf 3d843f94
    n8 CYCLIC(3)>CYCLIC P8 none d8d769d8 3a8334ab 83cb3e3e ccfa3367 d8d769d8 3a8334ab 83cb3e3e ccfa3367
    n8 CYCLIC(3)>CYCLIC P8 4096 583cd052 b16964d8 f63cc027 b57c6a9c 583cd052 b16964d8 f63cc027 b57c6a9c
    n8 CYCLIC(3)>CYCLIC P8 smallest d7ebafdf f675d182 8c4b2cd9 a5004e94 d7ebafdf f675d182 8c4b2cd9 a5004e94
    n64 BLOCK>CYCLIC P2 none 351afe17 de3cff63 351afe17 de3cff63 351afe17 de3cff63 351afe17 de3cff63
    n64 BLOCK>CYCLIC P2 4096 abc20692 1f965e20 abc20692 1f965e20 abc20692 1f965e20 abc20692 1f965e20
    n64 BLOCK>CYCLIC P2 smallest 236504aa 70be2dc5 236504aa 70be2dc5 236504aa 70be2dc5 236504aa 70be2dc5
    n64 BLOCK>CYCLIC P3 none f274a7a7 0a22f851 405b872f 2450ac31 f274a7a7 0a22f851 405b872f 2450ac31
    n64 BLOCK>CYCLIC P3 4096 46be63eb 0901c613 d8a5d239 55afa7df 46be63eb 0901c613 d8a5d239 55afa7df
    n64 BLOCK>CYCLIC P3 smallest 589b3518 9e05e225 ea61283a 7cd2b78f 589b3518 9e05e225 ea61283a 7cd2b78f
    n64 BLOCK>CYCLIC P4 none 5ccb76c3 73edf195 95195eb6 275ef251 b7055418 0f275d17 f924357f b98ffa79
    n64 BLOCK>CYCLIC P4 4096 c121ead6 6f3bce2c 726b2840 98d3b074 d8c21ade 00c81d7a 45216ce5 861368a0
    n64 BLOCK>CYCLIC P4 smallest e87f3977 3bfb4f47 5deacf21 37d1563d 6c2e9f7c 9a2afe55 8f1c2a8e f1718a6d
    n64 BLOCK>CYCLIC P8 none 9e534fbd 8d65dcbe 4deabd62 d001fd1e 711d65e6 221e909a 91704fb8 08456b8e
    n64 BLOCK>CYCLIC P8 4096 5ac385c1 926bda3b 67ec021b 1ff2f527 26d0944d 7490cb63 73c86f2f 02de9db7
    n64 BLOCK>CYCLIC P8 smallest 5b39449d 6792f81c c5a0dcb0 a065062c 5f36df52 db787e62 68d1950b f361b63a
    n64 BLOCK>CYCLIC(3) P2 none 1d26c51f 96f81d66 1d26c51f 96f81d66 1d26c51f 96f81d66 1d26c51f 96f81d66
    n64 BLOCK>CYCLIC(3) P2 4096 9a991e3b d267f7aa 9a991e3b d267f7aa 9a991e3b d267f7aa 9a991e3b d267f7aa
    n64 BLOCK>CYCLIC(3) P2 smallest f76d7a5f 094a0f88 f76d7a5f 094a0f88 f76d7a5f 094a0f88 f76d7a5f 094a0f88
    n64 BLOCK>CYCLIC(3) P3 none 09e8ac46 451e1af1 09e8ac46 dddde0a1 a7c7d688 34bbca08 a7c7d688 873a48d0
    n64 BLOCK>CYCLIC(3) P3 4096 b2120854 4d01d5ce b2120854 b1f96fcd f6b0780a 05d525fe f6b0780a aac2db99
    n64 BLOCK>CYCLIC(3) P3 smallest 612d9637 2c5f18c2 612d9637 40bfab8e 15ed55ce e8c8937e 15ed55ce eb35cd44
    n64 BLOCK>CYCLIC(3) P4 none 00f47ecd 68c243f3 a9530484 c38f8767 4551c2ed e7bb2b5c b4c339d4 03b3edd1
    n64 BLOCK>CYCLIC(3) P4 4096 ae999786 81d1a795 6be52dd0 f1571731 bbcdf2e1 217b2e08 0391cb2c b9380c40
    n64 BLOCK>CYCLIC(3) P4 smallest 60e02d79 a5ae3582 6f564509 63cd10d5 f43fbeba b78d1b29 17762962 c9747ad6
    n64 BLOCK>CYCLIC(3) P8 none 3698de30 f4cb4ffd 5867d87d b9082f7b 9b64e9af b1e28375 dd872eea 90290e55
    n64 BLOCK>CYCLIC(3) P8 4096 4fed406c a3104e0b 6cb702bf 2c30f885 11494b28 f3552c94 bfaac692 7c19f712
    n64 BLOCK>CYCLIC(3) P8 smallest 67b3272d 2a49449f b8f8f3c3 ea1b6fc9 7096d87c 7398cb78 4feba148 2f7ee302
    n64 CYCLIC>BLOCK P2 none a9b6750b 91b3cc77 a9b6750b 91b3cc77 a9b6750b 91b3cc77 a9b6750b 91b3cc77
    n64 CYCLIC>BLOCK P2 4096 32258fe6 12c1c8ec 32258fe6 12c1c8ec 32258fe6 12c1c8ec 32258fe6 12c1c8ec
    n64 CYCLIC>BLOCK P2 smallest 1cecb3c2 3dc8c3f5 1cecb3c2 3dc8c3f5 1cecb3c2 3dc8c3f5 1cecb3c2 3dc8c3f5
    n64 CYCLIC>BLOCK P3 none 2e3f6765 1fe73167 7dd227ad 53a20ec7 2e3f6765 1fe73167 7dd227ad 53a20ec7
    n64 CYCLIC>BLOCK P3 4096 e31a8ca7 17d38c13 67443ba5 14fd517b e31a8ca7 17d38c13 67443ba5 14fd517b
    n64 CYCLIC>BLOCK P3 smallest b6873e41 17a610b4 378c6df7 3e4bf216 b6873e41 17a610b4 378c6df7 3e4bf216
    n64 CYCLIC>BLOCK P4 none 6fa559a1 a0b41a6b b1d77210 cd210f37 9c365b94 d8ff0f0b 554d1133 5bea1a8d
    n64 CYCLIC>BLOCK P4 4096 6dcde688 2555205e da3e4982 222110c6 1662b02a e890b0cc 14400211 403543e2
    n64 CYCLIC>BLOCK P4 smallest b4b84f07 089f7757 ee154231 a5c9884d 887f9acc eb131945 6ae0bbf6 cc867ffd
    n64 CYCLIC>BLOCK P8 none 0e026429 8b67d0ba c7d436ee 5240e39a 6f0a0ff4 dc065b88 dec08b96 8646ec1c
    n64 CYCLIC>BLOCK P8 4096 ed7d2dff f931e209 7d7a4a69 48b745b5 aa421ac7 2a4e6cd1 65597149 c6d74cc5
    n64 CYCLIC>BLOCK P8 smallest 9ae9a889 4f012008 36a0644c f8ea0dd8 6d51425e 12fa846e 042e30c7 4f354fe6
    n64 CYCLIC>CYCLIC(3) P2 none b87577cc 31fd5f29 b87577cc 31fd5f29 b87577cc 31fd5f29 b87577cc 31fd5f29
    n64 CYCLIC>CYCLIC(3) P2 4096 8937e733 34e49f6e 8937e733 34e49f6e 8937e733 34e49f6e 8937e733 34e49f6e
    n64 CYCLIC>CYCLIC(3) P2 smallest 8937e733 34e49f6e 8937e733 34e49f6e 8937e733 34e49f6e 8937e733 34e49f6e
    n64 CYCLIC>CYCLIC(3) P3 none b739c433 92166265 b739c433 14fc196a e97e483e 09aaea22 a539d7c6 3d7f38a1
    n64 CYCLIC>CYCLIC(3) P3 4096 1839ed14 47b57f98 1839ed14 edc34d39 abd7b561 9b80ef67 e6bba359 1709a927
    n64 CYCLIC>CYCLIC(3) P3 smallest 1839ed14 fbbf380f 1839ed14 272b4420 abd7b561 07f6a490 e6bba359 97cc4de1
    n64 CYCLIC>CYCLIC(3) P4 none 1fa8926a c8756134 1fa8926a f7b13c6e 34200cd6 5714bfff e7e46599 f75cfb06
    n64 CYCLIC>CYCLIC(3) P4 4096 6d36dfbe 854879cd 6d36dfbe 7dbdf101 bd8216db 2260a0a4 984579e2 378b8733
    n64 CYCLIC>CYCLIC(3) P4 smallest 40c7d532 372f32e0 40c7d532 0647d47a d36e505c c99764f1 5a4b06c4 de54ed70
    n64 CYCLIC>CYCLIC(3) P8 none db2a5d31 d53f9829 4f03cc15 b4738c00 1b1a912d 6a1c0d27 d93db4c2 ae457df2
    n64 CYCLIC>CYCLIC(3) P8 4096 7f7507b3 53ce3379 ace6b0ef ade17726 4986ee61 791d65c2 1cbbc704 12203898
    n64 CYCLIC>CYCLIC(3) P8 smallest cc92af6f 825b0d87 b9097723 8b197d02 43f45675 27403f24 aaab9dd1 2f4c3c10
    n64 CYCLIC(3)>BLOCK P2 none 3568d9b0 85cd32b5 3568d9b0 85cd32b5 3568d9b0 85cd32b5 3568d9b0 85cd32b5
    n64 CYCLIC(3)>BLOCK P2 4096 fa836d1c 2c831479 fa836d1c 2c831479 fa836d1c 2c831479 fa836d1c 2c831479
    n64 CYCLIC(3)>BLOCK P2 smallest b742327a 615d8b15 b742327a 615d8b15 b742327a 615d8b15 b742327a 615d8b15
    n64 CYCLIC(3)>BLOCK P3 none 5f2ac84c d17a741b 5f2ac84c 6744750b 1d4eb89a 21b72932 1d4eb89a b52ffb9a
    n64 CYCLIC(3)>BLOCK P3 4096 5ceedd26 9c62c871 5ceedd26 bba5744c 22bb9364 30b0f3dd 22bb9364 982262f8
    n64 CYCLIC(3)>BLOCK P3 smallest fd766dde 2687c7b4 fd766dde 7d4f8bf4 7d0630b7 379a285c 7d0630b7 79c6abce
    n64 CYCLIC(3)>BLOCK P4 none 8f63c1c0 4e7d99a3 544dd638 f90448d7 ccbf64ae 93830fa0 dbbfc9da 087f02ee
    n64 CYCLIC(3)>BLOCK P4 4096 c4d95a92 5ad7ff12 ae3f4832 c31698bb 65a69cac 6718c16c f63d8104 e462939f
    n64 CYCLIC(3)>BLOCK P4 smallest e85b0d41 9d0a44fe 1abee119 17a95b6b 0c817363 c8276c64 bd39fbf3 29348367
    n64 CYCLIC(3)>BLOCK P8 none aa934e5d 7c0762f4 dfa3eb74 c10b6ad2 b07e656f 0b906503 7da85d35 654c9655
    n64 CYCLIC(3)>BLOCK P8 4096 8e955071 e68f76da 099c4581 4720edfe 4c7a2e71 0cee8234 97f4a788 2b04a7b2
    n64 CYCLIC(3)>BLOCK P8 smallest 208a19ee 86463d96 062b59be 216efc1d 52e06150 0a9cbe54 388be6ea bd06d36d
    n64 CYCLIC(3)>CYCLIC P2 none c889b1dd 2357c5ec c889b1dd 2357c5ec c889b1dd 2357c5ec c889b1dd 2357c5ec
    n64 CYCLIC(3)>CYCLIC P2 4096 67018dc6 382186d7 67018dc6 382186d7 67018dc6 382186d7 67018dc6 382186d7
    n64 CYCLIC(3)>CYCLIC P2 smallest 67018dc6 382186d7 67018dc6 382186d7 67018dc6 382186d7 67018dc6 382186d7
    n64 CYCLIC(3)>CYCLIC P3 none 0d582845 a0bc292f 0d582845 12bfed00 726634a6 f677b4ca f3e8832e 4a49228d
    n64 CYCLIC(3)>CYCLIC P3 4096 79b9985e 60e01e08 79b9985e 87fa737d e29cd74d 522fb313 379beea5 0ab798d3
    n64 CYCLIC(3)>CYCLIC P3 smallest 79b9985e bd58ce65 79b9985e a5dca9ba e29cd74d 8d1d8010 379beea5 ce916fcd
    n64 CYCLIC(3)>CYCLIC P4 none fd7166d9 54cfd393 fd7166d9 302f073d c000bd9f 966d3ae8 1241fc36 f8b1323b
    n64 CYCLIC(3)>CYCLIC P4 4096 421b5018 90992cdc 421b5018 8f4b22e8 f34f4f4b 8b303e6a 1432ef24 0d16ed18
    n64 CYCLIC(3)>CYCLIC P4 smallest b1668e07 6e0161ed b1668e07 3d8b9b0b b350e638 2b1b73f5 462c7bc8 ddcfd09f
    n64 CYCLIC(3)>CYCLIC P8 none b8c32659 d0957d6a ba9726b6 55045027 1be810ae f27bda10 22f2c3bf a45cc36b
    n64 CYCLIC(3)>CYCLIC P8 4096 b052ae7c 8c97dbeb 3ba38db0 d4c4afcd 9a83696c 9c36533f 56df77f9 ff935665
    n64 CYCLIC(3)>CYCLIC P8 smallest 4e5f2741 e6525c2e 2f39a978 8b708825 38d0eecd 983bcb54 4d4aa4e2 a1741caf
    16x16 (*,BLOCK)>(BLOCK,*) P2 none 9dd3701f bcff6bff 9dd3701f bcff6bff 9dd3701f bcff6bff 9dd3701f bcff6bff
    16x16 (*,BLOCK)>(BLOCK,*) P2 4096 cdc28bbe df88e292 cdc28bbe df88e292 cdc28bbe df88e292 cdc28bbe df88e292
    16x16 (*,BLOCK)>(BLOCK,*) P2 smallest cdc28bbe df88e292 cdc28bbe df88e292 cdc28bbe df88e292 cdc28bbe df88e292
    16x16 (*,BLOCK)>(BLOCK,*) P3 none 8e75167f b9b48c2f 8e75167f 706b31b7 8e75167f b9b48c2f 8e75167f 706b31b7
    16x16 (*,BLOCK)>(BLOCK,*) P3 4096 230a5825 ed9c65ad c2970bde 4bc3eb23 230a5825 ed9c65ad c2970bde 4bc3eb23
    16x16 (*,BLOCK)>(BLOCK,*) P3 smallest c3ec1fe7 8a1aa4f1 bc30eb9a ab4f533e c3ec1fe7 8a1aa4f1 bc30eb9a ab4f533e
    16x16 (*,BLOCK)>(BLOCK,*) P4 none 1d3ea81b c8397dae c2654a33 f8600885 423ccd55 9e5d6ef1 88e28e43 33f5defa
    16x16 (*,BLOCK)>(BLOCK,*) P4 4096 4010946f 340399b2 2cf15a89 c3c854a7 41542ece 824a2911 7f11621a fa689e87
    16x16 (*,BLOCK)>(BLOCK,*) P4 smallest bf17c85e 4fd6ece7 9557dd0a eebae3ac 5e2559db 7c040430 090611a1 5151eecc
    16x16 (*,BLOCK)>(BLOCK,*) P8 none c37200af 8cb12c7f 9540b7b2 315fdade 28f8704d 717132da 5911645c b183067c
    16x16 (*,BLOCK)>(BLOCK,*) P8 4096 9d9a022e a70f2bda 7085fa2c df29211e 7fcfe413 2e4436b2 418d43fc 54d1277e
    16x16 (*,BLOCK)>(BLOCK,*) P8 smallest f3d4497b 377e03bf 89724090 c9b871e8 97367442 92ded6a5 68930ea5 2fcee0f0
    64x64 (*,BLOCK)>(CYCLIC(6),*) P2 none 1822cf71 6917dead 1822cf71 6917dead 1822cf71 6917dead 1822cf71 6917dead
    64x64 (*,BLOCK)>(CYCLIC(6),*) P2 4096 82e435e1 eaf85248 82e435e1 eaf85248 82e435e1 eaf85248 82e435e1 eaf85248
    64x64 (*,BLOCK)>(CYCLIC(6),*) P2 smallest 82e435e1 eaf85248 82e435e1 eaf85248 82e435e1 eaf85248 82e435e1 eaf85248
    64x64 (*,BLOCK)>(CYCLIC(6),*) P3 none 732f36e4 3e983f67 732f36e4 befb174c 81be3874 d7f555df 81be3874 78bdbfb4
    64x64 (*,BLOCK)>(CYCLIC(6),*) P3 4096 6b672eae 597bf9dc f3e03810 36a9c240 9fe32132 d03f7ca8 61860a04 6949a1e0
    64x64 (*,BLOCK)>(CYCLIC(6),*) P3 smallest 6b672eae 597bf9dc f3e03810 36a9c240 9fe32132 d03f7ca8 61860a04 6949a1e0
    64x64 (*,BLOCK)>(CYCLIC(6),*) P4 none a193502f 4baf7fb1 bc3d764c 1ca2b893 1ba715cd 13f951ac 918a33bf 3194e102
    64x64 (*,BLOCK)>(CYCLIC(6),*) P4 4096 c06c6eae 3d8b49ca 482a758b 2a98e9b0 b7397050 722b98c4 e6c68816 e83d6728
    64x64 (*,BLOCK)>(CYCLIC(6),*) P4 smallest c06c6eae 3d8b49ca 482a758b 2a98e9b0 b7397050 722b98c4 e6c68816 e83d6728
    64x64 (*,BLOCK)>(CYCLIC(6),*) P8 none 537c91c0 fc29dcaf f54e334b 131e3c0d 05893c04 f997f382 15523f49 70a860da
    64x64 (*,BLOCK)>(CYCLIC(6),*) P8 4096 a84185f0 45408610 cb67979e b0d99898 7f573914 41d40831 2f4ed74c 95ccb59d
    64x64 (*,BLOCK)>(CYCLIC(6),*) P8 smallest a84185f0 45408610 cb67979e b0d99898 7f573914 41d40831 2f4ed74c 95ccb59d
";
