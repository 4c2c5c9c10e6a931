//! Cross-crate round trips: every program the compiler can produce must
//! survive pretty-print -> parse -> pretty-print unchanged, and the parsed
//! program must execute identically to the original.

use std::sync::Arc;
use xdp::prelude::*;
use xdp_compiler::passes::{BindCommunication, MigrateOwnership};
use xdp_ir::pretty;
use xdp_lang::parse_program;

fn source(n: i64, nprocs: usize, bd: DimDist) -> (Program, VarId, VarId) {
    let grid = ProcGrid::linear(nprocs);
    let mut s = Program::new();
    let a = s.declare(build::array(
        "A",
        ElemType::F64,
        vec![(1, n)],
        vec![DimDist::Block],
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

fn assert_fixpoint_and_equivalent(p: &Program, a: VarId, b: VarId, nprocs: usize, n: i64) {
    let text1 = pretty::program(p);
    let reparsed = parse_program(&text1).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text1}"));
    let text2 = pretty::program(&reparsed);
    assert_eq!(text1, text2, "pretty/parse fixpoint");

    let run = |prog: &Program| {
        let mut exec = SimExec::new(
            Arc::new(prog.clone()),
            KernelRegistry::standard(),
            MachineConfig::new(nprocs),
        );
        exec.init_exclusive(a, |idx| Value::F64(idx[0] as f64));
        exec.init_exclusive(b, |idx| Value::F64(7.0 * idx[0] as f64));
        let r = exec.run().expect("run");
        let g = exec.gather(a);
        let vals: Vec<f64> = (1..=n).map(|i| g.get(&[i]).unwrap().as_f64()).collect();
        (vals, r.net.messages, r.virtual_time)
    };
    assert_eq!(run(p), run(&reparsed), "parsed program behaves identically");
}

#[test]
fn frontend_output_roundtrips() {
    let (s, a, b) = source(16, 4, DimDist::Cyclic);
    let naive = lower_owner_computes(&s).unwrap();
    assert_fixpoint_and_equivalent(&naive, a, b, 4, 16);
}

#[test]
fn optimized_output_roundtrips() {
    let (s, a, b) = source(16, 4, DimDist::Cyclic);
    let naive = lower_owner_computes(&s).unwrap();
    let (opt, _) = PassManager::paper_pipeline().run(&naive);
    assert_fixpoint_and_equivalent(&opt, a, b, 4, 16);
}

#[test]
fn bound_output_roundtrips() {
    let (s, a, b) = source(16, 4, DimDist::Cyclic);
    let naive = lower_owner_computes(&s).unwrap();
    let bound = BindCommunication.run(&naive).program;
    assert_fixpoint_and_equivalent(&bound, a, b, 4, 16);
}

#[test]
fn migrated_output_roundtrips() {
    let (s, a, b) = source(16, 4, DimDist::Cyclic);
    let naive = lower_owner_computes(&s).unwrap();
    let mig = MigrateOwnership::default().run(&naive).program;
    assert_fixpoint_and_equivalent(&mig, a, b, 4, 16);
}

#[test]
fn redistribute_statements_roundtrip() {
    // `redistribute` in both forms — a plain distribution and an aligned
    // one (as emitted by the placement search for co-placed arrays) —
    // must survive pretty -> parse and execute identically.
    let grid = ProcGrid::linear(4);
    let mut p = Program::new();
    let a = p.declare(build::array(
        "A",
        ElemType::F64,
        vec![(1, 16)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    let b = p.declare(build::array(
        "B",
        ElemType::F64,
        vec![(1, 16)],
        vec![DimDist::Block],
        grid.clone(),
    ));
    // Guard with iown so the sweep is legal under any distribution the
    // redistributes below introduce (cyclic ownership is not contiguous).
    let sweep = |a: VarId, b: VarId| {
        let ai = build::sref(a, vec![build::at(build::iv("i"))]);
        let bi = build::sref(b, vec![build::at(build::iv("i"))]);
        build::do_loop(
            "i",
            build::c(1),
            build::c(16),
            vec![build::guarded(
                build::iown(ai.clone()),
                vec![build::assign(
                    ai.clone(),
                    build::val(ai).add(build::val(bi)),
                )],
            )],
        )
    };
    let cyc = Distribution::new(vec![DimDist::Cyclic], grid);
    p.body = vec![
        sweep(a, b),
        build::redistribute(a, cyc.clone()),
        build::redistribute(
            b,
            Distribution::aligned(cyc, vec![Triplet::range(1, 16)], vec![0]),
        ),
        sweep(a, b),
    ];
    assert!(xdp_ir::validate(&p).is_empty());
    assert_fixpoint_and_equivalent(&p, a, b, 4, 16);
}

#[test]
fn fft_stage_programs_roundtrip() {
    use xdp_apps::fft3d::{build, Fft3dConfig, Stage};
    for stage in Stage::all() {
        let (p, _) = build(Fft3dConfig::new(8, 4), stage);
        let text1 = pretty::program(&p);
        let reparsed = parse_program(&text1)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}\n{text1}", stage.label()));
        assert_eq!(text1, pretty::program(&reparsed), "{}", stage.label());
    }
}

#[test]
fn farm_program_roundtrips() {
    use xdp_apps::farm::{build_farm, FarmConfig};
    let (p, _) = build_farm(FarmConfig {
        tasks: 8,
        nprocs: 4,
        scale: 3,
    });
    let text1 = pretty::program(&p);
    let reparsed = parse_program(&text1).expect("reparse farm");
    assert_eq!(text1, pretty::program(&reparsed));
}

/// The text of every §4 FFT program, pinned by digest: `fft3d.rs` names
/// each loop nest once and composes the stages from them, and this table
/// — computed before that refactor — is what says the programs did not
/// move. A deliberate change to a stage re-pins its rows.
#[test]
fn fft_program_text_is_pinned() {
    use xdp_apps::fft3d::{
        build, build_chunked, build_planned, paper_listing_v0, Fft3dConfig, Stage,
    };
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let mut got = Vec::new();
    for (n, nprocs) in [(4, 4), (8, 4), (8, 2), (16, 4)] {
        let cfg = Fft3dConfig::new(n, nprocs);
        let mut pin = |label: String, p: Program| {
            got.push(format!(
                "{n}/{nprocs} {label} {:016x}",
                fnv1a(&pretty::program(&p))
            ));
        };
        for stage in Stage::all() {
            pin(stage.label().into(), build(cfg, stage).0);
        }
        let dist = |dims| Distribution::new(dims, ProcGrid::linear(nprocs));
        let planes = dist(vec![DimDist::Star, DimDist::Star, DimDist::Block]);
        let slabs = dist(vec![DimDist::Star, DimDist::Block, DimDist::Star]);
        pin("planned".into(), build_planned(cfg, planes, slabs).0);
        for chunk in [1, 2, 4, 8].into_iter().filter(|c| n % c == 0) {
            pin(format!("chunked-{chunk}"), build_chunked(cfg, chunk).0);
        }
        if n == nprocs as i64 {
            pin("paper-listing-v0".into(), paper_listing_v0(cfg).0);
        }
    }
    let want: Vec<&str> = FFT_TEXT_PINS.lines().map(str::trim).collect();
    assert_eq!(got, want, "got:\n{}", got.join("\n"));
}

const FFT_TEXT_PINS: &str = "\
    4/4 v0-naive 1c339f91e710074d
    4/4 v1-localized 1972a9292538da02
    4/4 v2-fused 85208403acc5ef97
    4/4 v3-await-sunk 5312e08bf7c83d1a
    4/4 v4-preposted 36c82ea4a39211c3
    4/4 v5-planned bb0fe326b5d9ba42
    4/4 v6-auto 37d652da10799448
    4/4 planned 128e76a768534406
    4/4 chunked-1 18ddfaf224f92fb3
    4/4 chunked-2 c933d611532da96a
    4/4 chunked-4 e715cdebe5b1d2d4
    4/4 paper-listing-v0 6db9c14dff23ec0b
    8/4 v0-naive e8c67dbf91daf039
    8/4 v1-localized d4a3bec594c13612
    8/4 v2-fused 5624ba75bc7367b3
    8/4 v3-await-sunk 8988da30516260ee
    8/4 v4-preposted d270213290757297
    8/4 v5-planned a595a2efb478903a
    8/4 v6-auto 811b403ba24fbb9a
    8/4 planned 53a46fd31798e576
    8/4 chunked-1 1fb4f4d94f1dcdb3
    8/4 chunked-2 de50f1e13e9a2f1e
    8/4 chunked-4 5dec62d2fac074d8
    8/4 chunked-8 7fc3358a8adb1190
    8/2 v0-naive 0f07896c63c64f31
    8/2 v1-localized 808bd46a3de52eda
    8/2 v2-fused f62052afcfda431b
    8/2 v3-await-sunk 7b1ab8df85071466
    8/2 v4-preposted 99adfe5eaf2f13bf
    8/2 v5-planned df6a63c8d4e30e60
    8/2 v6-auto 709a369659e493d8
    8/2 planned 872cb6623de7874c
    8/2 chunked-1 650c6e65b8b6e4cb
    8/2 chunked-2 871dd44478d57b76
    8/2 chunked-4 e3327753ccab22d0
    8/2 chunked-8 3026a67515bcd8e8
    16/4 v0-naive abf3f5d14a1feb9c
    16/4 v1-localized 18b008067eb2b806
    16/4 v2-fused b4c7ed70f2ddfc9a
    16/4 v3-await-sunk 35e2ad6c96e02771
    16/4 v4-preposted 113b9882f3cc9f18
    16/4 v5-planned aaea38b1cb87f2d4
    16/4 v6-auto fceb02b72f10f396
    16/4 planned 5639e9ad2d0671c2
    16/4 chunked-1 b79e62fc14a8fcb9
    16/4 chunked-2 e08d3f20a0cbeef0
    16/4 chunked-4 39fe99a7708d7e82
    16/4 chunked-8 9e3fa0a388387056";
