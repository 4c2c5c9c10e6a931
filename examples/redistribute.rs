//! Figures 2 and 3, reproduced live: the run-time XDP symbol table for the
//! paper's two example arrays, the distributions/segmentations of a 4x8
//! array as seen by processor P3, and a segment-granular ownership
//! redistribution with its timeline.
//!
//! ```text
//! cargo run --example redistribute
//! ```

use std::sync::Arc;
use xdp::prelude::*;
use xdp_runtime::RtSymbolTable;

fn print_symtab(pid: usize, t: &RtSymbolTable, decls: &[Decl]) {
    println!("--- processor P{pid} run-time symbol table ---");
    println!(
        "{:<6} {:<6} {:<4} {:<10} {:<24} {:<10} {:<9}",
        "index", "name", "rank", "shape", "partitioning", "seg shape", "#segments"
    );
    for e in t.entries() {
        let d = &decls[e.var.index()];
        let shape: Vec<String> = d.bounds.iter().map(|b| b.count().to_string()).collect();
        let seg = d
            .segment_shape
            .as_ref()
            .map(|s| {
                format!(
                    "({})",
                    s.iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .unwrap_or_else(|| "(rect)".into());
        println!(
            "{:<6} {:<6} {:<4} {:<10} {:<24} {:<10} {:<9}",
            e.var.index(),
            d.name,
            d.rank(),
            format!("({})", shape.join(",")),
            d.dist.as_ref().unwrap().to_string(),
            seg,
            e.owned_segment_count(),
        );
        for (i, seg) in e.segments.iter().enumerate() {
            println!(
                "    segdesc[{i}]: status {:?}  bounds {}",
                seg.status, seg.section
            );
        }
    }
    println!();
}

fn main() {
    // ---- Figure 2: A[1:4,1:8] (*,BLOCK) and B[1:16,1:16] (BLOCK,CYCLIC) --
    println!("==== Figure 2: the XDP symbol table structure ====\n");
    let decls = vec![
        build::array_seg(
            "A",
            ElemType::F64,
            vec![(1, 4), (1, 8)],
            vec![DimDist::Star, DimDist::Block],
            ProcGrid::linear(4),
            vec![2, 1],
        ),
        build::array_seg(
            "B",
            ElemType::F64,
            vec![(1, 16), (1, 16)],
            vec![DimDist::Block, DimDist::Cyclic],
            ProcGrid::grid2(2, 2),
            vec![4, 2],
        ),
    ];
    for pid in [0, 3] {
        print_symtab(pid, &RtSymbolTable::build(pid, &decls), &decls);
    }

    // ---- Figure 3: distributions and segmentations seen from P3 ----------
    println!("==== Figure 3: 4x8 array distributions, from P3 ====\n");
    let bounds = vec![Triplet::range(1, 4), Triplet::range(1, 8)];
    let cases: Vec<(&str, Distribution, Vec<i64>)> = vec![
        (
            "(BLOCK,BLOCK) 2x1 segments",
            Distribution::new(vec![DimDist::Block, DimDist::Block], ProcGrid::grid2(2, 2)),
            vec![2, 1],
        ),
        (
            "(BLOCK,BLOCK) 1x2 segments",
            Distribution::new(vec![DimDist::Block, DimDist::Block], ProcGrid::grid2(2, 2)),
            vec![1, 2],
        ),
        (
            "(*,BLOCK) 4x1 segments",
            Distribution::new(vec![DimDist::Star, DimDist::Block], ProcGrid::linear(4)),
            vec![4, 1],
        ),
        (
            "(*,BLOCK) 2x2 segments",
            Distribution::new(vec![DimDist::Star, DimDist::Block], ProcGrid::linear(4)),
            vec![2, 2],
        ),
    ];
    for (label, dist, seg) in cases {
        println!("{label}:");
        // Map each element of the 4x8 array to its segment id on P3 ('.'
        // for elements P3 does not own).
        let rects = dist.owned_rects(&bounds, 3);
        let mut segid = std::collections::HashMap::new();
        let mut k = 0;
        for r in &rects {
            for sec in xdp_runtime::segment::segment_sections(r, Some(&seg)) {
                for idx in sec.iter() {
                    segid.insert(idx.clone(), k);
                }
                k += 1;
            }
        }
        for i in 1..=4 {
            print!("    ");
            for j in 1..=8 {
                match segid.get(&vec![i as i64, j as i64]) {
                    Some(s) => print!("{s} "),
                    None => print!(". "),
                }
            }
            println!();
        }
        println!();
    }

    // ---- a live ownership redistribution at segment granularity ----------
    println!("==== segment-granular redistribution (*,BLOCK) -> (BLOCK,*) ====\n");
    let n = 8i64;
    let nprocs = 4;
    let mut p = Program::new();
    let a = p.declare(build::array_seg(
        "A",
        ElemType::F64,
        vec![(1, n), (1, n)],
        vec![DimDist::Star, DimDist::Block],
        ProcGrid::linear(nprocs),
        vec![1, 1],
    ));
    let own = p.declare(build::array(
        "OWN",
        ElemType::I64,
        vec![(1, n)],
        vec![DimDist::Block],
        ProcGrid::linear(nprocs),
    ));
    let cell = build::sref(
        a,
        vec![build::at(build::iv("i")), build::at(build::iv("j"))],
    );
    let own_i = build::sref(own, vec![build::at(build::iv("i"))]);
    p.body = vec![
        // Column owners hand each element to its row's new owner.
        build::do_loop(
            "i",
            build::c(1),
            build::c(n),
            vec![build::do_loop(
                "j",
                build::c(1),
                build::c(n),
                vec![
                    build::guarded(
                        build::iown(cell.clone())
                            .and(BoolExpr::Not(Box::new(build::iown(own_i.clone())))),
                        vec![build::send_own_val(cell.clone())],
                    ),
                    build::guarded(
                        build::iown(own_i.clone())
                            .and(BoolExpr::Not(Box::new(build::iown(cell.clone())))),
                        vec![build::recv_own_val(cell.clone())],
                    ),
                ],
            )],
        ),
    ];
    let mut exec = SimExec::new(
        Arc::new(p),
        KernelRegistry::standard(),
        MachineConfig::new(nprocs).with_timeline(),
    );
    exec.init_exclusive(a, |idx| Value::F64((idx[0] * 10 + idx[1]) as f64));
    let report = exec.run().expect("redistribute");
    let g = exec.gather(a);
    println!("owner map after redistribution (row -> owner):");
    for i in 1..=n {
        let owners: Vec<String> = (1..=n)
            .map(|j| {
                g.owner(&[i, j])
                    .map(|o| o.to_string())
                    .unwrap_or(".".into())
            })
            .collect();
        println!("  row {i}: {}", owners.join(" "));
    }
    println!(
        "\nmessages {} (off-owner elements only), peak storage {} B, slots reused {}",
        report.net.messages,
        report
            .procs
            .iter()
            .map(|p| p.symtab.peak_bytes)
            .max()
            .unwrap(),
        report
            .procs
            .iter()
            .map(|p| p.symtab.slots_reused)
            .sum::<u64>(),
    );
    println!("{}", report.gantt(72));
}
