//! F2 — Figure 2 reproduced: the run-time XDP symbol table for
//! `A[1:4,1:8]` distributed `(*,BLOCK)` and `B[1:16,1:16]` distributed
//! `(BLOCK,CYCLIC)` over a 2x2 processor grid, with the paper's segment
//! shapes `(2,1)` and `(4,2)`.

use crate::table::{j, Table};
use std::fmt::Write;
use xdp_ir::build as b;
use xdp_ir::{DimDist, ElemType, ProcGrid};
use xdp_runtime::RtSymbolTable;

/// Figure 2's counts: A has 4 segments of shape (2,1) and B 8 of shape
/// (4,2), on every processor.
pub fn f2() -> Vec<Table> {
    let decls = vec![
        b::array_seg(
            "A",
            ElemType::F64,
            vec![(1, 4), (1, 8)],
            vec![DimDist::Star, DimDist::Block],
            ProcGrid::linear(4),
            vec![2, 1],
        ),
        b::array_seg(
            "B",
            ElemType::F64,
            vec![(1, 16), (1, 16)],
            vec![DimDist::Block, DimDist::Cyclic],
            ProcGrid::grid2(2, 2),
            vec![4, 2],
        ),
    ];
    let mut t = Table::new(
        "F2: XDP symbol table structure (per processor)",
        &[
            "pid",
            "index",
            "symbol",
            "rank",
            "global shape",
            "partitioning",
            "segment shape",
            "#segments",
        ],
    );
    for pid in 0..4 {
        let st = RtSymbolTable::build(pid, &decls);
        for e in st.entries() {
            let shape: Vec<String> = e.bounds.iter().map(|x| x.count().to_string()).collect();
            let seg: Vec<String> = e
                .segment_shape
                .as_ref()
                .unwrap()
                .iter()
                .map(|x| x.to_string())
                .collect();
            let seg = format!("({})", seg.join(","));
            let claimed = match e.name.as_str() {
                "A" => ("(2,1)", 4),
                _ => ("(4,2)", 8),
            };
            let got = (seg.as_str(), e.owned_segment_count());
            assert_eq!(got, claimed, "F2: P{pid}'s {} segments", e.name);
            t.row(&[
                j::i(pid as i64),
                j::i(e.var.index() as i64 + 1),
                j::s(&e.name),
                j::i(e.rank as i64),
                j::s(&format!("({})", shape.join(","))),
                j::s(&e.partitioning.to_string()),
                j::s(&seg),
                j::i(e.owned_segment_count() as i64),
            ]);
        }
    }

    // P3's descriptors: the run-time (shaded) fields of the figure.
    let mut note = String::from("P3 segment descriptors (the run-time-maintained fields):\n");
    for e in RtSymbolTable::build(3, &decls).entries() {
        for (i, seg) in e.segments.iter().enumerate() {
            writeln!(
                note,
                "  {}.segdesc[{i}]: status={:?} lbound/ubound/stride={}",
                e.name, seg.status, seg.section
            )
            .unwrap();
        }
    }
    note.push_str("\ncounts match Figure 2: A -> 4 segments (2,1); B -> 8 segments (4,2)\n");
    t.note(&note);
    vec![t]
}
