//! F3 — Figure 3 reproduced: example distributions and local segmentations
//! of a 4x8 array, shown as element->segment maps for processor P3.

use crate::table::Table;
use std::collections::HashMap;
use std::fmt::Write;
use xdp_ir::{DimDist, Distribution, ProcGrid, Triplet};
use xdp_runtime::segment::segment_sections;

/// P3's element->segment map of a 4x8 array (one string per row, the
/// segment number of each owned element and `.` for the rest) and its
/// segment count.
fn segment_map(dist: &Distribution, seg: &[i64]) -> (Vec<String>, usize) {
    let bounds = vec![Triplet::range(1, 4), Triplet::range(1, 8)];
    let sections: Vec<_> = dist
        .owned_rects(&bounds, 3)
        .iter()
        .flat_map(|r| segment_sections(r, Some(seg)))
        .collect();
    let mut segid = HashMap::new();
    for (k, sec) in sections.iter().enumerate() {
        for idx in sec.iter() {
            segid.insert(idx, k);
        }
    }
    let cell = |i: i64, jx: i64| match segid.get(&vec![i, jx]) {
        Some(s) => char::from_digit(*s as u32, 10).unwrap(),
        None => '.',
    };
    let map = (1..=4).map(|i| (1..=8).map(|jx| cell(i, jx)).collect());
    (map.collect(), sections.len())
}

/// P3's element->segment maps are Figure 3's.
pub fn f3() -> Vec<Table> {
    let bb = Distribution::new(vec![DimDist::Block, DimDist::Block], ProcGrid::grid2(2, 2));
    let sb = Distribution::new(vec![DimDist::Star, DimDist::Block], ProcGrid::linear(4));
    let sc = Distribution::new(vec![DimDist::Star, DimDist::Cyclic], ProcGrid::linear(4));
    // (a) (BLOCK,BLOCK): P3 owns the bottom-right 2x4 quadrant. (b)
    // (*,BLOCK): P3 owns the last two full columns. (c) the CYCLIC flavor,
    // to show strided segment bounds.
    let cases: [(&str, &Distribution, &[i64], [&str; 4]); 5] = [
        (
            "(a) (BLOCK,BLOCK) on 2x2, 2x1 segments:",
            &bb,
            &[2, 1],
            ["........", "........", "....0123", "....0123"],
        ),
        (
            "    (BLOCK,BLOCK) on 2x2, 1x2 segments:",
            &bb,
            &[1, 2],
            ["........", "........", "....0011", "....2233"],
        ),
        (
            "(b) (*,BLOCK) on 4, 4x1 segments:",
            &sb,
            &[4, 1],
            ["......01", "......01", "......01", "......01"],
        ),
        (
            "    (*,BLOCK) on 4, 2x2 segments:",
            &sb,
            &[2, 2],
            ["......00", "......00", "......11", "......11"],
        ),
        (
            "(c) (*,CYCLIC) on 4, 4x1 segments (strided bounds):",
            &sc,
            &[4, 1],
            ["...0...1", "...0...1", "...0...1", "...0...1"],
        ),
    ];
    let mut text = String::new();
    for (label, dist, seg, figure) in cases {
        let (map, count) = segment_map(dist, seg);
        assert_eq!(map, figure, "F3: {}", label.trim());
        writeln!(text, "{label}").unwrap();
        for row in &map {
            let cells: Vec<String> = row.chars().map(String::from).collect();
            writeln!(text, "  {} ", cells.join(" ")).unwrap();
        }
        writeln!(text, "  ({count} segments on P3; '.' = not owned by P3)\n").unwrap();
    }
    let mut t = Table::new(
        "F3: Figure 3 — 4x8 array distributions and segmentations, from P3",
        &[],
    );
    t.note(&text);
    vec![t]
}
