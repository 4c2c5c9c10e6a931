//! E3 — the run-time price of un-eliminated compute rules (§3.1), and what
//! compute-rule elimination saves.
//!
//! Two measurements:
//! 1. symbol-table query volume and segment scans of a guarded loop vs its
//!    localized form, as n grows;
//! 2. the `iown()` evaluation cost as a function of the number of segment
//!    descriptors (the paper notes "more efficient algorithms could be
//!    developed" — the scan is linear in #segments).

use crate::table::{j, Table};
use std::sync::Arc;
use xdp_compiler::passes::{ElideAccessibleChecks, LocalizeBounds};
use xdp_compiler::PassManager;
use xdp_core::{KernelRegistry, MachineConfig, SimExec};
use xdp_ir::build as b;
use xdp_ir::{DimDist, ElemType, ProcGrid, Program, Section, Triplet, VarId};
use xdp_runtime::RtSymbolTable;

/// The guarded loop asks 4n symbol-table questions (one `iown` per
/// iteration on each of 4 processors) while its localized form asks a
/// constant 8 (two bounds queries per processor); a full-array `iown`
/// scans exactly one descriptor per segment.
pub fn e3() -> Vec<Table> {
    let nprocs = 4;

    // --- 1: guarded vs localized loop --------------------------------------
    let mut t = Table::new(
        "E3a: compute-rule elimination — run-time checks removed",
        &[
            "n",
            "variant",
            "symtab queries",
            "segments scanned",
            "time",
            "speedup",
        ],
    );
    for &n in &[64i64, 256, 1024] {
        let mut p = Program::new();
        let a = p.declare(b::array(
            "A",
            ElemType::F64,
            vec![(1, n)],
            vec![DimDist::Block],
            ProcGrid::linear(nprocs),
        ));
        let ai = b::sref(a, vec![b::at(b::iv("i"))]);
        p.body = vec![b::do_loop(
            "i",
            b::c(1),
            b::c(n),
            vec![b::guarded(
                b::iown(ai.clone()),
                vec![b::assign(
                    ai.clone(),
                    b::val(ai.clone()).add(xdp_ir::ElemExpr::LitF(1.0)),
                )],
            )],
        )];
        let (localized, _) = PassManager::new()
            .add(LocalizeBounds)
            .add(ElideAccessibleChecks)
            .run(&p);
        let mut base = None;
        for (label, prog, claimed) in [("guarded", &p, 4 * n as u64), ("localized", &localized, 8)]
        {
            let mut exec = SimExec::new(
                Arc::new(prog.clone()),
                KernelRegistry::standard(),
                MachineConfig::new(nprocs),
            );
            let r = exec.run().expect("run");
            let q: u64 = r.procs.iter().map(|p| p.symtab.queries).sum();
            let sc: u64 = r.procs.iter().map(|p| p.symtab.segments_scanned).sum();
            assert_eq!(
                q, claimed,
                "E3a: n={n} {label} made {q} symbol-table queries"
            );
            let b0 = *base.get_or_insert(r.virtual_time);
            t.row(&[
                j::i(n),
                j::s(label),
                j::u(q),
                j::u(sc),
                j::f(r.virtual_time),
                j::s(&format!("{:.2}x", b0 / r.virtual_time)),
            ]);
        }
    }

    // --- 2: iown() scan cost vs #segments ----------------------------------
    let mut t2 = Table::new(
        "E3b: iown() scan volume vs segment count (1024 elements on P0)",
        &[
            "segment size",
            "#segments",
            "descriptors scanned per full-array iown",
        ],
    );
    for &seg in &[1i64, 4, 16, 64, 256] {
        let decls = vec![b::array_seg(
            "A",
            ElemType::F64,
            vec![(1, 1024)],
            vec![DimDist::Block],
            ProcGrid::linear(1),
            vec![seg],
        )];
        let mut st = RtSymbolTable::build(0, &decls);
        let nsegs = st.entry(VarId(0)).expect("A is declared").segments.len() as u64;
        let before = st.stats.segments_scanned;
        let full = Section::new(vec![Triplet::range(1, 1024)]);
        assert!(st.iown(VarId(0), &full));
        let scanned = st.stats.segments_scanned - before;
        assert_eq!(
            scanned, nsegs,
            "E3b: segment size {seg}: scanned {scanned} of {nsegs} descriptors"
        );
        t2.row(&[j::i(seg), j::u(nsegs), j::u(scanned)]);
    }
    t2.note(
        "interpretation: each surviving compute rule costs a symbol-table\n\
         lookup whose scan is linear in the segment count — eliminated rules\n\
         cost nothing.\n",
    );
    vec![t, t2]
}
