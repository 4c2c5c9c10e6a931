//! E6 — when does ownership migration pay? The §2.2 loop executed k times:
//! owner-computes pays communication every round; migration pays ownership
//! traffic once and computes locally thereafter.

use super::{run_running_example, running_example};
use crate::table::{j, Table};
use xdp_compiler::passes::MigrateOwnership;
use xdp_compiler::Pass;
use xdp_ir::{DimDist, Program};

fn repeat(p: &Program, k: usize) -> Program {
    let mut out = p.clone();
    let body = out.body.clone();
    for _ in 1..k {
        out.body.extend(body.clone());
    }
    out
}

/// Owner-computes sends one message per element per round (32·k);
/// migration sends 24 however many rounds follow (the 8 aligned elements
/// stay put), and wins at every k.
pub fn e6() -> Vec<Table> {
    let (n, nprocs) = (32i64, 4usize);
    let (naive, a, bb) = running_example(n, nprocs, DimDist::Cyclic);
    let migrated = MigrateOwnership::default().run(&naive).program;

    let mut t = Table::new(
        "E6: repeated loop — owner-computes vs migrate-once (n=32, P=4)",
        &["k", "oc time", "oc msgs", "mig time", "mig msgs", "winner"],
    );
    for &k in &[1usize, 2, 4, 8, 16] {
        // k rounds of A[i] += B[i] from A[i] = B[i] = i leave (k + 1)·i.
        let run = |p: &Program| {
            let r = run_running_example(&repeat(p, k), (a, bb), nprocs, 1.0, k as f64 + 1.0);
            (r.virtual_time, r.net.messages)
        };
        let ((t_oc, m_oc), (t_mig, m_mig)) = (run(&naive), run(&migrated));
        assert_eq!(m_oc, 32 * k as u64, "E6: k={k}: owner-computes sent {m_oc}");
        assert_eq!(m_mig, 24, "E6: k={k}: migration sent {m_mig}");
        assert!(t_mig < t_oc, "E6: k={k}: migration {t_mig} lost to {t_oc}");
        t.row(&[
            j::i(k as i64),
            j::f(t_oc),
            j::u(m_oc),
            j::f(t_mig),
            j::u(m_mig),
            j::s("migration"),
        ]);
    }
    t.note(
        "owner-computes moves the misaligned values every round; migration\n\
         moves ownership once (the co-location refinement skips aligned\n\
         elements) and every later round is fully local.\n",
    );
    vec![t]
}
