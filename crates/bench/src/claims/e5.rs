//! E5 — delayed communication binding (§3.2): identical programs with
//! rendezvous-by-name vs compile-time-bound destinations. Bound messages
//! shed the wire name header and the matcher lookup, so wire bytes and
//! time drop — proportionally more for small messages, where the header
//! dominates the payload.

use super::{run_running_example, running_example};
use crate::table::{j, Table};
use xdp_compiler::passes::BindCommunication;
use xdp_compiler::Pass;
use xdp_ir::{DestSet, DimDist, Program, Stmt};

/// Sends whose destination is left to rendezvous by name.
fn count_unbound(p: &Program) -> usize {
    let mut n = 0;
    p.visit(&mut |s| {
        if matches!(
            s,
            Stmt::Send {
                dest: DestSet::Unspecified,
                ..
            }
        ) {
            n += 1;
        }
    });
    n
}

/// Both forms compute the same A with the same message count; bound wire
/// bytes are the payload alone, unbound ones 5× the payload.
pub fn e5() -> Vec<Table> {
    let nprocs = 4;
    let mut t = Table::new(
        "E5: rendezvous-by-name vs bound communication (verified identical)",
        &[
            "n",
            "variant",
            "messages",
            "payload B",
            "wire B",
            "header overhead",
            "time",
            "speedup",
        ],
    );
    for &n in &[16i64, 64, 256] {
        let (naive, a, bb) = running_example(n, nprocs, DimDist::Cyclic);
        let bound = BindCommunication.run(&naive).program;
        let mut base = None;
        let mut messages = Vec::new();
        for (label, prog, wire_per_payload) in [
            ("unbound (name on wire)", &naive, 5),
            ("bound (§3.2)", &bound, 1),
        ] {
            let r = run_running_example(prog, (a, bb), nprocs, 2.0, 3.0);
            let (payload, wire) = (r.net.payload_bytes, r.net.wire_bytes);
            assert_eq!(
                wire,
                wire_per_payload * payload,
                "E5: n={n} {label}: {wire} wire bytes for {payload} of payload, claimed {wire_per_payload}x"
            );
            messages.push(r.net.messages);
            let b0 = *base.get_or_insert(r.virtual_time);
            t.row(&[
                j::i(n),
                j::s(label),
                j::u(r.net.messages),
                j::u(payload),
                j::u(wire),
                j::s(&format!(
                    "{:.0}%",
                    100.0 * (wire - payload) as f64 / payload.max(1) as f64
                )),
                j::f(r.virtual_time),
                j::s(&format!("{:.2}x", b0 / r.virtual_time)),
            ]);
        }
        assert_eq!(messages[0], messages[1], "E5: n={n}: message counts differ");
    }

    let (naive, _, _) = running_example(16, nprocs, DimDist::Cyclic);
    let bound = BindCommunication.run(&naive).program;
    t.note(&format!(
        "static send statements unbound: naive {}, bound {}\n",
        count_unbound(&naive),
        count_unbound(&bound)
    ));
    vec![t]
}
