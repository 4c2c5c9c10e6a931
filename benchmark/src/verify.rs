//! Correctness: what every response must equal, and where that comes
//! from.
//!
//! The reference for a program is its run through the executable Figure 1
//! rules — the same `SeqMode`, the tree-walking interpreter, the
//! simulator, no optimization and no placement — never the configuration
//! under test. For the fixed programs that reference is also pinned in
//! `golden.json`, so a change that breaks the interpreter itself cannot
//! move the reference along with the result.

use crate::workloads::{Prog, Workload, CACHE_CAPACITY};
use serde_json::Value as Json;
use std::collections::BTreeMap;
use xdp_compiler::{Backend, CompileOptions};
use xdp_serve::{ContentHasher, RequestSpec, RunOutcome, ServeError, ServePool};
use xdp_verify::Fingerprint;

/// Program name -> reference digest, as committed in `golden.json`.
pub type Golden = BTreeMap<String, u64>;

pub const GOLDEN_TEXT: &str = include_str!("../golden.json");

pub fn parse_golden(text: &str) -> Result<Golden, String> {
    let json = serde_json::from_str(text).map_err(|e| format!("golden file: {e}"))?;
    let Json::Object(map) = json else {
        return Err("golden file: expected an object of name -> hex digest".into());
    };
    map.iter()
        .map(|(name, v)| {
            v.as_str()
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .map(|d| (name.clone(), d))
                .ok_or_else(|| format!("golden file: `{name}` is not a hex digest"))
        })
        .collect()
}

pub fn render_golden(golden: &Golden) -> String {
    let rows: Vec<String> = golden
        .iter()
        .map(|(name, d)| format!("  \"{name}\": \"{d:016x}\""))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// Digest of `index -> value` over the arrays in `names`.
///
/// A fingerprint memory line reads `A[1, 2] p3 = F64(4.0)`. The owner is
/// left out: placement and migration move ownership legitimately, and
/// the answer is the values.
pub fn digest(fp: &Fingerprint, names: &[String]) -> u64 {
    let mut h = ContentHasher::new();
    for name in names {
        let lines = fp.memory.get(name).map(Vec::as_slice).unwrap_or(&[]);
        h.field(b'A', name.as_bytes());
        for line in lines {
            let (index, value) = split_memory_line(line);
            h.field(b'I', index.as_bytes());
            h.field(b'V', value.as_bytes());
        }
    }
    h.finish()
}

fn split_memory_line(line: &str) -> (&str, &str) {
    let close = line.find("] p").map_or(line.len(), |i| i + 1);
    let value = line[close..]
        .find(" = ")
        .map_or("", |j| &line[close + j + 3..]);
    (&line[..close], value)
}

/// The reference configuration of a request: same source, same
/// sequential handling, everything else at the Figure 1 baseline.
pub fn reference_spec(spec: &RequestSpec) -> RequestSpec {
    RequestSpec::new(spec.source.clone()).with_opts(
        CompileOptions::default()
            .with_seq(spec.opts.seq)
            .with_backend(Backend::Interp),
    )
}

/// Arrays a response is judged on: every array the source declares but
/// its receive scratch. Temporaries the compiler introduces are not in
/// the source.
fn observable_names(p: &Prog) -> Result<Vec<String>, String> {
    let parsed = xdp_lang::parse_program(&p.spec.source)
        .map_err(|e| format!("{}: source does not parse: {e}", p.name))?;
    let names = parsed.decls.iter().map(|d| d.name.clone());
    Ok(names.filter(|n| !p.scratch.contains(n)).collect())
}

/// What one distinct program's responses are checked against.
pub struct Expected {
    pub names: Vec<String>,
    pub digest: u64,
}

/// A workload verified and ready to be timed.
pub struct Ready {
    pub workload: Workload,
    pub expected: Vec<Expected>,
    /// The pool under test, cache warm unless the mix is cold.
    pub pool: ServePool,
    /// Sum over the distinct programs of the modelled machine's
    /// completion time on the simulator: virtual microseconds, never
    /// host time.
    pub virtual_us: f64,
    /// Sum over the distinct programs of wire messages on the simulator.
    pub wire_msgs: u64,
    /// Checks made during set-up, and the ones that failed.
    pub checks: u64,
    pub failures: Vec<String>,
}

/// Build the workload, verify every distinct program, build the pool
/// under test and warm it.
pub fn set_up(name: &str, seed: u64, clients: usize, golden: &Golden) -> Result<Ready, String> {
    let workload =
        crate::workloads::build(name, seed).ok_or_else(|| format!("unknown workload `{name}`"))?;
    // Reference runs and the modelled-cost runs both want the simulator.
    let model = ServePool::new(1, 2 * CACHE_CAPACITY);
    let pool = ServePool::new(clients, CACHE_CAPACITY).with_machine(workload.machine);
    let mut ready = Ready {
        expected: Vec::new(),
        pool,
        virtual_us: 0.0,
        wire_msgs: 0,
        checks: 0,
        failures: Vec::new(),
        workload,
    };
    for p in &ready.workload.progs {
        let names = observable_names(p)?;
        let reference = model
            .run_one(&reference_spec(&p.spec))
            .map_err(|e| format!("{}: reference run failed: {e}", p.name))?;
        let mut want = digest(&reference.fingerprint, &names);
        if p.fixed {
            let pinned = *golden
                .get(&p.name)
                .ok_or_else(|| format!("golden file has no digest for `{}`", p.name))?;
            ready.checks += 1;
            if pinned != want {
                ready.failures.push(format!(
                    "{}: reference digest {want:016x} differs from golden {pinned:016x}",
                    p.name
                ));
            }
            want = pinned;
        }

        // The configuration under test on the simulator: its modelled
        // cost, and its answer.
        let modelled = model.run_one(&p.spec);
        if let Ok(o) = &modelled {
            ready.virtual_us += o.virtual_time;
            ready.wire_msgs += o.messages;
        }
        // The pool under test; on a warm mix this also fills its cache.
        let served = ready.pool.run_one(&p.spec);
        for (what, outcome) in [("simulator", modelled), ("served", served)] {
            ready.checks += 1;
            if let Err(why) = check(outcome, &names, want) {
                ready
                    .failures
                    .push(format!("{}: {what} run: {why}", p.name));
            }
        }
        ready.expected.push(Expected {
            names,
            digest: want,
        });
    }
    Ok(ready)
}

/// Did a request succeed with the expected answer?
pub fn check(
    outcome: Result<RunOutcome, ServeError>,
    names: &[String],
    want: u64,
) -> Result<RunOutcome, String> {
    let o = outcome.map_err(|e| format!("failed: {e}"))?;
    let got = digest(&o.fingerprint, names);
    if got == want {
        Ok(o)
    } else {
        Err(format!("digest {got:016x}, expected {want:016x}"))
    }
}

/// Reference digests of every fixed program of every workload, for
/// writing `golden.json`.
pub fn compute_golden() -> Result<Golden, String> {
    let model = ServePool::new(1, 2 * CACHE_CAPACITY);
    let mut golden = Golden::new();
    for name in crate::workloads::WORKLOADS {
        let w = crate::workloads::build(name, 0).expect("listed workload");
        for p in w.progs.iter().filter(|p| p.fixed) {
            let names = observable_names(p)?;
            let o = model
                .run_one(&reference_spec(&p.spec))
                .map_err(|e| format!("{}: reference run failed: {e}", p.name))?;
            golden.insert(p.name.clone(), digest(&o.fingerprint, &names));
        }
    }
    Ok(golden)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_owner_and_unlisted_arrays() {
        let mut a = Fingerprint::default();
        a.memory.insert(
            "A".into(),
            vec!["A[1] p0 = F64(1.0)".into(), "A[2] p1 = F64(2.0)".into()],
        );
        a.memory
            .insert("T0".into(), vec!["T0[0] p0 = F64(9.0)".into()]);
        let mut b = Fingerprint::default();
        b.memory.insert(
            "A".into(),
            vec!["A[1] p3 = F64(1.0)".into(), "A[2] p3 = F64(2.0)".into()],
        );
        let names = vec!["A".to_string()];
        assert_eq!(digest(&a, &names), digest(&b, &names));

        b.memory.get_mut("A").unwrap()[1] = "A[2] p3 = F64(2.5)".into();
        assert_ne!(digest(&a, &names), digest(&b, &names));
        let with_temp = vec!["A".to_string(), "T0".to_string()];
        assert_ne!(digest(&a, &names), digest(&a, &with_temp));
    }

    #[test]
    fn memory_lines_split_at_the_owner() {
        assert_eq!(
            split_memory_line("U[3, 10] p2 = F64(0.25)"),
            ("U[3, 10]", "F64(0.25)")
        );
        assert_eq!(
            split_memory_line("A[1] p0 = Complex { re: 1.0, im: -0.0 }"),
            ("A[1]", "Complex { re: 1.0, im: -0.0 }")
        );
    }

    #[test]
    fn golden_round_trips_and_rejects_garbage() {
        let mut g = Golden::new();
        g.insert("a".into(), 0x0123_4567_89ab_cdef);
        g.insert("b+opt".into(), 7);
        assert_eq!(parse_golden(&render_golden(&g)).unwrap(), g);
        assert!(parse_golden("[]").is_err());
        assert!(parse_golden("{\"a\": 3}").is_err());
        assert!(parse_golden("{\"a\": \"xyz\"}").is_err());
    }

    #[test]
    fn committed_golden_covers_every_fixed_program() {
        let golden = parse_golden(GOLDEN_TEXT).unwrap();
        assert_eq!(golden, compute_golden().unwrap());
    }
}
