//! A fixed piece of work that tells how fast the host is right now.
//!
//! The machine this benchmark was written on is a two-vCPU guest whose
//! speed moves by 20–30 % for minutes at a time with what its neighbours
//! do: over ten runs of one binary `serve-small` read anywhere from 2250
//! to 3300 req/s, and CPU time *per request* moved with it. No amount of
//! repetition inside a 20 s run averages that out. So every client thread
//! runs a quantum of this kernel between requests ten times a second,
//! under the load the requests themselves see (the other cores busy), and
//! each slice's figures are scaled by how long its quanta took against
//! [`REFERENCE_NS`].
//!
//! The kernel shares no code with the program under test, so a change to
//! the repo cannot speed it up. It does the kind of thing a request does
//! — ordered maps keyed by small vectors, formatting, byte hashing,
//! sorting — because a neighbour on the sibling hyperthread slows
//! allocation-heavy branchy code and a pure arithmetic loop by different
//! amounts.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// The mean [`quantum`] under the closed loop's load (every core busy)
/// on the machine this was written on, in a quiet spell; a quantum alone
/// on an idle machine takes about 2.05 ms there. A host twice as slow
/// reports twice this, and every scaled metric reads as it would on the
/// reference machine.
pub const REFERENCE_NS: f64 = 2_350_000.0;

/// Rounds per [`quantum`]; one round is about 0.6 ms.
const ROUNDS: u64 = 4;

fn round(salt: u64) -> u64 {
    let mut map: BTreeMap<Vec<i64>, (usize, f64)> = BTreeMap::new();
    let mut x = salt | 1;
    for i in 0..1500i64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = vec![(x % 64) as i64, i % 48];
        map.insert(key, ((x % 16) as usize, (x % 1000) as f64 * 0.25));
    }
    let mut lines: Vec<String> = Vec::with_capacity(map.len());
    for (idx, (owner, val)) in &map {
        let mut s = String::new();
        write!(s, "A{idx:?} p{owner} = {val:?}").expect("writing to a String");
        lines.push(s);
    }
    lines.sort_unstable_by(|a, b| b.cmp(a));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in &lines {
        for &b in line.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Do the fixed work once; nanoseconds it took.
pub fn quantum() -> f64 {
    let t = Instant::now();
    let mut acc = 0u64;
    for r in 0..ROUNDS {
        acc ^= round(black_box(r + 1));
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        assert_eq!(round(3), round(3));
        assert_ne!(round(3), round(4));
        assert!(quantum() > 0.0);
    }
}
