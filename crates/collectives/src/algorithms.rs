//! Classical collective algorithms as explicit [`CommSchedule`]s.
//!
//! Each constructor returns the full round structure of a textbook collective
//! over a 1-D array `var[1:n]` on `nprocs` processors. Because the output is
//! an explicit schedule rather than a runtime call, the same object can be
//! priced by [`CommSchedule::predicted_cost`] and applied in memory by
//! [`crate::run_lockstep`].
//!
//! All algorithms are *in-place* over a single per-processor vector: within a
//! round every payload is read before any receive is applied, and no section
//! is read in one round after being overwritten in an earlier one (this rules
//! out ring-pairing pairwise exchange; we use XOR pairing, and Bruck's rounds
//! touch each slot exactly in the rounds that both read and write it).

use crate::schedule::{CommSchedule, Round, Transfer};
use xdp_ir::{Section, Triplet, VarId};

fn full(n: i64) -> Section {
    Section::new(vec![Triplet::range(1, n)])
}

/// Chunk `j` of `P` equal slots: `[j·m+1 : (j+1)·m]`.
fn slot(j: usize, m: i64) -> Section {
    let j = j as i64;
    Section::new(vec![Triplet::range(j * m + 1, (j + 1) * m)])
}

fn chunk(n: i64, nprocs: usize) -> i64 {
    assert!(
        nprocs > 0 && n % nprocs as i64 == 0,
        "n = {n} must divide evenly over {nprocs} processors"
    );
    n / nprocs as i64
}

fn ceil_log2(p: usize) -> u32 {
    assert!(p > 0);
    usize::BITS - (p - 1).leading_zeros()
}

/// Rounds of a binomial-tree broadcast from `root` (ascending tree level).
fn bcast_rounds(
    var: VarId,
    n: i64,
    elem_bytes: u64,
    nprocs: usize,
    root: usize,
    salt: &mut i64,
) -> Vec<Round> {
    let mut rounds = Vec::new();
    for k in 0..ceil_log2(nprocs) {
        let gap = 1usize << k;
        let mut r = Round::default();
        for rel in 0..gap {
            let peer = rel + gap;
            if peer < nprocs {
                *salt += 1;
                r.transfers.push(Transfer::new(
                    (root + rel) % nprocs,
                    (root + peer) % nprocs,
                    var,
                    vec![full(n)],
                    *salt,
                    elem_bytes,
                ));
            }
        }
        rounds.push(r);
    }
    rounds
}

/// Rounds of a binomial-tree reduction to `root` (descending tree level,
/// element-wise sum).
fn reduce_rounds(
    var: VarId,
    n: i64,
    elem_bytes: u64,
    nprocs: usize,
    root: usize,
    salt: &mut i64,
) -> Vec<Round> {
    let mut rounds = Vec::new();
    for k in (0..ceil_log2(nprocs)).rev() {
        let gap = 1usize << k;
        let mut r = Round::default();
        for rel in 0..gap {
            let peer = rel + gap;
            if peer < nprocs {
                *salt += 1;
                let mut t = Transfer::new(
                    (root + peer) % nprocs,
                    (root + rel) % nprocs,
                    var,
                    vec![full(n)],
                    *salt,
                    elem_bytes,
                );
                t.combine = true;
                r.transfers.push(t);
            }
        }
        rounds.push(r);
    }
    rounds
}

/// Binomial-tree broadcast of `var[1:n]` from `root`: `ceil(log2 P)` rounds,
/// `P-1` messages.
pub fn broadcast_binomial(
    var: VarId,
    n: i64,
    elem_bytes: u64,
    nprocs: usize,
    root: usize,
) -> CommSchedule {
    assert!(root < nprocs);
    let mut salt = 0;
    let mut s = CommSchedule::new(nprocs);
    for r in bcast_rounds(var, n, elem_bytes, nprocs, root, &mut salt) {
        s.push_round(r);
    }
    s
}

/// Binomial-tree sum-reduction of `var[1:n]` to `root`.
pub fn reduce_binomial(
    var: VarId,
    n: i64,
    elem_bytes: u64,
    nprocs: usize,
    root: usize,
) -> CommSchedule {
    assert!(root < nprocs);
    let mut salt = 0;
    let mut s = CommSchedule::new(nprocs);
    for r in reduce_rounds(var, n, elem_bytes, nprocs, root, &mut salt) {
        s.push_round(r);
    }
    s
}

/// All-reduce (sum) of `var[1:n]`: recursive doubling when `P` is a power of
/// two (`log2 P` rounds, every processor active every round), otherwise a
/// reduce-to-0 followed by a broadcast.
pub fn allreduce(var: VarId, n: i64, elem_bytes: u64, nprocs: usize) -> CommSchedule {
    let mut s = CommSchedule::new(nprocs);
    let mut salt = 0;
    if nprocs.is_power_of_two() {
        for k in 0..ceil_log2(nprocs) {
            let gap = 1usize << k;
            let mut r = Round::default();
            for p in 0..nprocs {
                salt += 1;
                let mut t = Transfer::new(p, p ^ gap, var, vec![full(n)], salt, elem_bytes);
                t.combine = true;
                r.transfers.push(t);
            }
            s.push_round(r);
        }
    } else {
        for r in reduce_rounds(var, n, elem_bytes, nprocs, 0, &mut salt)
            .into_iter()
            .chain(bcast_rounds(var, n, elem_bytes, nprocs, 0, &mut salt))
        {
            s.push_round(r);
        }
    }
    s
}

/// Ring all-gather: processor `p` starts owning slot `p`; in round `r` it
/// forwards slot `(p-r) mod P` to `(p+1) mod P`. `P-1` rounds, nearest
/// neighbours only (cheap on [`xdp_machine::Topology::Linear`]).
pub fn allgather_ring(var: VarId, n: i64, elem_bytes: u64, nprocs: usize) -> CommSchedule {
    let m = chunk(n, nprocs);
    let mut s = CommSchedule::new(nprocs);
    let mut salt = 0;
    for r in 0..nprocs.saturating_sub(1) {
        let mut round = Round::default();
        for p in 0..nprocs {
            salt += 1;
            round.transfers.push(Transfer::new(
                p,
                (p + 1) % nprocs,
                var,
                vec![slot((p + nprocs - r) % nprocs, m)],
                salt,
                elem_bytes,
            ));
        }
        s.push_round(round);
    }
    s
}

/// Recursive-doubling all-gather (`P` a power of two): in round `k`
/// processor `p` exchanges its accumulated group block of `2^k` slots with
/// partner `p XOR 2^k`. `log2 P` rounds, message sizes doubling.
pub fn allgather_recursive_doubling(
    var: VarId,
    n: i64,
    elem_bytes: u64,
    nprocs: usize,
) -> CommSchedule {
    assert!(
        nprocs.is_power_of_two(),
        "recursive doubling requires a power-of-two machine"
    );
    let m = chunk(n, nprocs);
    let mut s = CommSchedule::new(nprocs);
    let mut salt = 0;
    for k in 0..ceil_log2(nprocs) {
        let gap = 1usize << k;
        let mut round = Round::default();
        for p in 0..nprocs {
            let g = (p / gap) * gap; // start of p's accumulated group
            let sec = Section::new(vec![Triplet::range(g as i64 * m + 1, (g + gap) as i64 * m)]);
            salt += 1;
            round
                .transfers
                .push(Transfer::new(p, p ^ gap, var, vec![sec], salt, elem_bytes));
        }
        s.push_round(round);
    }
    s
}

/// Pairwise-exchange all-to-all (`P` a power of two): round `r` pairs `p`
/// with `p XOR r`; `p` sends its slot destined for the partner and receives
/// the partner's slot into the partner's position. `P-1` rounds, one
/// message per processor per round.
pub fn alltoall_pairwise(var: VarId, n: i64, elem_bytes: u64, nprocs: usize) -> CommSchedule {
    assert!(
        nprocs.is_power_of_two(),
        "pairwise exchange requires a power-of-two machine (use Bruck otherwise)"
    );
    let m = chunk(n, nprocs);
    let mut s = CommSchedule::new(nprocs);
    let mut salt = 0;
    for r in 1..nprocs {
        let mut round = Round::default();
        for p in 0..nprocs {
            let q = p ^ r;
            salt += 1;
            let mut t = Transfer::new(p, q, var, vec![slot(q, m)], salt, elem_bytes);
            t.recv_secs = vec![slot(p, m)];
            t.bytes = m as u64 * elem_bytes;
            round.transfers.push(t);
        }
        s.push_round(round);
    }
    s
}

/// Bruck all-to-all (any `P`): a local rotation, `ceil(log2 P)` combining
/// rounds each moving every slot whose index has the round's bit set to
/// `(p - 2^k) mod P`, and a final local rotation. `O(P log P)` slot-moves
/// in `O(log P)` rounds — fewer, larger messages than pairwise exchange.
pub fn alltoall_bruck(var: VarId, n: i64, elem_bytes: u64, nprocs: usize) -> CommSchedule {
    let p_cnt = nprocs;
    let m = chunk(n, p_cnt);
    let mut s = CommSchedule::new(p_cnt);
    let mut salt = 0;

    // Phase 1: local rotation. Slot j := input block (p - j) mod P, so slot
    // j holds the data destined for processor (p - j) mod P.
    let mut rot = Round::default();
    for p in 0..p_cnt {
        let (mut secs, mut recv) = (Vec::new(), Vec::new());
        for j in 0..p_cnt {
            let srcblk = (p + p_cnt - j) % p_cnt;
            if srcblk != j {
                secs.push(slot(srcblk, m));
                recv.push(slot(j, m));
            }
        }
        if !secs.is_empty() {
            salt += 1;
            let mut t = Transfer::new(p, p, var, secs, salt, elem_bytes);
            t.recv_secs = recv;
            rot.transfers.push(t);
        }
    }
    s.push_round(rot);

    // Phase 2: for each bit k, every processor ships all slots with bit k
    // set to (p - 2^k) mod P, received into the same slots. An item that
    // starts in slot j travels a total of j processors backwards, landing
    // on its destination (p - j) mod P.
    for k in 0..ceil_log2(p_cnt) {
        let gap = 1usize << k;
        let secs: Vec<Section> = (1..p_cnt)
            .filter(|j| j & gap != 0)
            .map(|j| slot(j, m))
            .collect();
        if secs.is_empty() {
            continue;
        }
        let mut round = Round::default();
        for p in 0..p_cnt {
            salt += 1;
            round.transfers.push(Transfer::new(
                p,
                (p + p_cnt - gap) % p_cnt,
                var,
                secs.clone(),
                salt,
                elem_bytes,
            ));
        }
        s.push_round(round);
    }

    // Phase 3: final rotation. Result block o (data from source o) is in
    // slot (o - d) mod P on processor d.
    let mut rot = Round::default();
    for d in 0..p_cnt {
        let (mut secs, mut recv) = (Vec::new(), Vec::new());
        for o in 0..p_cnt {
            let srcslot = (o + p_cnt - d) % p_cnt;
            if srcslot != o {
                secs.push(slot(srcslot, m));
                recv.push(slot(o, m));
            }
        }
        if !secs.is_empty() {
            salt += 1;
            let mut t = Transfer::new(d, d, var, secs, salt, elem_bytes);
            t.recv_secs = recv;
            rot.transfers.push(t);
        }
    }
    s.push_round(rot);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_lockstep;

    const V: VarId = VarId(0);

    fn run(s: &CommSchedule, data: &mut [Vec<f64>]) {
        let bounds = full(data[0].len() as i64);
        run_lockstep(s, &bounds, data).unwrap();
    }

    /// data[p][i] = p * 1000 + i, handy for provenance checks.
    fn tagged(nprocs: usize, n: usize) -> Vec<Vec<f64>> {
        (0..nprocs)
            .map(|p| (0..n).map(|i| (p * 1000 + i) as f64).collect())
            .collect()
    }

    #[test]
    fn broadcast_delivers_root_vector() {
        for nprocs in [1, 2, 3, 4, 5, 8] {
            for root in [0, nprocs - 1] {
                let s = broadcast_binomial(V, 6, 8, nprocs, root);
                let mut data = tagged(nprocs, 6);
                let want = data[root].clone();
                run(&s, &mut data);
                for (p, d) in data.iter().enumerate() {
                    assert_eq!(d, &want, "P={nprocs} root={root} pid={p}");
                }
                assert_eq!(s.message_count(), nprocs - 1);
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for nprocs in [1, 2, 3, 4, 7, 8] {
            let s = reduce_binomial(V, 4, 8, nprocs, 0);
            let mut data = tagged(nprocs, 4);
            let want: Vec<f64> = (0..4)
                .map(|i| (0..nprocs).map(|p| (p * 1000 + i) as f64).sum())
                .collect();
            run(&s, &mut data);
            assert_eq!(data[0], want, "P={nprocs}");
        }
    }

    #[test]
    fn allreduce_sums_everywhere() {
        for nprocs in [1, 2, 3, 4, 6, 8] {
            let s = allreduce(V, 4, 8, nprocs);
            let mut data = tagged(nprocs, 4);
            let want: Vec<f64> = (0..4)
                .map(|i| (0..nprocs).map(|p| (p * 1000 + i) as f64).sum())
                .collect();
            run(&s, &mut data);
            for (p, d) in data.iter().enumerate() {
                assert_eq!(d, &want, "P={nprocs} pid={p}");
            }
            if nprocs.is_power_of_two() && nprocs > 1 {
                assert_eq!(s.rounds.len(), nprocs.trailing_zeros() as usize);
            }
        }
    }

    fn check_allgather(s: &CommSchedule, nprocs: usize, m: usize) {
        // Start: slot p is meaningful on p only; end: every pid has all slots.
        let n = nprocs * m;
        let mut data: Vec<Vec<f64>> = (0..nprocs)
            .map(|p| {
                (0..n)
                    .map(|i| {
                        if i / m == p {
                            (100 * p + i) as f64
                        } else {
                            f64::NAN
                        }
                    })
                    .collect()
            })
            .collect();
        let want: Vec<f64> = (0..n).map(|i| (100 * (i / m) + i) as f64).collect();
        run(s, &mut data);
        for (p, d) in data.iter().enumerate() {
            assert_eq!(d, &want, "pid={p}");
        }
    }

    #[test]
    fn allgather_ring_gathers() {
        for nprocs in [1, 2, 3, 5, 8] {
            let s = allgather_ring(V, (nprocs * 3) as i64, 8, nprocs);
            check_allgather(&s, nprocs, 3);
        }
    }

    #[test]
    fn allgather_recursive_doubling_gathers() {
        for nprocs in [1, 2, 4, 8, 16] {
            let s = allgather_recursive_doubling(V, (nprocs * 2) as i64, 8, nprocs);
            check_allgather(&s, nprocs, 2);
            if nprocs > 1 {
                assert_eq!(s.rounds.len(), nprocs.trailing_zeros() as usize);
            }
        }
    }

    fn check_alltoall(s: &CommSchedule, nprocs: usize, m: usize) {
        // data[p] slot q = block destined for q; end: data[q] slot p = that block.
        let n = nprocs * m;
        let mut data: Vec<Vec<f64>> = (0..nprocs)
            .map(|p| (0..n).map(|i| (p * 10_000 + i) as f64).collect())
            .collect();
        let want: Vec<Vec<f64>> = (0..nprocs)
            .map(|q| {
                (0..n)
                    .map(|i| {
                        let p = i / m; // block position = source pid
                        (p * 10_000 + q * m + i % m) as f64
                    })
                    .collect()
            })
            .collect();
        run(s, &mut data);
        assert_eq!(data, want);
    }

    #[test]
    fn alltoall_pairwise_transposes() {
        for nprocs in [1, 2, 4, 8] {
            let s = alltoall_pairwise(V, (nprocs * 2) as i64, 8, nprocs);
            check_alltoall(&s, nprocs, 2);
        }
    }

    #[test]
    fn alltoall_bruck_transposes_any_machine_size() {
        for nprocs in [1, 2, 3, 4, 5, 6, 7, 8, 12] {
            let s = alltoall_bruck(V, (nprocs * 2) as i64, 8, nprocs);
            check_alltoall(&s, nprocs, 2);
        }
    }

    #[test]
    fn bruck_sends_fewer_messages_than_pairwise() {
        let bruck = alltoall_bruck(V, 64, 8, 8);
        let pair = alltoall_pairwise(V, 64, 8, 8);
        assert!(bruck.message_count() < pair.message_count());
        // Bruck trades messages for bytes.
        assert!(bruck.total_bytes() > pair.total_bytes());
    }

    #[test]
    fn salts_are_unique_per_schedule() {
        for s in [
            broadcast_binomial(V, 8, 8, 8, 3),
            allreduce(V, 8, 8, 6),
            allgather_ring(V, 8, 8, 4),
            alltoall_bruck(V, 8, 8, 4),
        ] {
            let mut seen = std::collections::HashSet::new();
            for t in s.transfers() {
                assert!(seen.insert(t.salt), "duplicate salt {}", t.salt);
            }
        }
    }
}
