//! The in-memory reference a [`CommSchedule`] is checked against.
//!
//! [`run_lockstep`] applies a schedule round by round with no network:
//! within a round, every payload is read from pre-round state before any
//! receive is applied. The planner's and the algorithms' tests compare
//! against it; data *moves* only when a plan is lowered to Figure 1's
//! send / receive / await statements and the machine runs them.
//!
//! Data lives as one `f64` vector per processor, addressed through the
//! array's global `bounds` section: element `idx` lives at row-major
//! ordinal `bounds.ordinal_of(idx)`.

use crate::schedule::CommSchedule;
use xdp_ir::Section;

/// Malformed input to [`run_lockstep`], reported by name instead of a
/// panic. Every caller is a test or an example that unwraps it, so it
/// carries `Debug` and nothing else.
#[derive(Clone, PartialEq, Debug)]
pub enum ExecError {
    /// A transfer section indexes outside the array bounds.
    OutOfBounds { point: Vec<i64>, bounds: Section },
    /// A payload's length does not equal the receive sections' volume.
    PayloadMismatch { expected: usize, got: usize },
    /// `data` does not hold one vector per schedule processor.
    WrongProcCount { expected: usize, got: usize },
    /// A local vector is shorter than the bounds volume.
    ShortVector {
        pid: usize,
        expected: usize,
        got: usize,
    },
}

fn ord(bounds: &Section, point: &[i64]) -> Result<usize, ExecError> {
    bounds
        .ordinal_of(point)
        .map(|o| o as usize)
        .ok_or_else(|| ExecError::OutOfBounds {
            point: point.to_vec(),
            bounds: bounds.clone(),
        })
}

/// Read a transfer's payload (row-major concatenation of its sections).
fn gather(bounds: &Section, local: &[f64], secs: &[Section]) -> Result<Vec<f64>, ExecError> {
    let mut out = Vec::new();
    for sec in secs {
        for p in sec.iter() {
            out.push(local[ord(bounds, &p)?]);
        }
    }
    Ok(out)
}

/// Scatter a payload into the receive sections, overwriting or combining.
fn scatter(
    bounds: &Section,
    local: &mut [f64],
    secs: &[Section],
    vals: &[f64],
    combine: bool,
) -> Result<(), ExecError> {
    let expected: usize = secs.iter().map(|s| s.volume() as usize).sum();
    if vals.len() != expected {
        return Err(ExecError::PayloadMismatch {
            expected,
            got: vals.len(),
        });
    }
    let mut it = vals.iter();
    for sec in secs {
        for p in sec.iter() {
            let v = *it.next().expect("length checked above");
            let slot = &mut local[ord(bounds, &p)?];
            if combine {
                *slot += v;
            } else {
                *slot = v;
            }
        }
    }
    Ok(())
}

/// Check the data vectors cover the bounds volume for every processor.
fn check_data(s: &CommSchedule, bounds: &Section, data: &[Vec<f64>]) -> Result<(), ExecError> {
    if data.len() != s.nprocs {
        return Err(ExecError::WrongProcCount {
            expected: s.nprocs,
            got: data.len(),
        });
    }
    let vol = bounds.volume() as usize;
    for (pid, v) in data.iter().enumerate() {
        if v.len() < vol {
            return Err(ExecError::ShortVector {
                pid,
                expected: vol,
                got: v.len(),
            });
        }
    }
    Ok(())
}

/// Reference execution: apply the whole schedule in memory, round by round.
/// `data[p]` is processor `p`'s vector, laid out by `bounds`.
pub fn run_lockstep(
    s: &CommSchedule,
    bounds: &Section,
    data: &mut [Vec<f64>],
) -> Result<(), ExecError> {
    check_data(s, bounds, data)?;
    for round in &s.rounds {
        let packed: Vec<Vec<f64>> = round
            .transfers
            .iter()
            .map(|t| gather(bounds, &data[t.src], &t.secs))
            .collect::<Result<_, _>>()?;
        for (t, payload) in round.transfers.iter().zip(packed) {
            scatter(bounds, &mut data[t.dst], &t.recv_secs, &payload, t.combine)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::broadcast_binomial;
    use xdp_ir::{Triplet, VarId};

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        let s = broadcast_binomial(VarId(0), 8, 8, 4, 1);
        let bounds = |n| Section::new(vec![Triplet::range(1, n)]);
        let run = |b: Section, mut data: Vec<Vec<f64>>| run_lockstep(&s, &b, &mut data);

        let e = run(bounds(8), vec![vec![0.0; 8]; 3]).unwrap_err();
        assert_eq!(format!("{e:?}"), "WrongProcCount { expected: 4, got: 3 }");

        let mut short = vec![vec![0.0; 8]; 4];
        short[2].truncate(5);
        let e = run(bounds(8), short).unwrap_err();
        assert_eq!(
            format!("{e:?}"),
            "ShortVector { pid: 2, expected: 8, got: 5 }"
        );

        // Bounds that don't cover the schedule's sections: the transfer
        // indexes land outside and must be reported, not panic.
        let e = run(bounds(4), vec![vec![0.0; 8]; 4]).unwrap_err();
        assert!(matches!(e, ExecError::OutOfBounds { .. }), "{e:?}");
    }
}
