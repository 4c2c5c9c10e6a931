//! Fault plans: what the network does to messages, and the retry policy
//! that makes delivery reliable anyway.

use std::collections::HashMap;

/// Per-link fault probabilities. All probabilities are in `[0, 1]`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LinkFault {
    /// Probability a transmission attempt is dropped on the wire.
    pub drop: f64,
    /// Probability a delivered attempt is duplicated (a second copy is
    /// injected; receiver-side dedup must suppress it).
    pub dup: f64,
    /// Probability a delivered attempt is reordered past queued traffic.
    pub reorder: f64,
    /// Probability a delivered attempt is delayed by [`LinkFault::delay`].
    pub delay_p: f64,
    /// Extra transit time for delayed attempts, in the backend's time
    /// units (wall microseconds on the task machine, virtual units simulated).
    pub delay: f64,
}

impl LinkFault {
    /// No faults on this link.
    pub fn none() -> LinkFault {
        LinkFault::default()
    }

    /// Does this link perturb traffic at all?
    pub fn is_active(&self) -> bool {
        self.drop > 0.0 || self.dup > 0.0 || self.reorder > 0.0 || self.delay_p > 0.0
    }
}

/// A whole-network fault plan: the default link behaviour, per-source
/// overrides, targeted permanent kills, and the retry policy.
///
/// Time quantities (`rto`, `delay`) are in the executing backend's units:
/// wall-clock microseconds on `ThreadNet`, virtual time units on `SimNet`.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultPlan {
    /// Seed for every injection decision (see [`crate::Injector`]).
    pub seed: u64,
    /// Faults applied to every link unless overridden.
    pub default: LinkFault,
    /// Per-sending-processor overrides.
    pub per_src: HashMap<usize, LinkFault>,
    /// Permanent kills: `(src, n)` drops *every* attempt of the `n`-th
    /// message (1-based) sent by processor `src` — the injected permanent
    /// loss the delivery layer must diagnose as lost, not deadlocked.
    pub kill: Vec<(usize, u64)>,
    /// Initial retry timeout (time units; see struct docs).
    pub rto: f64,
    /// Backoff multiplier applied to the retry timeout after each attempt.
    pub backoff: f64,
    /// Transmission attempts before a message is dead-lettered
    /// (1 original + `max_retries` retries).
    pub max_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            default: LinkFault::none(),
            per_src: HashMap::new(),
            kill: Vec::new(),
            rto: 400.0,
            backoff: 2.0,
            max_retries: 16,
        }
    }
}

/// A malformed `--faults` spec.
#[derive(Clone, PartialEq, Debug)]
pub struct PlanParseError(pub String);

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

impl FaultPlan {
    /// The no-fault plan (delivery layer disabled).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Uniform faults on every link with the given seed.
    pub fn uniform(seed: u64, link: LinkFault) -> FaultPlan {
        FaultPlan {
            seed,
            default: link,
            ..FaultPlan::default()
        }
    }

    /// Does this plan perturb traffic at all? Transports bypass the whole
    /// delivery layer when it does not, so `FaultPlan::none()` is free.
    pub fn is_active(&self) -> bool {
        self.default.is_active()
            || self.per_src.values().any(LinkFault::is_active)
            || !self.kill.is_empty()
    }

    /// The fault profile for messages sent by `src`.
    pub fn link(&self, src: usize) -> LinkFault {
        self.per_src.get(&src).copied().unwrap_or(self.default)
    }

    /// Is `(src, seq)` permanently killed?
    pub fn killed(&self, src: usize, seq: u64) -> bool {
        self.kill.iter().any(|&(s, n)| s == src && n == seq)
    }

    /// Cumulative backoff delay before transmission attempt `attempt`
    /// (attempt 0 is the original send: delay 0).
    pub fn retry_delay(&self, attempt: u32) -> f64 {
        let mut total = 0.0;
        let mut step = self.rto;
        for _ in 0..attempt {
            total += step;
            step *= self.backoff;
        }
        total
    }

    /// Parse a CLI spec: comma-separated `key=value` pairs.
    ///
    /// ```text
    /// drop=0.1,dup=0.05,reorder=0.2,delayp=0.1,delay=200,seed=7
    /// rto=400,backoff=2,retries=16
    /// kill=SRC:N     permanently lose the N-th message sent by pid SRC
    ///                (repeatable)
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, PlanParseError> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let Some((key, val)) = part.split_once('=') else {
                return Err(PlanParseError(format!("`{part}` is not key=value")));
            };
            let (key, val) = (key.trim(), val.trim());
            let prob = |v: &str| -> Result<f64, PlanParseError> {
                v.parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| PlanParseError(format!("`{key}={v}` is not in [0,1]")))
            };
            let num = |v: &str| -> Result<f64, PlanParseError> {
                v.parse::<f64>()
                    .ok()
                    .filter(|x| *x >= 0.0)
                    .ok_or_else(|| PlanParseError(format!("`{key}={v}` is not a number >= 0")))
            };
            match key {
                "drop" => plan.default.drop = prob(val)?,
                "dup" => plan.default.dup = prob(val)?,
                "reorder" => plan.default.reorder = prob(val)?,
                "delayp" => plan.default.delay_p = prob(val)?,
                "delay" => plan.default.delay = num(val)?,
                "seed" => {
                    plan.seed = val
                        .parse()
                        .map_err(|_| PlanParseError(format!("`seed={val}` is not a u64")))?
                }
                "rto" => plan.rto = num(val)?,
                "backoff" => {
                    plan.backoff = num(val)?;
                    if plan.backoff < 1.0 {
                        return Err(PlanParseError(format!(
                            "`backoff={val}` must be >= 1 (retries must not accelerate)"
                        )));
                    }
                }
                "retries" => {
                    plan.max_retries = val
                        .parse()
                        .map_err(|_| PlanParseError(format!("`retries={val}` is not a u32")))?
                }
                "kill" => {
                    let parsed = val
                        .split_once(':')
                        .and_then(|(s, n)| Some((s.trim().parse().ok()?, n.trim().parse().ok()?)));
                    let Some((src, n)) = parsed else {
                        return Err(PlanParseError(format!(
                            "`kill={val}` must be SRC:N (pid and 1-based message number)"
                        )));
                    };
                    plan.kill.push((src, n));
                }
                other => return Err(PlanParseError(format!("unknown key `{other}`"))),
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_fields() {
        let p =
            FaultPlan::parse("drop=0.1,dup=0.05,reorder=0.2,delayp=0.5,delay=200,seed=7").unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.default.drop, 0.1);
        assert_eq!(p.default.dup, 0.05);
        assert_eq!(p.default.reorder, 0.2);
        assert_eq!(p.default.delay_p, 0.5);
        assert_eq!(p.default.delay, 200.0);
        assert!(p.is_active());
    }

    #[test]
    fn parse_retry_policy_and_kill() {
        let p = FaultPlan::parse("rto=100,backoff=3,retries=4,kill=2:5,kill=0:1").unwrap();
        assert_eq!(p.rto, 100.0);
        assert_eq!(p.backoff, 3.0);
        assert_eq!(p.max_retries, 4);
        assert!(p.killed(2, 5) && p.killed(0, 1) && !p.killed(1, 1));
        assert!(p.is_active(), "a kill alone activates the delivery layer");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("wibble=1").is_err());
        assert!(FaultPlan::parse("kill=zz").is_err());
        assert!(FaultPlan::parse("backoff=0.5").is_err());
    }

    #[test]
    fn empty_spec_is_inactive() {
        let p = FaultPlan::parse("").unwrap();
        assert!(!p.is_active());
        assert_eq!(p, FaultPlan::none());
    }

    #[test]
    fn retry_delay_compounds() {
        let p = FaultPlan::parse("rto=100,backoff=2").unwrap();
        assert_eq!(p.retry_delay(0), 0.0);
        assert_eq!(p.retry_delay(1), 100.0);
        assert_eq!(p.retry_delay(2), 300.0);
        assert_eq!(p.retry_delay(3), 700.0);
    }
}
