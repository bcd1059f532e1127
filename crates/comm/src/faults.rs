//! Seeded fault injection for the simulated transport.
//!
//! Fault decisions are drawn from an RNG derived per `(round, client)`
//! — never from a shared stream — so the same [`FaultPlan`] produces
//! the same faults regardless of executor thread count or the order
//! clients finish in.

use serde::{Deserialize, Serialize};

/// Probabilities and magnitudes of the injected link faults. All
/// probabilities are per-client-per-round and independent; the default
/// plan is fault-free.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability a completed upload is lost in transit.
    #[serde(default)]
    pub upload_drop: f64,
    /// Probability a client straggles (its round time is multiplied by
    /// [`FaultPlan::straggler_factor`]).
    #[serde(default)]
    pub straggler_prob: f64,
    /// Round-time multiplier for straggling clients.
    #[serde(default = "default_straggler_factor")]
    pub straggler_factor: f64,
    /// Probability a client crashes mid-round (downlink spent, nothing
    /// returns).
    #[serde(default)]
    pub crash_prob: f64,
    /// Probability the upload frame is truncated in transit (the
    /// server's decode fails and the upload is counted as dropped).
    #[serde(default)]
    pub truncate_prob: f64,
    /// Extra salt folded into the per-client fault streams, so two
    /// plans with identical probabilities can still draw different
    /// faults.
    #[serde(default)]
    pub seed: u64,
}

fn default_straggler_factor() -> f64 {
    4.0
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            upload_drop: 0.0,
            straggler_prob: 0.0,
            straggler_factor: default_straggler_factor(),
            crash_prob: 0.0,
            truncate_prob: 0.0,
            seed: 0,
        }
    }
}

/// The faults drawn for one `(round, client)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDraw {
    /// Client crashes mid-round.
    pub crash: bool,
    /// Client's round time is multiplied by the straggler factor.
    pub straggle: bool,
    /// Upload lost in transit.
    pub drop: bool,
    /// Fraction (in `[0, 1)`) of the upload frame that survives, when
    /// a truncation fault fires.
    pub truncate_at: Option<f64>,
}

impl FaultPlan {
    /// A fault-free plan (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Panics unless every probability is in `[0, 1]` and the
    /// straggler factor is at least 1.
    pub fn validate(&self) {
        for (name, p) in [
            ("upload_drop", self.upload_drop),
            ("straggler_prob", self.straggler_prob),
            ("crash_prob", self.crash_prob),
            ("truncate_prob", self.truncate_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be a probability, got {p}"
            );
        }
        assert!(
            self.straggler_factor >= 1.0,
            "straggler_factor must be >= 1, got {}",
            self.straggler_factor
        );
    }

    /// Draws this plan's faults for one `(round, client)` pair. The
    /// stream is derived from `(master_seed, self.seed, round, client)`
    /// with a fixed draw order, so results do not depend on execution
    /// order or thread count.
    pub fn draw(&self, master_seed: u64, round: usize, client: usize) -> FaultDraw {
        use rand::Rng;
        let mut rng = adaptivefl_tensor::rng::derived(
            master_seed ^ self.seed,
            &format!("fault-r{round}-c{client}"),
        );
        // Fixed draw order keeps the stream stable as probabilities
        // change.
        let crash = rng.gen_bool(self.crash_prob);
        let straggle = rng.gen_bool(self.straggler_prob);
        let drop = rng.gen_bool(self.upload_drop);
        let truncate = rng.gen_bool(self.truncate_prob);
        let frac: f64 = rng.gen();
        FaultDraw {
            crash,
            straggle,
            drop,
            truncate_at: truncate.then_some(frac),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_never_fires() {
        let plan = FaultPlan::none();
        for c in 0..50 {
            let d = plan.draw(1, 0, c);
            assert!(!d.crash && !d.straggle && !d.drop && d.truncate_at.is_none());
        }
    }

    #[test]
    fn draws_are_deterministic_per_round_client() {
        let plan = FaultPlan {
            upload_drop: 0.5,
            crash_prob: 0.2,
            ..Default::default()
        };
        for c in 0..20 {
            assert_eq!(plan.draw(9, 3, c), plan.draw(9, 3, c));
        }
    }

    #[test]
    fn certain_drop_always_fires() {
        let plan = FaultPlan {
            upload_drop: 1.0,
            ..Default::default()
        };
        for c in 0..20 {
            assert!(plan.draw(4, 1, c).drop);
        }
    }

    #[test]
    fn seed_salt_changes_the_stream() {
        let a = FaultPlan {
            upload_drop: 0.5,
            ..Default::default()
        };
        let b = FaultPlan {
            upload_drop: 0.5,
            seed: 1,
            ..Default::default()
        };
        let differs = (0..64).any(|c| a.draw(2, 0, c).drop != b.draw(2, 0, c).drop);
        assert!(differs, "salting the seed should change some draws");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn validate_rejects_bad_probability() {
        FaultPlan {
            upload_drop: 1.5,
            ..Default::default()
        }
        .validate();
    }
}
