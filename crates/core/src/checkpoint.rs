//! Crash-safe checkpointing: the state every server-side component
//! must expose so a run can be snapshotted mid-way and resumed
//! bit-identically.
//!
//! The pieces:
//!
//! * [`MethodState`] — a method-agnostic container for everything an
//!   [`FlMethod`](crate::methods::FlMethod) owns: named parameter maps
//!   (the global model, or one per level for Decoupled), the optional
//!   [`RlState`] tables, and opaque extras for forward compatibility.
//!   Every method captures and restores it through
//!   [`FlMethod::capture`](crate::methods::FlMethod::capture) and
//!   [`FlMethod::restore`](crate::methods::FlMethod::restore), written
//!   once for all of them.
//! * [`ServerSnapshot`] — one frozen run: config fingerprint, method
//!   kind and state, the run RNG's reconstruction words, the model-pool
//!   shape (for validation) and the accumulated round/eval history.
//! * [`SnapshotSink`] — where snapshots go during a run. The
//!   `adaptivefl-store` crate provides the durable, CRC-checked,
//!   atomically-written implementation; [`MemorySink`] collects
//!   snapshots in memory for tests.
//!
//! Determinism contract: a run resumed from a snapshot taken after
//! round `R` replays rounds `R+1..T` with the exact RNG stream and
//! server state of the uninterrupted run, so the final accuracy, RL
//! tables and [`CommStats`](crate::transport::CommStats) are
//! bit-identical at any thread count (see
//! [`Simulation::resume_with_transport`](crate::sim::Simulation::resume_with_transport)
//! and [`Simulation::resume_with_hooks`](crate::sim::Simulation::resume_with_hooks)).

use adaptivefl_nn::ParamMap;
use rand_chacha::ChaCha8Rng;

use crate::error::CoreError;
use crate::methods::MethodKind;
use crate::metrics::{EvalRecord, RoundRecord};
use crate::rl::RlState;

/// Everything one [`FlMethod`](crate::methods::FlMethod) owns, in a
/// method-agnostic shape.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MethodState {
    /// Named parameter maps, e.g. `[("global", …)]` or one entry per
    /// Decoupled level. Order is part of the contract: restore matches
    /// by position after validating names.
    pub params: Vec<(String, ParamMap)>,
    /// RL tables for methods that carry them (AdaptiveFL variants).
    pub rl: Option<RlState>,
    /// Method-specific opaque extras (`key` → bytes), reserved for
    /// methods whose state outgrows the two fields above.
    pub extra: Vec<(String, Vec<u8>)>,
}

/// One frozen run, as captured between rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSnapshot {
    /// The method kind; resume instantiates it afresh and then
    /// restores [`ServerSnapshot::method`] into it.
    pub kind: MethodKind,
    /// The method's name, [`MethodKind::name`] (resume validates it).
    pub method_name: String,
    /// Rounds fully completed (the resumed run starts at this index).
    pub completed_rounds: usize,
    /// The run RNG's reconstruction words
    /// ([`ChaCha8Rng::state_words`]).
    pub rng_words: Vec<u32>,
    /// The frozen method state.
    pub method: MethodState,
    /// Per-round history up to `completed_rounds`.
    pub rounds: Vec<RoundRecord>,
    /// Evaluation history up to `completed_rounds`.
    pub evals: Vec<EvalRecord>,
    /// Deterministic fingerprint of the [`SimConfig`](crate::sim::SimConfig)
    /// (its `Debug` rendering); resume refuses a mismatched
    /// environment.
    pub cfg_fingerprint: String,
    /// `p` of the model pool the run was built on.
    pub pool_p: usize,
    /// Per-entry parameter counts of the pool, ascending — a cheap
    /// structural check that the resumed environment splits the model
    /// identically.
    pub pool_params: Vec<u64>,
}

impl ServerSnapshot {
    /// Rebuilds the run RNG frozen in this snapshot.
    pub fn rng(&self) -> Result<ChaCha8Rng, CoreError> {
        let words: [u32; ChaCha8Rng::STATE_WORDS] =
            self.rng_words.as_slice().try_into().map_err(|_| {
                CoreError::Snapshot(format!(
                    "rng state has {} words, want {}",
                    self.rng_words.len(),
                    ChaCha8Rng::STATE_WORDS
                ))
            })?;
        ChaCha8Rng::from_state_words(&words)
            .ok_or_else(|| CoreError::Snapshot("rng buffer index out of range".into()))
    }
}

/// Destination for snapshots produced during a run.
pub trait SnapshotSink {
    /// Persists one snapshot. An error aborts the run (the run's state
    /// is still intact in memory, but the caller asked for durability
    /// it cannot have).
    fn save(&mut self, snap: &ServerSnapshot) -> Result<(), CoreError>;
}

/// A [`SnapshotSink`] that keeps every snapshot in memory — for tests
/// and for callers that manage durability themselves.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// The collected snapshots, in save order.
    pub snapshots: Vec<ServerSnapshot>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The newest snapshot, if any.
    pub fn latest(&self) -> Option<&ServerSnapshot> {
        self.snapshots.last()
    }
}

impl SnapshotSink for MemorySink {
    fn save(&mut self, snap: &ServerSnapshot) -> Result<(), CoreError> {
        self.snapshots.push(snap.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use rand_chacha::ChaCha8Rng;

    fn snapshot(completed_rounds: usize, rng_words: Vec<u32>) -> ServerSnapshot {
        ServerSnapshot {
            kind: MethodKind::AdaptiveFl,
            method_name: "x".into(),
            completed_rounds,
            rng_words,
            method: MethodState::default(),
            rounds: Vec::new(),
            evals: Vec::new(),
            cfg_fingerprint: String::new(),
            pool_p: 1,
            pool_params: Vec::new(),
        }
    }

    #[test]
    fn snapshot_rng_restores_stream() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..7 {
            let _ = rng.next_u32();
        }
        let snap = snapshot(0, rng.state_words().to_vec());
        let mut restored = snap.rng().expect("valid words");
        assert_eq!(restored.next_u64(), rng.next_u64());
    }

    #[test]
    fn snapshot_rng_rejects_bad_word_count() {
        assert!(snapshot(0, vec![0; 5]).rng().is_err());
    }

    #[test]
    fn memory_sink_collects_and_finds() {
        let mut sink = MemorySink::new();
        for r in [2usize, 4] {
            sink.save(&snapshot(r, Vec::new()))
                .expect("memory sink is infallible");
        }
        let rounds: Vec<usize> = sink.snapshots.iter().map(|s| s.completed_rounds).collect();
        assert_eq!(rounds, [2, 4]);
        assert_eq!(sink.latest().expect("latest").completed_rounds, 4);
    }
}
