//! `adaptivefl-store`: crash-safe checkpoint persistence and
//! deterministic resume for AdaptiveFL experiment runs.
//!
//! The simulator (`adaptivefl-core`) freezes a run into a
//! [`ServerSnapshot`](adaptivefl_core::checkpoint::ServerSnapshot);
//! this crate owns everything about putting that snapshot on disk and
//! getting it back intact:
//!
//! * [`format`] — the versioned `.afs` binary layout: magic, tagged
//!   sections, raw float bits (lossless), CRC-32 over the payload.
//! * [`crc`] — the CRC-32 (IEEE) implementation guarding each file.
//! * [`store`] — [`SnapshotStore`]: a snapshot directory with atomic
//!   temp-file + rename writes, keep-last-3 retention, and
//!   corruption-tolerant fallback to the newest snapshot that still
//!   decodes.
//!
//! The determinism contract is inherited from core: resuming from any
//! snapshot replays the remaining rounds with the exact RNG stream and
//! server state of the uninterrupted run, so accuracies, RL tables and
//! communication statistics match to the last bit at any thread count.
//!
//! [`run_or_resume`] is the one-call entry point the benchmark
//! binaries use: continue from the newest valid snapshot in a
//! directory if one exists, otherwise start fresh — checkpointing
//! either way.

pub mod crc;
pub mod format;
pub mod store;

pub use format::{decode_snapshot, encode_snapshot, MAGIC, VERSION};
pub use store::{SnapshotStore, EXTENSION};

use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::metrics::RunResult;
use adaptivefl_core::sim::{RunHooks, Simulation};
use adaptivefl_core::trace::{Phase, PhaseTimer, TraceEvent};
use adaptivefl_core::transport::Transport;
use adaptivefl_core::CoreError;

/// Runs `kind` to completion, checkpointing into `store` every
/// `every` rounds — resuming from the newest valid snapshot in the
/// store if one exists (corrupt snapshots are skipped), starting
/// fresh otherwise.
///
/// The store directory must be dedicated to this one run: snapshots
/// of a different method or configuration in the same directory fail
/// resume validation with [`CoreError::Snapshot`].
pub fn run_or_resume(
    sim: &mut Simulation,
    kind: MethodKind,
    transport: &mut dyn Transport,
    store: &mut SnapshotStore,
    every: usize,
) -> Result<RunResult, CoreError> {
    let load_timer = PhaseTimer::start(sim.env().tracer(), Phase::Checkpoint);
    let resume_point = store.latest_valid()?;
    load_timer.stop(sim.env().tracer());
    if let Some((_, snap)) = &resume_point {
        // Resume instantiates the snapshot's kind, and kinds may share
        // a method name (AdaptiveFL and its capped ablation), so check
        // the kind itself.
        if snap.kind != kind {
            return Err(CoreError::Snapshot(format!(
                "store holds a {} run, asked to run {kind}",
                snap.kind
            )));
        }
        if sim.env().tracer().enabled() {
            sim.env().tracer().event(TraceEvent::CheckpointLoad {
                round: snap.completed_rounds,
            });
        }
    }
    let hooks = RunHooks {
        checkpoint_every: every,
        sink: store,
        halt_after: None,
    };
    let result = match &resume_point {
        Some((_, snap)) => sim.resume_with_hooks(snap, transport, hooks)?,
        None => sim.run_with_hooks(kind, transport, hooks)?,
    };
    Ok(result.expect("no halt configured, so the run completes"))
}
