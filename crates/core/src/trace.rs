//! Structured observability for the round loop.
//!
//! A [`Tracer`] receives two kinds of signals while a simulation runs:
//!
//! * **events** ([`TraceEvent`]) — structured facts about what the
//!   server and clients did: which pool submodel each client received
//!   (§3.2), how the RL tables were updated (Algorithm 1, lines
//!   12–26), which parameter elements the heterogeneous aggregation
//!   covered (Algorithm 2), per-client transport outcomes, and
//!   checkpoint activity. Events carry *only deterministic data* —
//!   round indices, client ids, byte counts, losses — never wall-clock
//!   time.
//! * **phase durations** ([`Phase`]) — monotonic wall-clock nanoseconds
//!   for each execution phase, measured with [`PhaseTimer`]. Wall-clock
//!   readings flow exclusively through this channel, so they can never
//!   leak into the deterministic run state: a traced run's
//!   [`RunResult`](crate::metrics::RunResult) is bit-identical to an
//!   untraced one (asserted by the `adaptivefl-trace` determinism
//!   tests).
//!
//! The default tracer is [`NoopTracer`]. Every emission site guards on
//! [`Tracer::enabled`], so when tracing is off no event is constructed
//! and no clock is read — the hot path pays one predictable branch.
//! [`jsonl`] is the trace file format: one flat JSON object per
//! signal, written by the derived `Serialize` of [`TraceEvent`] and
//! read back bit-exact through `serde_json`. It lives here, beside the
//! type it encodes. `adaptivefl-trace` provides the real
//! implementations (`RecordingTracer` for in-memory capture,
//! `JsonlTracer` for streaming a run to disk) and the report renderer.

use std::time::Instant;

pub mod jsonl;

/// Execution phases a tracer can time. The variants mirror the round
/// loop: a `Round` contains `Dispatch`, per-client `ClientTrain`,
/// `Collect` and `Aggregate`; `Eval` and `Checkpoint` happen between
/// rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One full federated round (dispatch → exchange → aggregate).
    Round,
    /// One client's local training (runs inside the transport,
    /// possibly on a worker thread).
    ClientTrain,
    /// Server-side job construction and RL dispatch updates.
    Dispatch,
    /// Server-side consumption of deliveries (RL return updates,
    /// upload gathering).
    Collect,
    /// Heterogeneous aggregation (Algorithm 2).
    Aggregate,
    /// Evaluation of the global/per-level models.
    Eval,
    /// Snapshot encode + write (or read, on resume).
    Checkpoint,
}

impl Phase {
    /// Stable lower-case name used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Round => "round",
            Phase::ClientTrain => "client_train",
            Phase::Dispatch => "dispatch",
            Phase::Collect => "collect",
            Phase::Aggregate => "aggregate",
            Phase::Eval => "eval",
            Phase::Checkpoint => "checkpoint",
        }
    }

    /// Every phase, in report order.
    pub fn all() -> [Phase; 7] {
        [
            Phase::Round,
            Phase::ClientTrain,
            Phase::Dispatch,
            Phase::Collect,
            Phase::Aggregate,
            Phase::Eval,
            Phase::Checkpoint,
        ]
    }

    /// Parses a name produced by [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::all().into_iter().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured fact about a run. All payloads are deterministic:
/// they derive from the seeded simulation only, never from wall-clock
/// time or thread scheduling. The field names are the keys of the
/// [`jsonl`] encoding.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum TraceEvent {
    /// A run (fresh or resumed) entered the round loop.
    RunStart {
        /// Method display name.
        method: String,
        /// First round the loop will execute (>0 on resume).
        start_round: usize,
        /// Total configured rounds.
        rounds: usize,
    },
    /// A round began.
    RoundStart {
        /// Round index (0-based).
        round: usize,
    },
    /// A round completed.
    RoundEnd {
        /// Round index.
        round: usize,
        /// Simulated (not wall-clock) round duration, seconds.
        sim_secs: f64,
        /// Clients that failed to return anything.
        failures: usize,
    },
    /// The server dispatched a model to a client.
    Dispatch {
        /// Round index.
        round: usize,
        /// Target client.
        client: usize,
        /// Method-specific tag (pool index for AdaptiveFL, level index
        /// for the baselines).
        tag: usize,
        /// Parameter elements sent down the link.
        params: u64,
    },
    /// A client finished local training (emitted from inside the
    /// client job, before the uplink).
    ClientTrain {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Client-side tag (e.g. the pool index it pruned down to).
        tag: usize,
        /// Local training loss.
        loss: f32,
        /// Local samples trained on.
        samples: usize,
        /// Per-sample MACs of the trained submodel.
        macs_per_sample: u64,
    },
    /// The server consumed one delivery.
    Collect {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Delivery status name (`delivered`, `training_failed`,
        /// `dropped`, `late`, `crashed`).
        status: &'static str,
        /// Parameter elements that arrived (0 unless delivered).
        up_params: u64,
    },
    /// Aggregation coverage of one parameter tensor (Algorithm 2):
    /// how many of its elements were covered by at least one upload.
    LayerCoverage {
        /// Round index.
        round: usize,
        /// Parameter name.
        layer: String,
        /// Elements covered by ≥1 upload this round.
        covered: u64,
        /// Total elements in the tensor.
        total: u64,
        /// Number of uploads contributing to this tensor.
        uploads: usize,
    },
    /// Curiosity-table update at dispatch (Algorithm 1, line 12).
    RlDispatch {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Curiosity row (`T_c` type index: S=0, M=1, L=2).
        level: usize,
    },
    /// Resource-table update at return (Algorithm 1, lines 13–26).
    RlReturn {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Dispatched pool index.
        sent: usize,
        /// Returned pool index, or `None` on total failure.
        returned: Option<usize>,
    },
    /// Per-client transport outcome (emitted by fault-injecting
    /// transports).
    Comm {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Payload bytes down the link.
        bytes_down: u64,
        /// Payload bytes that arrived back (0 unless delivered).
        bytes_up: u64,
        /// Delivery status name.
        status: &'static str,
        /// Whether a straggler delay hit this client.
        straggled: bool,
    },
    /// A snapshot was saved.
    CheckpointSave {
        /// Completed rounds at the checkpoint.
        round: usize,
    },
    /// A snapshot was loaded for resume.
    CheckpointLoad {
        /// Completed rounds in the loaded snapshot.
        round: usize,
    },
    /// An evaluation completed.
    Eval {
        /// Round index evaluated after.
        round: usize,
        /// Full (global-model) accuracy.
        full: f32,
    },
}

impl TraceEvent {
    /// Stable snake_case tag naming the event type (the `type` field
    /// of the JSONL encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::RoundStart { .. } => "round_start",
            TraceEvent::RoundEnd { .. } => "round_end",
            TraceEvent::Dispatch { .. } => "dispatch",
            TraceEvent::ClientTrain { .. } => "client_train",
            TraceEvent::Collect { .. } => "collect",
            TraceEvent::LayerCoverage { .. } => "layer_coverage",
            TraceEvent::RlDispatch { .. } => "rl_dispatch",
            TraceEvent::RlReturn { .. } => "rl_return",
            TraceEvent::Comm { .. } => "comm",
            TraceEvent::CheckpointSave { .. } => "checkpoint_save",
            TraceEvent::CheckpointLoad { .. } => "checkpoint_load",
            TraceEvent::Eval { .. } => "eval",
        }
    }
}

/// Stable status name for a [`DeliveryStatus`](crate::transport::DeliveryStatus)
/// in traces.
pub fn status_name(status: crate::transport::DeliveryStatus) -> &'static str {
    use crate::transport::DeliveryStatus::*;
    match status {
        Delivered => "delivered",
        TrainingFailed => "training_failed",
        Dropped => "dropped",
        Late => "late",
        Crashed => "crashed",
    }
}

/// A sink for trace signals. Implementations must be `Sync`: client
/// jobs emit [`TraceEvent::ClientTrain`] from transport worker
/// threads.
///
/// The contract every implementation must keep: **consume signals
/// without feeding anything back** — a tracer never touches RNGs,
/// model state or records, so traced and untraced runs are
/// bit-identical.
pub trait Tracer: Send + Sync {
    /// `true` when the tracer wants signals. Emission sites guard on
    /// this, so a disabled tracer costs one branch and zero
    /// allocations or clock reads.
    fn enabled(&self) -> bool;

    /// Receives one structured event.
    fn event(&self, event: TraceEvent);

    /// Receives one phase duration in monotonic nanoseconds.
    fn phase(&self, phase: Phase, nanos: u64);
}

/// The default tracer: discards everything, reports itself disabled,
/// and (thanks to the `enabled` guards at every site) compiles the hot
/// paths down to untraced code.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn event(&self, _event: TraceEvent) {}

    fn phase(&self, _phase: Phase, _nanos: u64) {}
}

/// Times one phase against a tracer. When the tracer is disabled the
/// clock is never read.
///
/// ```ignore
/// let timer = PhaseTimer::start(tracer, Phase::Aggregate);
/// aggregate(...);
/// timer.stop(tracer);
/// ```
#[must_use = "call stop() to record the duration"]
pub struct PhaseTimer {
    phase: Phase,
    start: Option<Instant>,
}

impl PhaseTimer {
    /// Starts timing `phase` (a no-op when the tracer is disabled).
    pub fn start(tracer: &dyn Tracer, phase: Phase) -> Self {
        PhaseTimer {
            phase,
            start: tracer.enabled().then(Instant::now),
        }
    }

    /// Stops the timer and reports the elapsed nanoseconds.
    pub fn stop(self, tracer: &dyn Tracer) {
        if let Some(t0) = self.start {
            tracer.phase(self.phase, t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        let t = NoopTracer;
        assert!(!t.enabled());
        t.event(TraceEvent::RoundStart { round: 0 });
        t.phase(Phase::Round, 123);
    }

    #[test]
    fn noop_timer_never_reads_the_clock() {
        let t = NoopTracer;
        let timer = PhaseTimer::start(&t, Phase::Aggregate);
        assert!(timer.start.is_none());
        timer.stop(&t);
    }

    #[test]
    fn phase_names_roundtrip() {
        for p in Phase::all() {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn event_kinds_are_distinct() {
        let events = [
            TraceEvent::RunStart {
                method: "m".into(),
                start_round: 0,
                rounds: 1,
            },
            TraceEvent::RoundStart { round: 0 },
            TraceEvent::RoundEnd {
                round: 0,
                sim_secs: 0.0,
                failures: 0,
            },
            TraceEvent::Dispatch {
                round: 0,
                client: 0,
                tag: 0,
                params: 0,
            },
            TraceEvent::ClientTrain {
                round: 0,
                client: 0,
                tag: 0,
                loss: 0.0,
                samples: 0,
                macs_per_sample: 0,
            },
            TraceEvent::Collect {
                round: 0,
                client: 0,
                status: "delivered",
                up_params: 0,
            },
            TraceEvent::LayerCoverage {
                round: 0,
                layer: "w".into(),
                covered: 0,
                total: 0,
                uploads: 0,
            },
            TraceEvent::RlDispatch {
                round: 0,
                client: 0,
                level: 0,
            },
            TraceEvent::RlReturn {
                round: 0,
                client: 0,
                sent: 0,
                returned: None,
            },
            TraceEvent::Comm {
                round: 0,
                client: 0,
                bytes_down: 0,
                bytes_up: 0,
                status: "delivered",
                straggled: false,
            },
            TraceEvent::CheckpointSave { round: 0 },
            TraceEvent::CheckpointLoad { round: 0 },
            TraceEvent::Eval {
                round: 0,
                full: 0.0,
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
    }

    #[test]
    fn status_names_cover_every_status() {
        use crate::transport::DeliveryStatus::*;
        let mut names: Vec<&str> = [Delivered, TrainingFailed, Dropped, Late, Crashed]
            .into_iter()
            .map(status_name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
