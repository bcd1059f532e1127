//! The client↔server exchange abstraction.
//!
//! Every [`FlMethod`](crate::methods::FlMethod) round is split into
//! three phases: the method *dispatches* a batch of [`ClientJob`]s (one
//! per selected client), a [`Transport`] *executes* them and returns
//! the surviving uploads as [`Delivery`]s plus per-round [`CommStats`],
//! and the method *consumes* the deliveries (aggregation, RL updates,
//! metrics).
//!
//! Two transports exist:
//!
//! * [`PerfectTransport`] (here, the default) — a lossless sequential
//!   link: every upload arrives, jobs run in dispatch order against the
//!   shared round RNG. This reproduces the pre-transport simulator
//!   byte-for-byte.
//! * `SimTransport` (in the `adaptivefl-comm` crate) — wire-encodes
//!   uploads, injects faults (drops, stragglers, crashes, truncation),
//!   enforces a round deadline, and runs clients on a thread pool with
//!   per-client derived RNGs so results are thread-count invariant.

use bytes::{BufMut, BytesMut};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::aggregate::Upload;
use crate::compress::FrameReader;
use crate::error::CoreError;
use crate::sim::Env;

/// Per-round communication accounting, aggregated into
/// [`RoundRecord`](crate::metrics::RoundRecord).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommStats {
    /// Payload bytes dispatched to clients (dense `f32` elements × 4).
    pub bytes_down: u64,
    /// Payload bytes that arrived back at the server.
    pub bytes_up: u64,
    /// Uploads lost in transit (drop or truncation faults).
    pub drops: usize,
    /// Clients hit by a straggler delay.
    pub stragglers: usize,
    /// Uploads that arrived after the round deadline (wasted).
    pub deadline_misses: usize,
    /// Clients that crashed mid-round.
    pub crashes: usize,
}

impl CommStats {
    /// Adds another round's stats into this accumulator.
    pub fn accumulate(&mut self, other: &CommStats) {
        self.bytes_down += other.bytes_down;
        self.bytes_up += other.bytes_up;
        self.drops += other.drops;
        self.stragglers += other.stragglers;
        self.deadline_misses += other.deadline_misses;
        self.crashes += other.crashes;
    }

    /// Total faults that cost an upload (drops + deadline misses +
    /// crashes).
    pub fn lost_uploads(&self) -> usize {
        self.drops + self.deadline_misses + self.crashes
    }

    /// Appends the stats to a binary frame (big-endian) — the stable
    /// snapshot encoding.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.bytes_down);
        buf.put_u64(self.bytes_up);
        buf.put_u64(self.drops as u64);
        buf.put_u64(self.stragglers as u64);
        buf.put_u64(self.deadline_misses as u64);
        buf.put_u64(self.crashes as u64);
    }

    /// Parses stats encoded by [`CommStats::encode`]. Truncated frames
    /// return [`CoreError::MalformedFrame`], never panic.
    pub fn decode(r: &mut FrameReader<'_>) -> Result<Self, CoreError> {
        Ok(CommStats {
            bytes_down: r.u64()?,
            bytes_up: r.u64()?,
            drops: r.u64()? as usize,
            stragglers: r.u64()? as usize,
            deadline_misses: r.u64()? as usize,
            crashes: r.u64()? as usize,
        })
    }
}

/// What a client's local computation produced, before the uplink.
pub struct LocalOutcome {
    /// The trained submodel, or `None` when the client could not train
    /// anything (e.g. the dispatched model exceeded its current
    /// capacity).
    pub upload: Option<Upload>,
    /// Local training loss (0 when `upload` is `None`).
    pub loss: f32,
    /// Client-side tag for the server (e.g. the pool index the client
    /// pruned down to); meaningful only to the dispatching method.
    pub tag: usize,
    /// Per-sample forward/backward MACs of the trained submodel (0 on
    /// failure).
    pub macs_per_sample: u64,
    /// Local training samples (0 on failure).
    pub samples: usize,
    /// Parameter elements of the uploaded submodel (0 on failure).
    pub up_params: u64,
}

impl LocalOutcome {
    /// The outcome of a client that could not train the dispatched
    /// model: nothing comes back, only the downlink was spent.
    pub fn failure() -> Self {
        LocalOutcome {
            upload: None,
            loss: 0.0,
            tag: 0,
            macs_per_sample: 0,
            samples: 0,
            up_params: 0,
        }
    }
}

/// The client-side work closure: runs local training against an RNG
/// supplied by the transport (the shared round RNG for
/// [`PerfectTransport`], a per-client derived RNG for parallel
/// transports).
pub type JobFn<'a> = Box<dyn FnOnce(&mut ChaCha8Rng) -> LocalOutcome + Send + 'a>;

/// One dispatched unit of work: a model sent down a link to a client.
pub struct ClientJob<'a> {
    /// Target client id.
    pub client: usize,
    /// Method-specific dispatch tag echoed back in the [`Delivery`]
    /// (e.g. the dispatched pool index, or the level index).
    pub tag: usize,
    /// Parameter elements of the dispatched model (downlink size).
    pub down_params: u64,
    /// The local-training closure.
    pub run: JobFn<'a>,
}

/// How one client's round ended, from the server's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryStatus {
    /// The upload arrived intact and on time.
    Delivered,
    /// The client could not train the dispatched model (resource
    /// failure); nothing was uploaded.
    TrainingFailed,
    /// The upload was lost in transit (drop or truncation fault).
    Dropped,
    /// The upload arrived after the round deadline and was discarded.
    Late,
    /// The client crashed mid-round; nothing was uploaded.
    Crashed,
}

impl DeliveryStatus {
    /// `true` when the server received a usable upload.
    pub fn is_delivered(self) -> bool {
        matches!(self, DeliveryStatus::Delivered)
    }
}

/// One client's round outcome as observed by the server.
pub struct Delivery {
    /// Client id.
    pub client: usize,
    /// Dispatch tag from the [`ClientJob`].
    pub tag: usize,
    /// Client-side tag from the [`LocalOutcome`].
    pub client_tag: usize,
    /// How the round ended for this client.
    pub status: DeliveryStatus,
    /// Local training loss (server-visible only when delivered).
    pub loss: f32,
    /// The upload, present only when `status` is
    /// [`DeliveryStatus::Delivered`].
    pub upload: Option<Upload>,
    /// Parameter elements dispatched down the link.
    pub down_params: u64,
    /// Parameter elements the client produced for upload (counted as
    /// returned only when delivered).
    pub up_params: u64,
    /// This client's simulated wall-clock seconds (compute + both
    /// transfers, including any straggler delay).
    pub secs: f64,
}

/// A whole round's exchange: per-client deliveries plus the round-level
/// accounting.
pub struct Exchange {
    /// Per-client outcomes. [`PerfectTransport`] preserves dispatch
    /// order; parallel transports must sort by client id so that
    /// aggregation (f32 summation) is thread-count invariant.
    pub deliveries: Vec<Delivery>,
    /// Communication accounting for the round.
    pub stats: CommStats,
    /// Simulated wall-clock duration of the round (slowest client, or
    /// the deadline when one is enforced and missed).
    pub round_secs: f64,
}

/// A simulated client↔server link executing one round's jobs.
pub trait Transport: Send {
    /// Threads the run may spread its own work over: the executor width
    /// of a parallel transport, which the server's evaluation reuses
    /// (DESIGN.md §10, "Server phases"). Results never depend on it.
    /// Sequential transports run on the caller's thread alone.
    fn width(&self) -> usize {
        1
    }

    /// Executes the round's jobs and returns what the server observed.
    ///
    /// `rng` is the method's round RNG; sequential transports thread it
    /// through every job (preserving the legacy stream), parallel
    /// transports may ignore it in favour of per-client derived RNGs.
    fn exchange(
        &mut self,
        env: &Env,
        round: usize,
        jobs: Vec<ClientJob<'_>>,
        rng: &mut ChaCha8Rng,
    ) -> Exchange;
}

/// Simulated wall-clock seconds for one client's round: local training
/// over `macs_per_sample` for `samples · epochs` samples plus the
/// down/up transfer of `down_params`/`up_params` elements as dense
/// `f32`.
pub fn client_secs(
    env: &Env,
    client: usize,
    macs_per_sample: u64,
    samples: usize,
    down_params: u64,
    up_params: u64,
) -> f64 {
    let device = env.fleet.device(client);
    let total_macs = macs_per_sample * samples as u64 * env.cfg.local.epochs as u64;
    device.round_time(total_macs, down_params * 4, up_params * 4)
}

/// The lossless default link: jobs run sequentially in dispatch order
/// against the shared round RNG, every upload arrives, and no faults or
/// deadlines exist. Byte-for-byte identical to the simulator before the
/// transport abstraction existed.
#[derive(Debug, Default, Clone, Copy)]
pub struct PerfectTransport;

impl Transport for PerfectTransport {
    fn exchange(
        &mut self,
        env: &Env,
        _round: usize,
        jobs: Vec<ClientJob<'_>>,
        rng: &mut ChaCha8Rng,
    ) -> Exchange {
        let mut deliveries = Vec::with_capacity(jobs.len());
        let mut stats = CommStats::default();
        let mut round_secs = 0.0f64;
        for job in jobs {
            let ClientJob {
                client,
                tag,
                down_params,
                run,
            } = job;
            let out = run(rng);
            let secs = client_secs(
                env,
                client,
                out.macs_per_sample,
                out.samples,
                down_params,
                out.up_params,
            );
            round_secs = round_secs.max(secs);
            stats.bytes_down += down_params * 4;
            let status = if out.upload.is_some() {
                stats.bytes_up += out.up_params * 4;
                DeliveryStatus::Delivered
            } else {
                DeliveryStatus::TrainingFailed
            };
            deliveries.push(Delivery {
                client,
                tag,
                client_tag: out.tag,
                status,
                loss: out.loss,
                upload: out.upload,
                down_params,
                up_params: out.up_params,
                secs,
            });
        }
        Exchange {
            deliveries,
            stats,
            round_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_stats_accumulate() {
        let mut a = CommStats {
            bytes_down: 100,
            bytes_up: 40,
            drops: 1,
            ..Default::default()
        };
        let b = CommStats {
            bytes_down: 50,
            bytes_up: 50,
            stragglers: 2,
            deadline_misses: 1,
            crashes: 1,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.bytes_down, 150);
        assert_eq!(a.bytes_up, 90);
        assert_eq!(a.drops, 1);
        assert_eq!(a.stragglers, 2);
        assert_eq!(a.lost_uploads(), 3);
    }

    #[test]
    fn comm_stats_encode_decode_roundtrips() {
        let stats = CommStats {
            bytes_down: 12_345,
            bytes_up: 678,
            drops: 2,
            stragglers: 3,
            deadline_misses: 1,
            crashes: 4,
        };
        let mut buf = BytesMut::new();
        stats.encode(&mut buf);
        let mut r = FrameReader::new(&buf);
        let back = CommStats::decode(&mut r).expect("intact frame");
        assert!(r.is_empty());
        assert_eq!(stats, back);
        assert!(CommStats::decode(&mut FrameReader::new(&buf[..buf.len() - 1])).is_err());
    }

    #[test]
    fn delivery_status_predicate() {
        assert!(DeliveryStatus::Delivered.is_delivered());
        for s in [
            DeliveryStatus::TrainingFailed,
            DeliveryStatus::Dropped,
            DeliveryStatus::Late,
            DeliveryStatus::Crashed,
        ] {
            assert!(!s.is_delivered());
        }
    }

    #[test]
    fn failure_outcome_is_empty() {
        let o = LocalOutcome::failure();
        assert!(o.upload.is_none());
        assert_eq!(o.up_params, 0);
        assert_eq!(o.samples, 0);
    }
}
