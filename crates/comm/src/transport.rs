//! [`SimTransport`] — the faulty, deadline-enforcing, parallel
//! implementation of [`Transport`].
//!
//! Per round it (1) runs every [`ClientJob`] on the parallel executor
//! with per-client derived RNGs, (2) wire-encodes each completed
//! upload as an [`UpdateUp`] frame, (3) applies the [`FaultPlan`]'s
//! seeded faults (crash, straggler delay, drop, truncation) per link,
//! (4) enforces the round deadline, and (5)
//! hands the surviving, decoded uploads back to the method sorted by
//! client id.
//!
//! Timing rides on the per-device link model of `adaptivefl-device`
//! via [`client_secs`]: compute time from the submodel's MACs plus
//! down/up transfer time from the device's bandwidth, all multiplied
//! by any straggler delay.

use adaptivefl_core::aggregate::Upload;
use adaptivefl_core::sim::Env;
use adaptivefl_core::trace::{status_name, TraceEvent};
use adaptivefl_core::transport::{
    client_secs, ClientJob, CommStats, Delivery, DeliveryStatus, Exchange, Transport,
};
use rand_chacha::ChaCha8Rng;

use crate::executor::run_jobs;
use crate::faults::FaultPlan;
use crate::wire::{self, UpdateUp, WireCodec};

/// How one client's round ended on the link: everything a [`Delivery`]
/// and its [`TraceEvent::Comm`] need beyond the job's own ids.
struct Link {
    status: DeliveryStatus,
    loss: f32,
    upload: Option<Upload>,
    up_params: u64,
    secs: f64,
    bytes_up: u64,
    straggled: bool,
}

impl Link {
    /// A client that returned nothing: no loss, no upload, no uplink
    /// bytes.
    fn failed(status: DeliveryStatus, up_params: u64, secs: f64) -> Self {
        Link {
            status,
            loss: 0.0,
            upload: None,
            up_params,
            secs,
            bytes_up: 0,
            straggled: false,
        }
    }
}

/// Simulated transport with fault injection, round deadlines and a
/// parallel client executor. Construct with [`SimTransport::new`] and
/// chain `with_*` builders.
#[derive(Debug, Clone)]
pub struct SimTransport {
    threads: usize,
    faults: FaultPlan,
    deadline_secs: Option<f64>,
}

impl Default for SimTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl SimTransport {
    /// A fault-free, deadline-free, single-threaded transport.
    pub fn new() -> Self {
        SimTransport {
            threads: 1,
            faults: FaultPlan::none(),
            deadline_secs: None,
        }
    }

    /// Sets the executor width (clamped to at least 1): client jobs and
    /// the server's evaluation both run on this many threads. Results
    /// are identical at any width.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Installs a fault plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan's probabilities are invalid.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        faults.validate();
        self.faults = faults;
        self
    }

    /// Enforces a round deadline: uploads from clients slower than
    /// `secs` are discarded as [`DeliveryStatus::Late`], and the server
    /// stops waiting at the deadline.
    pub fn with_deadline(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "deadline must be positive");
        self.deadline_secs = Some(secs);
        self
    }

    /// The configured fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }
}

impl Transport for SimTransport {
    fn width(&self) -> usize {
        self.threads
    }

    fn exchange(
        &mut self,
        env: &Env,
        round: usize,
        jobs: Vec<ClientJob<'_>>,
        _rng: &mut ChaCha8Rng,
    ) -> Exchange {
        let results = run_jobs(env, round, jobs, self.threads);

        let mut deliveries = Vec::with_capacity(results.len());
        let mut stats = CommStats::default();
        let mut slowest = 0.0f64;
        for r in results {
            let bytes_down = wire::dense_payload_bytes(r.down_params);
            stats.bytes_down += bytes_down;
            let draw = self.faults.draw(env.cfg.seed, round, r.client);

            let idle_secs = || client_secs(env, r.client, 0, 0, r.down_params, 0);
            let link = if draw.crash {
                // A crashed client spends the downlink and then vanishes.
                stats.crashes += 1;
                Link::failed(DeliveryStatus::Crashed, 0, idle_secs())
            } else if let Some(upload) = r.outcome.upload {
                let mut secs = client_secs(
                    env,
                    r.client,
                    r.outcome.macs_per_sample,
                    r.outcome.samples,
                    r.down_params,
                    r.outcome.up_params,
                );
                if draw.straggle {
                    stats.stragglers += 1;
                    secs *= self.faults.straggler_factor;
                }

                // The uplink is a real wire frame; faults act on it, and
                // the server weights what it decodes, not what the
                // client held in memory.
                let msg = UpdateUp {
                    round: round as u32,
                    client: r.client as u32,
                    data_size: r.outcome.samples as u32,
                    params: upload.params,
                };
                let frame = wire::encode_update_up(&msg, WireCodec::Dense);

                let (status, delivered) = if draw.drop {
                    stats.drops += 1;
                    (DeliveryStatus::Dropped, None)
                } else if let Some(frac) = draw.truncate_at {
                    // Truncation strictly shortens the frame, so the
                    // server-side decode must fail; count it as a drop.
                    let cut = ((frame.len() as f64) * frac) as usize;
                    match wire::decode_update_up(&frame[..cut.min(frame.len() - 1)]) {
                        Ok(m) => (DeliveryStatus::Delivered, Some(m)),
                        Err(_) => {
                            stats.drops += 1;
                            (DeliveryStatus::Dropped, None)
                        }
                    }
                } else if self.deadline_secs.is_some_and(|d| secs > d) {
                    stats.deadline_misses += 1;
                    (DeliveryStatus::Late, None)
                } else {
                    match wire::decode_update_up(&frame) {
                        Ok(m) => (DeliveryStatus::Delivered, Some(m)),
                        Err(_) => {
                            stats.drops += 1;
                            (DeliveryStatus::Dropped, None)
                        }
                    }
                };
                Link {
                    status,
                    loss: r.outcome.loss,
                    upload: delivered.map(|m| Upload {
                        weight: m.data_size as f32,
                        params: m.params,
                    }),
                    up_params: r.outcome.up_params,
                    secs,
                    bytes_up: if status.is_delivered() {
                        frame.len() as u64
                    } else {
                        0
                    },
                    straggled: draw.straggle,
                }
            } else {
                // A resource failure: the client could not train anything.
                Link::failed(
                    DeliveryStatus::TrainingFailed,
                    r.outcome.up_params,
                    idle_secs(),
                )
            };

            slowest = slowest.max(link.secs);
            stats.bytes_up += link.bytes_up;
            if env.tracer().enabled() {
                env.tracer().event(TraceEvent::Comm {
                    round,
                    client: r.client,
                    bytes_down,
                    bytes_up: link.bytes_up,
                    status: status_name(link.status),
                    straggled: link.straggled,
                });
            }
            deliveries.push(Delivery {
                client: r.client,
                tag: r.tag,
                client_tag: r.outcome.tag,
                status: link.status,
                loss: link.loss,
                upload: link.upload,
                down_params: r.down_params,
                up_params: link.up_params,
                secs: link.secs,
            });
        }

        // The server stops waiting at the deadline: the round cannot
        // take longer than it even when clients do.
        let round_secs = match self.deadline_secs {
            Some(d) => slowest.min(d),
            None => slowest,
        };
        Exchange {
            deliveries,
            stats,
            round_secs,
        }
    }
}
