//! The experiment simulator: environment assembly and the round loop.

use adaptivefl_data::{FederatedDataset, Partition, SynthSpec};
use adaptivefl_device::{DeviceFleet, ResourceDynamics};
use adaptivefl_models::ModelConfig;
use adaptivefl_nn::layer::LayerExt;
use adaptivefl_nn::ParamMap;
use adaptivefl_tensor::Scratch;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use std::sync::Arc;

use crate::checkpoint::{ServerSnapshot, SnapshotSink};
use crate::error::CoreError;
use crate::methods::{FlMethod, MethodKind};
use crate::metrics::{EvalRecord, RoundRecord, RunResult};
use crate::pool::{ModelPool, DEFAULT_RATIOS};
use crate::trace::{NoopTracer, Phase, PhaseTimer, TraceEvent, Tracer};
use crate::trainer::LocalTrainer;
use crate::transport::{PerfectTransport, Transport};

/// Everything that defines one experiment (except the dataset spec and
/// partition, which are passed to [`Simulation::prepare`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Model family/size.
    pub model: ModelConfig,
    /// Federated rounds `T`.
    pub rounds: usize,
    /// Clients selected per round `K` (the paper uses 10 %).
    pub clients_per_round: usize,
    /// Local training hyper-parameters.
    pub local: LocalTrainer,
    /// Evaluate every this many rounds (the final round is always
    /// evaluated).
    pub eval_every: usize,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// Submodels per level (`p`; 1 = coarse-grained ablation).
    pub p: usize,
    /// Width ratios of the S and M levels.
    pub ratios: (f32, f32),
    /// Weak:medium:strong device proportion (paper default 4:3:3).
    pub proportions: (usize, usize, usize),
    /// Resource fluctuation model.
    pub dynamics: ResourceDynamics,
    /// Total clients in the federation.
    pub num_clients: usize,
    /// Training samples per client.
    pub samples_per_client: usize,
    /// Held-out test samples.
    pub test_samples: usize,
    /// Master seed; every random stream derives from it.
    pub seed: u64,
}

impl SimConfig {
    /// A reduced-scale configuration that mirrors the paper's protocol
    /// (100 clients, 10 % participation, uncertain resources, 4:3:3
    /// classes) at CPU-friendly cost.
    pub fn fast(model: ModelConfig, seed: u64) -> Self {
        SimConfig {
            model,
            rounds: 30,
            clients_per_round: 10,
            local: LocalTrainer::fast(),
            eval_every: 5,
            eval_batch: 64,
            p: 3,
            ratios: DEFAULT_RATIOS,
            proportions: (4, 3, 3),
            dynamics: ResourceDynamics::uncertain(),
            num_clients: 100,
            samples_per_client: 30,
            test_samples: 400,
            seed,
        }
    }

    /// The same configuration re-keyed to a different master seed —
    /// the per-job seeding hook of the multi-seed sweep engine. Every
    /// random stream (data synthesis, fleet, method RNGs, per-client
    /// training streams) derives from `cfg.seed`, so two jobs built
    /// from the same cell at different seeds share nothing but the
    /// configuration shape.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A minimal configuration for unit/integration tests (seconds, not
    /// minutes).
    pub fn quick_test(seed: u64) -> Self {
        SimConfig {
            model: ModelConfig {
                kind: adaptivefl_models::ModelKind::TinyCnn,
                input: (3, 8, 8),
                classes: 4,
                width_mult: 1.0,
            },
            rounds: 4,
            clients_per_round: 4,
            local: LocalTrainer {
                lr: 0.05,
                momentum: 0.5,
                epochs: 1,
                batch_size: 8,
            },
            eval_every: 2,
            eval_batch: 32,
            p: 2,
            ratios: DEFAULT_RATIOS,
            proportions: (4, 3, 3),
            dynamics: ResourceDynamics::uncertain(),
            num_clients: 10,
            samples_per_client: 12,
            test_samples: 60,
            seed,
        }
    }
}

/// The shared, read-only experiment environment: data, devices, model
/// pool.
pub struct Env {
    /// The experiment configuration.
    pub cfg: SimConfig,
    /// Per-client shards + test set.
    pub data: FederatedDataset,
    /// Simulated devices (index-aligned with data clients).
    pub fleet: DeviceFleet,
    /// The `2p+1`-entry model pool.
    pub pool: ModelPool,
    /// Observability sink (defaults to the zero-overhead
    /// [`NoopTracer`]). Shared so client jobs can emit from transport
    /// worker threads; tracers only consume signals, never influence
    /// the run.
    pub tracer: Arc<dyn Tracer>,
    /// Shared buffer arena for aggregation and optimizer temporaries.
    /// Handles are cheap clones of one pool; buffers always leave it
    /// zeroed or fully overwritten, so sharing an arena (even across
    /// runs) is bit-identical to allocating fresh.
    pub scratch: Scratch,
}

impl Env {
    /// The active tracer.
    pub fn tracer(&self) -> &dyn Tracer {
        &*self.tracer
    }

    /// A freshly initialised full global model (deterministic per
    /// seed).
    pub fn fresh_global(&self) -> ParamMap {
        let mut rng = adaptivefl_tensor::rng::derived(self.cfg.seed, "global-init");
        self.cfg
            .model
            .build(&self.cfg.model.full_plan(), &mut rng)
            .param_map()
    }

    /// RNG for evaluation-time loads. A load takes every weight from
    /// the server and draws nothing; it only skips this stream by the
    /// element count, as a client job's load skips the job RNG.
    pub fn eval_rng(&self) -> ChaCha8Rng {
        adaptivefl_tensor::rng::derived(self.cfg.seed, "eval-scaffold")
    }

    /// Clients that can participate in a round: those holding data.
    pub fn eligible_clients(&self) -> Vec<usize> {
        (0..self.data.num_clients())
            .filter(|&c| !self.data.client(c).is_empty())
            .collect()
    }
}

/// Checkpoint hooks for a run (see [`Simulation::run_with_hooks`]).
pub struct RunHooks<'a> {
    /// Snapshot every this many completed rounds (0 = only when
    /// halting). Snapshots are skipped after the final round — a
    /// finished run has nothing left to resume.
    pub checkpoint_every: usize,
    /// Where snapshots go (e.g. the durable `adaptivefl-store`
    /// `SnapshotStore`, or a [`MemorySink`](crate::checkpoint::MemorySink)).
    pub sink: &'a mut dyn SnapshotSink,
    /// Crash-test harness: stop after this many completed rounds,
    /// saving a final snapshot and returning `Ok(None)` instead of a
    /// result — the in-process equivalent of killing the server
    /// mid-run.
    pub halt_after: Option<usize>,
}

/// One prepared experiment: an [`Env`] ready to run any method.
pub struct Simulation {
    env: Env,
}

impl Simulation {
    /// Synthesises the dataset and device fleet for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the model's class count or input shape disagrees with
    /// the dataset spec.
    pub fn prepare(cfg: &SimConfig, spec: &SynthSpec, partition: Partition) -> Self {
        assert_eq!(
            cfg.model.classes, spec.classes,
            "model classes must match dataset classes"
        );
        assert_eq!(
            cfg.model.input, spec.input,
            "model input shape must match dataset input shape"
        );
        let data = FederatedDataset::synthesize(
            spec,
            cfg.num_clients,
            cfg.samples_per_client,
            cfg.test_samples,
            partition,
            cfg.seed,
        );
        let full_params = cfg.model.num_params(&cfg.model.full_plan());
        let fleet = DeviceFleet::with_proportions(
            cfg.num_clients,
            cfg.proportions,
            full_params,
            cfg.dynamics,
            cfg.seed,
        );
        let pool = ModelPool::split(&cfg.model, cfg.p, cfg.ratios);
        Simulation {
            env: Env {
                cfg: *cfg,
                data,
                fleet,
                pool,
                tracer: Arc::new(NoopTracer),
                scratch: Scratch::new(),
            },
        }
    }

    /// The environment (shared across methods for fair comparison).
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Replaces the auto-generated fleet with an explicit one (e.g. the
    /// paper's real test-bed of `adaptivefl_device::testbed`).
    ///
    /// # Panics
    ///
    /// Panics if the fleet size differs from the number of clients.
    pub fn with_fleet(mut self, fleet: DeviceFleet) -> Self {
        assert_eq!(
            fleet.len(),
            self.env.data.num_clients(),
            "fleet must have one device per client"
        );
        self.env.fleet = fleet;
        self
    }

    /// Installs a tracer for subsequent runs. Tracers observe but never
    /// influence a run: a traced run's result is bit-identical to an
    /// untraced one.
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.env.tracer = tracer;
    }

    /// Installs a shared scratch arena for subsequent runs. Sharing an
    /// arena across simulations reuses its buffers; results are
    /// bit-identical to a private arena.
    pub fn set_scratch(&mut self, scratch: Scratch) {
        self.env.scratch = scratch;
    }

    /// Runs one method for `cfg.rounds` rounds over the default
    /// [`PerfectTransport`] (lossless sequential link), evaluating
    /// every `cfg.eval_every` rounds and after the final round.
    pub fn run(&mut self, kind: MethodKind) -> RunResult {
        self.run_with_transport(kind, &mut PerfectTransport)
    }

    /// Runs one method over an explicit transport (e.g. the faulty
    /// parallel `SimTransport` of `adaptivefl-comm`).
    pub fn run_with_transport(
        &mut self,
        kind: MethodKind,
        transport: &mut dyn Transport,
    ) -> RunResult {
        self.drive(kind, transport, None, None)
            .expect("no sink or snapshot, so no error is possible")
            .expect("no halt configured, so the run completes")
    }

    /// Runs a method with checkpoint/halt hooks: every
    /// `hooks.checkpoint_every` completed rounds the full server state
    /// is frozen into a [`ServerSnapshot`] and handed to the sink.
    /// Returns `Ok(None)` when `hooks.halt_after` stopped the run
    /// early (after saving a snapshot).
    pub fn run_with_hooks(
        &mut self,
        kind: MethodKind,
        transport: &mut dyn Transport,
        hooks: RunHooks<'_>,
    ) -> Result<Option<RunResult>, CoreError> {
        self.drive(kind, transport, None, Some(hooks))
    }

    /// Resumes a snapshotted run over an explicit transport. The
    /// continued run is bit-identical to the uninterrupted one: same
    /// RNG stream, same server state, same history. The transport must
    /// be configured identically to the original run's (fault plans and
    /// deadlines are derived from the seed and round index, so a
    /// freshly built transport with the same settings replays
    /// identically at any thread count).
    pub fn resume_with_transport(
        &mut self,
        snap: &ServerSnapshot,
        transport: &mut dyn Transport,
    ) -> Result<RunResult, CoreError> {
        Ok(self
            .drive(snap.kind, transport, Some(snap), None)?
            .expect("no halt configured, so the run completes"))
    }

    /// Resumes a snapshotted run with fresh checkpoint/halt hooks (so
    /// a resumed long run keeps checkpointing).
    pub fn resume_with_hooks(
        &mut self,
        snap: &ServerSnapshot,
        transport: &mut dyn Transport,
        hooks: RunHooks<'_>,
    ) -> Result<Option<RunResult>, CoreError> {
        self.drive(snap.kind, transport, Some(snap), Some(hooks))
    }

    /// The deterministic environment fingerprint stored in snapshots
    /// and checked on resume.
    pub fn cfg_fingerprint(cfg: &SimConfig) -> String {
        format!("{cfg:?}")
    }

    fn validate_snapshot(&self, snap: &ServerSnapshot) -> Result<(), CoreError> {
        if snap.method_name != snap.kind.name() {
            return Err(CoreError::Snapshot(format!(
                "snapshot is of method {}, resuming {}",
                snap.method_name,
                snap.kind.name()
            )));
        }
        let fp = Self::cfg_fingerprint(&self.env.cfg);
        if snap.cfg_fingerprint != fp {
            return Err(CoreError::Snapshot(format!(
                "configuration mismatch: snapshot built for {}, environment is {fp}",
                snap.cfg_fingerprint
            )));
        }
        let pool_params: Vec<u64> = self.env.pool.entries().iter().map(|e| e.params).collect();
        if snap.pool_p != self.env.pool.p() || snap.pool_params != pool_params {
            return Err(CoreError::Snapshot(
                "model pool mismatch: the environment splits the model differently".into(),
            ));
        }
        if snap.completed_rounds > self.env.cfg.rounds {
            return Err(CoreError::Snapshot(format!(
                "snapshot has {} completed rounds, configuration runs {}",
                snap.completed_rounds, self.env.cfg.rounds
            )));
        }
        if snap.rounds.len() != snap.completed_rounds {
            return Err(CoreError::Snapshot(format!(
                "snapshot history has {} round records for {} completed rounds",
                snap.rounds.len(),
                snap.completed_rounds
            )));
        }
        Ok(())
    }

    fn snapshot(
        &self,
        kind: MethodKind,
        method: &mut dyn FlMethod,
        rng: &ChaCha8Rng,
        completed_rounds: usize,
        rounds: &[RoundRecord],
        evals: &[EvalRecord],
    ) -> ServerSnapshot {
        ServerSnapshot {
            kind,
            method_name: kind.name(),
            completed_rounds,
            rng_words: rng.state_words().to_vec(),
            method: method.capture(),
            rounds: rounds.to_vec(),
            evals: evals.to_vec(),
            cfg_fingerprint: Self::cfg_fingerprint(&self.env.cfg),
            pool_p: self.env.pool.p(),
            pool_params: self.env.pool.entries().iter().map(|e| e.params).collect(),
        }
    }

    /// The shared round loop: every `run_*`/`resume_*` entry point
    /// funnels through here so the round/eval/checkpoint cadence is
    /// identical whether a run starts fresh or from a snapshot (`from`).
    fn drive(
        &mut self,
        kind: MethodKind,
        transport: &mut dyn Transport,
        from: Option<&ServerSnapshot>,
        mut hooks: Option<RunHooks<'_>>,
    ) -> Result<Option<RunResult>, CoreError> {
        let name = kind.name();
        let mut method = kind.instantiate(&self.env);
        let (mut rng, start_round, mut rounds, mut evals) = match from {
            None => {
                let label = format!("run-{name}");
                let rng = adaptivefl_tensor::rng::derived(self.env.cfg.seed, &label);
                (rng, 0, Vec::new(), Vec::new())
            }
            Some(snap) => {
                self.validate_snapshot(snap)?;
                method.restore(snap.method.clone())?;
                let rng = snap.rng()?;
                (
                    rng,
                    snap.completed_rounds,
                    snap.rounds.clone(),
                    snap.evals.clone(),
                )
            }
        };
        let tracer = Arc::clone(&self.env.tracer);
        if tracer.enabled() {
            tracer.event(TraceEvent::RunStart {
                method: name.clone(),
                start_round,
                rounds: self.env.cfg.rounds,
            });
        }
        for t in start_round..self.env.cfg.rounds {
            if tracer.enabled() {
                tracer.event(TraceEvent::RoundStart { round: t });
            }
            let round_timer = PhaseTimer::start(&*tracer, Phase::Round);
            let rec = method.round(&self.env, t, transport, &mut rng);
            round_timer.stop(&*tracer);
            if tracer.enabled() {
                tracer.event(TraceEvent::RoundEnd {
                    round: t,
                    sim_secs: rec.sim_secs,
                    failures: rec.failures,
                });
            }
            rounds.push(rec);
            let last = t + 1 == self.env.cfg.rounds;
            if last || (t + 1) % self.env.cfg.eval_every.max(1) == 0 {
                let eval_timer = PhaseTimer::start(&*tracer, Phase::Eval);
                let ev = method.evaluate(&self.env, t, transport.width());
                eval_timer.stop(&*tracer);
                if tracer.enabled() {
                    tracer.event(TraceEvent::Eval {
                        round: t,
                        full: ev.full,
                    });
                }
                evals.push(ev);
            }
            if let Some(h) = hooks.as_mut() {
                let done = t + 1;
                let halt = h.halt_after.is_some_and(|r| done >= r) && !last;
                let periodic = h.checkpoint_every > 0 && done % h.checkpoint_every == 0 && !last;
                if halt || periodic {
                    let ckpt_timer = PhaseTimer::start(&*tracer, Phase::Checkpoint);
                    let snap = self.snapshot(kind, &mut *method, &rng, done, &rounds, &evals);
                    h.sink.save(&snap)?;
                    ckpt_timer.stop(&*tracer);
                    if tracer.enabled() {
                        tracer.event(TraceEvent::CheckpointSave { round: done });
                    }
                }
                if halt {
                    return Ok(None);
                }
            }
        }
        Ok(Some(RunResult {
            method: name,
            rounds,
            evals,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodKind;
    use crate::select::SelectionStrategy;

    fn spec() -> SynthSpec {
        let mut s = SynthSpec::test_spec(4);
        s.input = (3, 8, 8);
        s
    }

    #[test]
    fn adaptivefl_quick_run_learns_something() {
        let cfg = SimConfig::quick_test(100);
        let mut sim = Simulation::prepare(&cfg, &spec(), Partition::Iid);
        let res = sim.run(MethodKind::AdaptiveFl);
        assert_eq!(res.rounds.len(), 4);
        assert!(!res.evals.is_empty());
        // 4 classes → chance 0.25; even a tiny run should beat it.
        assert!(
            res.final_full_accuracy() > 0.3,
            "accuracy {}",
            res.final_full_accuracy()
        );
        // Communication waste must be in [0, 1).
        let w = res.comm_waste_rate();
        assert!((0.0..1.0).contains(&w), "waste {w}");
    }

    #[test]
    fn all_methods_run_one_round() {
        let mut cfg = SimConfig::quick_test(101);
        cfg.rounds = 1;
        cfg.eval_every = 1;
        for kind in [
            MethodKind::AdaptiveFl,
            MethodKind::AdaptiveFlGreedy,
            MethodKind::AdaptiveFlVariant(SelectionStrategy::Random),
            MethodKind::AdaptiveFlVariant(SelectionStrategy::CuriosityOnly),
            MethodKind::AdaptiveFlVariant(SelectionStrategy::ResourceOnly),
            MethodKind::AllLarge,
            MethodKind::Decoupled,
            MethodKind::HeteroFl,
            MethodKind::ScaleFl,
        ] {
            let mut sim = Simulation::prepare(&cfg, &spec(), Partition::Dirichlet(0.6));
            let res = sim.run(kind);
            assert_eq!(res.rounds.len(), 1, "{kind}");
            assert_eq!(res.evals.len(), 1, "{kind}");
            assert!(res.final_full_accuracy() >= 0.0, "{kind}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = SimConfig::quick_test(102);
        let run = || {
            let mut sim = Simulation::prepare(&cfg, &spec(), Partition::Dirichlet(0.3));
            sim.run(MethodKind::AdaptiveFl)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let cfg = SimConfig::quick_test(104);
        for kind in [
            MethodKind::AdaptiveFl,
            MethodKind::AdaptiveFlGreedy,
            MethodKind::AdaptiveFlVariant(SelectionStrategy::Random),
            MethodKind::AllLarge,
            MethodKind::Decoupled,
            MethodKind::HeteroFl,
            MethodKind::ScaleFl,
        ] {
            let mut sim = Simulation::prepare(&cfg, &spec(), Partition::Dirichlet(0.5));
            let control = sim.run(kind);

            // Checkpoint every round of a second, identical run.
            let mut sink = crate::checkpoint::MemorySink::new();
            let mut sim2 = Simulation::prepare(&cfg, &spec(), Partition::Dirichlet(0.5));
            let hooks = RunHooks {
                checkpoint_every: 1,
                sink: &mut sink,
                halt_after: None,
            };
            let checked = sim2
                .run_with_hooks(kind, &mut PerfectTransport, hooks)
                .unwrap()
                .unwrap();
            assert_eq!(control, checked, "{kind}: checkpointing changed the run");
            // Final round never snapshots; every earlier round does.
            assert_eq!(sink.snapshots.len(), cfg.rounds - 1, "{kind}");

            // Resume from every intermediate snapshot in a fresh
            // simulation; each must reproduce the control exactly.
            for snap in &sink.snapshots {
                let mut sim3 = Simulation::prepare(&cfg, &spec(), Partition::Dirichlet(0.5));
                let resumed = sim3
                    .resume_with_transport(snap, &mut PerfectTransport)
                    .unwrap();
                assert_eq!(
                    control, resumed,
                    "{kind}: resume from round {} diverged",
                    snap.completed_rounds
                );
            }
        }
    }

    #[test]
    fn halt_after_saves_a_resumable_snapshot() {
        let cfg = SimConfig::quick_test(105);
        let mut sim = Simulation::prepare(&cfg, &spec(), Partition::Iid);
        let control = sim.run(MethodKind::AdaptiveFl);

        let mut sink = crate::checkpoint::MemorySink::new();
        let mut sim2 = Simulation::prepare(&cfg, &spec(), Partition::Iid);
        let halted = sim2
            .run_with_hooks(
                MethodKind::AdaptiveFl,
                &mut PerfectTransport,
                RunHooks {
                    checkpoint_every: 0,
                    sink: &mut sink,
                    halt_after: Some(2),
                },
            )
            .unwrap();
        assert!(halted.is_none(), "halt must abort the run");
        let snap = sink.latest().expect("halt saved a snapshot");
        assert_eq!(snap.completed_rounds, 2);

        let mut sim3 = Simulation::prepare(&cfg, &spec(), Partition::Iid);
        let resumed = sim3
            .resume_with_transport(snap, &mut PerfectTransport)
            .unwrap();
        assert_eq!(control, resumed);
    }

    #[test]
    fn resume_rejects_mismatched_environment() {
        let cfg = SimConfig::quick_test(106);
        let mut sink = crate::checkpoint::MemorySink::new();
        let mut sim = Simulation::prepare(&cfg, &spec(), Partition::Iid);
        let hooks = RunHooks {
            checkpoint_every: 2,
            sink: &mut sink,
            halt_after: None,
        };
        sim.run_with_hooks(MethodKind::AdaptiveFl, &mut PerfectTransport, hooks)
            .unwrap();
        let snap = sink.latest().unwrap();

        // Wrong method.
        let mut sim2 = Simulation::prepare(&cfg, &spec(), Partition::Iid);
        let mut wrong = snap.clone();
        wrong.kind = MethodKind::HeteroFl;
        assert!(sim2
            .resume_with_transport(&wrong, &mut PerfectTransport)
            .is_err());

        // Wrong configuration (different seed → different fingerprint).
        let other = SimConfig::quick_test(107);
        let mut sim3 = Simulation::prepare(&other, &spec(), Partition::Iid);
        assert!(sim3
            .resume_with_transport(snap, &mut PerfectTransport)
            .is_err());

        // Corrupt RNG state.
        let mut bad_rng = snap.clone();
        bad_rng.rng_words.pop();
        let mut sim4 = Simulation::prepare(&cfg, &spec(), Partition::Iid);
        assert!(sim4
            .resume_with_transport(&bad_rng, &mut PerfectTransport)
            .is_err());

        // History inconsistent with the declared progress.
        let mut bad_hist = snap.clone();
        bad_hist.rounds.pop();
        let mut sim5 = Simulation::prepare(&cfg, &spec(), Partition::Iid);
        assert!(sim5
            .resume_with_transport(&bad_hist, &mut PerfectTransport)
            .is_err());
    }

    #[test]
    fn greedy_wastes_more_communication_than_rl() {
        let mut cfg = SimConfig::quick_test(103);
        cfg.rounds = 6;
        let mut sim = Simulation::prepare(&cfg, &spec(), Partition::Iid);
        let rl = sim.run(MethodKind::AdaptiveFl);
        let greedy = sim.run(MethodKind::AdaptiveFlGreedy);
        assert!(
            greedy.comm_waste_rate() > rl.comm_waste_rate(),
            "greedy {} vs rl {}",
            greedy.comm_waste_rate(),
            rl.comm_waste_rate()
        );
    }
}
