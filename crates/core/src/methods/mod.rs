//! The FL methods under study: AdaptiveFL (with its selection and
//! reward-cap ablation variants) and the four baselines of the paper's
//! §4.2 — All-Large, Decoupled, HeteroFL and ScaleFL.
//!
//! Every method plays the same round, written once in `play_round`:
//! pick `(client, submodel)` pairs, dispatch one job per pair through
//! the transport, let each client fit its submodel to its resources and
//! train it, then aggregate whatever comes back. A method supplies only
//! what differs, through the crate-private `RoundHooks` trait;
//! [`FlMethod`] — the round, evaluation and capture/restore — is
//! derived from those hooks once for every method.

mod adaptive;
mod all_large;
mod decoupled;
mod heterofl;
mod scalefl;

pub use adaptive::AdaptiveFl;
pub use all_large::AllLarge;
pub use decoupled::Decoupled;
pub use heterofl::HeteroFl;
pub use scalefl::ScaleFl;

use std::ops::Range;

use adaptivefl_device::DeviceClass;
use adaptivefl_models::cost::cost_of;
use adaptivefl_models::{Blueprint, ModelConfig, Network, PruneSpec, WidthPlan};
use adaptivefl_nn::layer::LayerExt;
use adaptivefl_nn::metrics::RunningMean;
use adaptivefl_nn::ParamMap;
use adaptivefl_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::aggregate::{aggregate_with_scratch, Upload};
use crate::checkpoint::MethodState;
use crate::error::CoreError;
use crate::executor::map_ordered_with;
use crate::metrics::{EvalRecord, RoundRecord};
use crate::prune::PrunePlan;
use crate::rl::{RlState, PAPER_REWARD_CAP};
use crate::select::SelectionStrategy;
use crate::sim::Env;
use crate::trace::{status_name, Phase, PhaseTimer, TraceEvent};
use crate::trainer::{batch_accuracy, eval_batches};
use crate::transport::{ClientJob, Delivery, JobFn, LocalOutcome, Transport};

/// A federated-learning method: owns its global model state and plays
/// one round at a time against the shared environment.
///
/// Every method's full server-side state can be frozen into a
/// [`MethodState`] and restored later, which is what makes mid-run
/// snapshots and bit-identical resumes possible (see
/// [`Simulation::resume_with_transport`](crate::sim::Simulation::resume_with_transport)).
/// The trait has one implementation, derived from the crate-private
/// round hooks every method supplies.
pub trait FlMethod: Send {
    /// Executes one training round: dispatch client jobs through the
    /// transport, then consume whatever deliveries survived the link.
    fn round(
        &mut self,
        env: &Env,
        round: usize,
        transport: &mut dyn Transport,
        rng: &mut ChaCha8Rng,
    ) -> RoundRecord;

    /// Evaluates the current global model(s) on the environment's test
    /// set: global ("full") accuracy plus per-level submodel
    /// accuracies, spread over `width` threads (the transport's
    /// [`width`](Transport::width)); the record does not depend on it.
    fn evaluate(&mut self, env: &Env, round: usize, width: usize) -> EvalRecord;

    /// Freezes the server state: the weight maps, named `"global"`
    /// when one map serves every submodel and after their submodels
    /// otherwise, plus AdaptiveFL's RL tables. It takes `&mut self`
    /// only because the round hooks lend the weights mutably; nothing
    /// changes.
    fn capture(&mut self) -> MethodState;

    /// Replaces the server state with a captured one.
    ///
    /// # Errors
    ///
    /// [`CoreError::Snapshot`], leaving the state untouched, when the
    /// maps' count or names differ from the ones [`FlMethod::capture`]
    /// gives, when RL tables are missing or were not expected, or when
    /// they track another number of clients.
    fn restore(&mut self, state: MethodState) -> Result<(), CoreError>;
}

impl<M: RoundHooks + Send> FlMethod for M {
    fn round(
        &mut self,
        env: &Env,
        round: usize,
        transport: &mut dyn Transport,
        rng: &mut ChaCha8Rng,
    ) -> RoundRecord {
        play_round(self, env, round, transport, rng)
    }

    fn evaluate(&mut self, env: &Env, round: usize, width: usize) -> EvalRecord {
        RoundHooks::evaluate(self, env, round, width)
    }

    fn capture(&mut self) -> MethodState {
        let (archs, weights) = self.parts();
        let params = map_names(archs, weights.len())
            .into_iter()
            .zip(weights.iter())
            .map(|(name, map)| (name.to_string(), map.clone()))
            .collect();
        MethodState {
            params,
            rl: self.rl_tables().map(|rl| rl.clone()),
            extra: Vec::new(),
        }
    }

    fn restore(&mut self, state: MethodState) -> Result<(), CoreError> {
        let (archs, weights) = self.parts();
        let want = map_names(archs, weights.len());
        let got: Vec<&str> = state.params.iter().map(|(n, _)| n.as_str()).collect();
        if got != want {
            return Err(CoreError::Snapshot(format!(
                "snapshot holds parameter maps {got:?}, the method keeps {want:?}"
            )));
        }
        match (self.rl_tables(), state.rl) {
            (None, None) => {}
            (Some(mine), Some(rl)) if rl.num_clients() == mine.num_clients() => *mine = rl,
            (Some(mine), Some(rl)) => {
                return Err(CoreError::Snapshot(format!(
                    "RL tables track {} clients, environment has {}",
                    rl.num_clients(),
                    mine.num_clients()
                )))
            }
            (Some(_), None) => {
                return Err(CoreError::Snapshot("snapshot lacks RL tables".into()));
            }
            (None, Some(_)) => {
                return Err(CoreError::Snapshot(
                    "snapshot holds RL tables the method does not keep".into(),
                ));
            }
        }
        for (weights, (_, map)) in self.parts().1.iter_mut().zip(state.params) {
            *weights = map;
        }
        Ok(())
    }
}

/// The names [`FlMethod::capture`] gives a method's `maps` weight
/// maps: `"global"` for one map shared by every submodel, else each
/// submodel's own, the pairing `play_round`'s `target` uses.
fn map_names(archs: &[Arch], maps: usize) -> Vec<&str> {
    if maps == 1 {
        vec!["global"]
    } else {
        archs[..maps].iter().map(|a| a.name.as_str()).collect()
    }
}

/// Method selector for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MethodKind {
    /// AdaptiveFL with the full RL selection (`+CS`).
    AdaptiveFl,
    /// AdaptiveFL with a selection-ablation strategy.
    AdaptiveFlVariant(SelectionStrategy),
    /// "AdaptiveFL+Greed": always dispatch the largest model.
    AdaptiveFlGreedy,
    /// FedAvg on the full model with every client (non-resource
    /// reference).
    AllLarge,
    /// Per-level FedAvg without cross-level sharing.
    Decoupled,
    /// Static uniform width pruning (Diao et al.).
    HeteroFl,
    /// Two-dimensional width+depth pruning with early exits and
    /// self-distillation (Ilhan et al.).
    ScaleFl,
    /// AdaptiveFL (`+CS`) with a non-default resource-reward cap (the
    /// reward-cap ablation), held as the cap's `f64` bits so the kind
    /// stays `Eq`; build it with [`MethodKind::adaptive_fl_capped`].
    /// Its method name is plain `AdaptiveFL`.
    AdaptiveFlCapped(u64),
}

impl MethodKind {
    /// AdaptiveFL (`+CS`) with the resource reward capped at `cap`
    /// instead of the paper's 0.5.
    pub fn adaptive_fl_capped(cap: f64) -> Self {
        MethodKind::AdaptiveFlCapped(cap.to_bits())
    }

    /// Instantiates the method's state against an environment.
    ///
    /// # Panics
    ///
    /// Panics if a capped kind's cap is outside `(0, 1]`.
    pub fn instantiate(self, env: &Env) -> Box<dyn FlMethod> {
        use SelectionStrategy::{CuriosityAndResource, Random};
        let adaptive = |strategy, greedy, cap| -> Box<dyn FlMethod> {
            Box::new(AdaptiveFl::new(env, strategy, greedy, cap))
        };
        match self {
            MethodKind::AdaptiveFl => adaptive(CuriosityAndResource, false, PAPER_REWARD_CAP),
            MethodKind::AdaptiveFlVariant(s) => adaptive(s, false, PAPER_REWARD_CAP),
            MethodKind::AdaptiveFlGreedy => adaptive(Random, true, PAPER_REWARD_CAP),
            MethodKind::AdaptiveFlCapped(bits) => {
                adaptive(CuriosityAndResource, false, f64::from_bits(bits))
            }
            MethodKind::AllLarge => Box::new(AllLarge::new(env)),
            MethodKind::Decoupled => Box::new(Decoupled::new(env)),
            MethodKind::HeteroFl => Box::new(HeteroFl::new(env)),
            MethodKind::ScaleFl => Box::new(ScaleFl::new(env)),
        }
    }

    /// The run's method name: the records' `method` field, the run-RNG
    /// label `run-{name}` and the snapshot's `method_name`. It is the
    /// [`Display`](std::fmt::Display) form, except that the reward-cap
    /// kinds and the explicit `+CS` variant are plain `AdaptiveFL`.
    pub fn name(self) -> String {
        match self {
            MethodKind::AdaptiveFlCapped(_)
            | MethodKind::AdaptiveFlVariant(SelectionStrategy::CuriosityAndResource) => {
                "AdaptiveFL".into()
            }
            kind => kind.to_string(),
        }
    }

    /// All methods compared in the paper's Table 2.
    pub fn table2_lineup() -> [MethodKind; 5] {
        [
            MethodKind::AllLarge,
            MethodKind::Decoupled,
            MethodKind::HeteroFl,
            MethodKind::ScaleFl,
            MethodKind::AdaptiveFl,
        ]
    }
}

impl std::fmt::Display for MethodKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MethodKind::AdaptiveFl => write!(f, "AdaptiveFL"),
            MethodKind::AdaptiveFlVariant(s) => write!(f, "AdaptiveFL+{s}"),
            MethodKind::AdaptiveFlGreedy => write!(f, "AdaptiveFL+Greed"),
            MethodKind::AllLarge => write!(f, "All-Large"),
            MethodKind::Decoupled => write!(f, "Decoupled"),
            MethodKind::HeteroFl => write!(f, "HeteroFL"),
            MethodKind::ScaleFl => write!(f, "ScaleFL"),
            MethodKind::AdaptiveFlCapped(bits) => {
                write!(f, "AdaptiveFL+Cap{}", f64::from_bits(*bits))
            }
        }
    }
}

/// One submodel a method dispatches: how to build it, how to cut it
/// out of the server's weights, and what it costs.
pub(crate) struct Arch {
    /// Level name in evaluation records (`S_1`, …).
    pub(crate) name: String,
    pub(crate) blueprint: Blueprint,
    /// Extraction table from the server weights; `None` loads them
    /// whole.
    pub(crate) prune: Option<PrunePlan>,
    /// Parameters moved per transfer, down or up.
    pub(crate) params: u64,
    /// Training MACs per sample, computed once here rather than per
    /// job.
    pub(crate) macs: u64,
}

impl Arch {
    pub(crate) fn new(env: &Env, name: String, bp: Blueprint, prune: Option<PrunePlan>) -> Self {
        let cost = cost_of(&bp, env.cfg.model.input);
        Arch {
            name,
            blueprint: bp,
            prune,
            params: cost.params,
            macs: cost.macs,
        }
    }

    /// Builds the network from `weights`, leaving `rng` where
    /// [`Network::build`] on it would: that build draws one word per
    /// weight element (`init::kaiming_uniform`), so the build here
    /// starts from zeros, counts the elements and skips that many
    /// words (DESIGN.md §5, rule 3). Each weight, or its pruned block,
    /// is then copied into the zero-built tensor, so every parameter is
    /// allocated once.
    fn load(&self, weights: &ParamMap, rng: &mut ChaCha8Rng) -> Network {
        let mut drawn = 0u64;
        let mut net = Network::build_with(&self.blueprint, |shape, _| {
            let zeros = Tensor::zeros(shape);
            drawn += zeros.numel() as u64;
            zeros
        });
        rng.skip_words(drawn);
        match &self.prune {
            Some(prune) => prune.extract_into(weights, &mut net),
            None => net.load_param_map(weights),
        }
        net
    }
}

/// How a client fits the submodel it receives to its currently
/// available resources.
pub(crate) enum Fit {
    /// Train whatever arrives: All-Large ignores resources, Decoupled
    /// checks them before dispatch.
    Any,
    /// No client-side adaptation (HeteroFL, ScaleFL): a model larger
    /// than the client's capacity fails the round for that client.
    Exact,
    /// AdaptiveFL (Algorithm 1, step 5): prune to the largest nested
    /// pool entry that fits, failing only if none does.
    LargestFitting,
}

/// A round's `(client, tag)` dispatches, plus the number of selected
/// clients dropped before dispatch (each a failure that spends no
/// downlink).
pub(crate) type Assignments = (Vec<(usize, usize)>, usize);

/// The parts of a round that differ between methods ([`play_round`]).
pub(crate) trait RoundHooks {
    /// How a client fits the submodel it receives.
    const FIT: Fit;
    /// ScaleFL's self-distillation `(weight, temperature)` from the
    /// final exit into the earlier ones
    /// ([`LocalTrainer::train`](crate::trainer::LocalTrainer::train)).
    const DISTILL: Option<(f32, f32)> = None;

    /// Picks this round's assignments; `tag` indexes the submodels of
    /// [`RoundHooks::parts`].
    fn assign(&mut self, env: &Env, round: usize, rng: &mut ChaCha8Rng) -> Assignments;

    /// The submodels jobs train, indexed by tag, and the server weights
    /// they start from and are aggregated into: one map shared by
    /// every submodel, or one per submodel.
    fn parts(&mut self) -> (&[Arch], &mut [ParamMap]);

    /// Evaluates the submodels' weights ([`FlMethod::evaluate`]),
    /// through [`evaluate_levels`].
    fn evaluate(&self, env: &Env, round: usize, width: usize) -> EvalRecord;

    /// The RL tables the method keeps: AdaptiveFL's, `None` for the
    /// baselines.
    fn rl_tables(&mut self) -> Option<&mut RlState> {
        None
    }

    /// Server bookkeeping for one dispatch, after its `Dispatch` event.
    fn on_dispatch(&mut self, _env: &Env, _round: usize, _client: usize, _tag: usize) {}

    /// Server bookkeeping for one delivery, delivered or lost, after
    /// its `Collect` event.
    fn on_delivery(&mut self, _env: &Env, _round: usize, _delivery: &Delivery) {}
}

/// Plays one round of `method`: assignment, dispatch, the client jobs
/// (fit → build → load → train), the exchange, collection, and
/// aggregation.
///
/// Ordering is part of the determinism contract: the whole round's
/// assignment draws from `rng` first; each dispatch then emits its
/// `Dispatch` event before the method's dispatch hook; jobs draw build
/// and training randomness from the job RNG the transport hands them;
/// each delivery emits `Collect` before the method's delivery hook.
pub(crate) fn play_round<M: RoundHooks>(
    method: &mut M,
    env: &Env,
    round: usize,
    transport: &mut dyn Transport,
    rng: &mut ChaCha8Rng,
) -> RoundRecord {
    let tracer = env.tracer();
    let (assignments, mut failures) = method.assign(env, round, rng);

    let dispatch_timer = PhaseTimer::start(tracer, Phase::Dispatch);
    let mut sent = 0u64;
    for &(client, tag) in &assignments {
        let params = method.parts().0[tag].params;
        sent += params;
        if tracer.enabled() {
            tracer.event(TraceEvent::Dispatch {
                round,
                client,
                tag,
                params,
            });
        }
        method.on_dispatch(env, round, client, tag);
    }
    let (archs, weights) = method.parts();
    let weights: &[ParamMap] = weights;
    let targets = weights.len();
    let target = move |tag: usize| if targets == 1 { 0 } else { tag };
    let jobs: Vec<ClientJob<'_>> = assignments
        .iter()
        .map(|&(client, tag)| {
            let start = &weights[target(tag)];
            let run: JobFn<'_> = Box::new(move |rng: &mut ChaCha8Rng| {
                let train_timer = PhaseTimer::start(env.tracer(), Phase::ClientTrain);
                let capacity = || env.fleet.device(client).capacity_at(round);
                let fit = match M::FIT {
                    Fit::Any => Some(tag),
                    Fit::Exact => (capacity() >= archs[tag].params).then_some(tag),
                    Fit::LargestFitting => {
                        env.pool.largest_fitting(tag, capacity()).map(|e| e.index)
                    }
                };
                let Some(fit) = fit else {
                    // The dispatched model still travelled down the
                    // link; the transport charges the downlink.
                    train_timer.stop(env.tracer());
                    return LocalOutcome::failure();
                };
                let arch = &archs[fit];
                let mut net = arch.load(start, rng);
                let data = env.data.client(client);
                let local = &env.cfg.local;
                let loss = local.train(&mut net, data, M::DISTILL, rng, &env.scratch);
                train_timer.stop(env.tracer());
                if env.tracer().enabled() {
                    env.tracer().event(TraceEvent::ClientTrain {
                        round,
                        client,
                        tag: fit,
                        loss,
                        samples: data.len(),
                        macs_per_sample: arch.macs,
                    });
                }
                LocalOutcome {
                    upload: Some(Upload {
                        params: net.into_param_map(),
                        weight: data.len() as f32,
                    }),
                    loss,
                    tag: fit,
                    macs_per_sample: arch.macs,
                    samples: data.len(),
                    up_params: arch.params,
                }
            });
            ClientJob {
                client,
                tag,
                down_params: archs[tag].params,
                run,
            }
        })
        .collect();
    dispatch_timer.stop(tracer);

    let exchange = transport.exchange(env, round, jobs, rng);

    let collect_timer = PhaseTimer::start(tracer, Phase::Collect);
    let mut uploads: Vec<Vec<Upload>> = vec![Vec::new(); targets];
    let mut returned = 0u64;
    let mut loss_acc = 0.0f32;
    let mut trained = 0usize;
    for mut d in exchange.deliveries {
        let delivered = d.status.is_delivered();
        if tracer.enabled() {
            tracer.event(TraceEvent::Collect {
                round,
                client: d.client,
                status: status_name(d.status),
                up_params: if delivered { d.up_params } else { 0 },
            });
        }
        method.on_delivery(env, round, &d);
        if delivered {
            returned += d.up_params;
            loss_acc += d.loss;
            trained += 1;
            uploads[target(d.tag)].push(d.upload.take().expect("delivered upload present"));
        } else {
            // Resource failures and transport losses (drops, late
            // uploads, crashes) look the same from the server.
            failures += 1;
        }
    }
    collect_timer.stop(tracer);

    let agg_timer = PhaseTimer::start(tracer, Phase::Aggregate);
    for (global, uploads) in method.parts().1.iter_mut().zip(&uploads) {
        aggregate_with_scratch(global, uploads, tracer, round, &env.scratch);
    }
    agg_timer.stop(tracer);

    RoundRecord {
        round,
        sent_params: sent,
        returned_params: returned,
        train_loss: if trained > 0 {
            loss_acc / trained as f32
        } else {
            0.0
        },
        sim_secs: exchange.round_secs,
        failures,
        comm: exchange.stats,
    }
}

/// Samples `k` distinct clients uniformly among those holding data.
pub(crate) fn sample_clients(env: &Env, k: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut eligible = env.eligible_clients();
    eligible.shuffle(rng);
    eligible.truncate(k);
    eligible
}

/// The static level assignment of HeteroFL and ScaleFL: a uniform
/// sample of clients, each paired with the level (0 = `S_1`, 1 =
/// `M_1`, 2 = `L_1`) of its device's capability class.
pub(crate) fn assign_by_class(env: &Env, rng: &mut ChaCha8Rng) -> Assignments {
    let clients = sample_clients(env, env.cfg.clients_per_round, rng);
    let assignments = clients
        .into_iter()
        .map(|c| {
            let level = match env.fleet.device(c).class() {
                DeviceClass::Weak => 0,
                DeviceClass::Medium => 1,
                DeviceClass::Strong => 2,
            };
            (c, level)
        })
        .collect();
    (assignments, 0)
}

/// The coarse width plan of HeteroFL and ScaleFL: every unit, shallow
/// ones included (`start_unit = 0`), scaled by the same `ratio`.
pub(crate) fn uniform_plan(model: &ModelConfig, ratio: f32) -> WidthPlan {
    if ratio >= 1.0 {
        model.full_plan()
    } else {
        model.plan(&PruneSpec::new(ratio, 0))
    }
}

/// Evaluates each `(submodel, weights)` pair of `levels` as one level,
/// in order, plus `full` when given. The full accuracy is `full`'s, or
/// else the last level's.
///
/// Every model's test set splits into its `eval_batch` batches, and the
/// `(model, batch)` units run on `width` executor threads, each worker
/// loading its own copy of the model it is on. Each batch's accuracy is
/// folded into its model's [`RunningMean`] in batch order, so the
/// record is the same at any width (DESIGN.md §10, "Server phases").
pub(crate) fn evaluate_levels<'a>(
    env: &Env,
    round: usize,
    width: usize,
    levels: impl IntoIterator<Item = (&'a Arch, &'a ParamMap)>,
    full: Option<(&'a Arch, &'a ParamMap)>,
) -> EvalRecord {
    let mut models: Vec<(&Arch, &ParamMap)> = levels.into_iter().collect();
    let named = models.len();
    models.extend(full);
    let test = env.data.test();
    let units: Vec<(usize, Range<usize>)> = (0..models.len())
        .flat_map(|m| eval_batches(test.len(), env.cfg.eval_batch).map(move |b| (m, b)))
        .collect();
    let scores = map_ordered_with(
        units,
        width,
        || None,
        |loaded: &mut Option<(usize, Network)>, _, (m, batch)| {
            if !matches!(loaded, Some((k, _)) if *k == m) {
                // Free the previous model before building the next.
                *loaded = None;
                let (arch, weights) = models[m];
                *loaded = Some((m, arch.load(weights, &mut env.eval_rng())));
            }
            let (_, net) = loaded.as_mut().expect("model loaded");
            (m, batch_accuracy(net, test, batch))
        },
    );
    let mut means = vec![RunningMean::new(); models.len()];
    for (m, (acc, count)) in scores {
        means[m].add(acc, count);
    }
    let accs: Vec<f32> = means.iter().map(RunningMean::mean).collect();
    EvalRecord {
        round,
        full: accs.last().copied().unwrap_or(0.0),
        levels: models[..named]
            .iter()
            .zip(accs)
            .map(|((arch, _), acc)| (arch.name.clone(), acc))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivefl_data::{Partition, SynthSpec};
    use adaptivefl_nn::layer::Layer;
    use adaptivefl_tensor::{init, rng};
    use rand::RngCore;

    use crate::sim::{SimConfig, Simulation};

    /// The load that `Arch::load` must match: a Kaiming build on `rng`,
    /// then every weight overwritten from the server's.
    fn reference_load(arch: &Arch, weights: &ParamMap, rng: &mut ChaCha8Rng) -> Network {
        let mut net = Network::build(&arch.blueprint, rng);
        match &arch.prune {
            Some(prune) => net.load_param_map(&prune.extract(weights)),
            None => net.load_param_map(weights),
        }
        net
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Loads `arch` both ways from a job RNG `skew` words into its
    /// stream, and compares the weights, the sBN logits and the RNG
    /// state the two leave.
    fn assert_load_matches(env: &Env, arch: &Arch, weights: &ParamMap, skew: usize) {
        let mut job = rng::seeded(41);
        for _ in 0..skew {
            job.next_u32();
        }
        let mut reference_rng = job.clone();
        let mut net = arch.load(weights, &mut job);
        let mut reference = reference_load(arch, weights, &mut reference_rng);
        let what = format!("{:?} {}", env.cfg.model.kind, arch.name);
        assert_eq!(
            job.state_words(),
            reference_rng.state_words(),
            "{what}: RNG state"
        );
        let (got, want) = (net.param_map(), reference.param_map());
        let names = |m: &ParamMap| m.names().map(str::to_string).collect::<Vec<_>>();
        assert_eq!(names(&got), names(&want), "{what}: parameter names");
        for ((name, g), (_, w)) in got.iter().zip(want.iter()) {
            assert_eq!(g.shape(), w.shape(), "{what}: {name} shape");
            assert_eq!(bits(g.as_slice()), bits(w.as_slice()), "{what}: {name}");
        }
        let (c, h, w) = env.cfg.model.input;
        let x = init::normal(&[3, c, h, w], 1.0, &mut rng::seeded(skew as u64));
        assert_eq!(
            bits(net.forward(x.clone(), false).as_slice()),
            bits(reference.forward(x, false).as_slice()),
            "{what}: logits"
        );
    }

    /// Every submodel `method` dispatches, with the weights it starts
    /// from.
    fn assert_method_loads_match(env: &Env, method: &mut impl RoundHooks) {
        let (archs, weights) = method.parts();
        for (tag, arch) in archs.iter().enumerate() {
            let start = &weights[if weights.len() == 1 { 0 } else { tag }];
            assert_load_matches(env, arch, start, 3 * tag);
        }
    }

    #[test]
    fn load_matches_a_kaiming_build_that_is_overwritten() {
        use adaptivefl_models::ModelConfig;
        for model in [
            ModelConfig::vgg16_fast(4),
            ModelConfig::resnet18_fast(4),
            ModelConfig::mobilenet_v2_fast(4),
            ModelConfig::tiny(4),
        ] {
            let mut cfg = SimConfig::quick_test(5);
            cfg.model = model;
            let mut spec = SynthSpec::test_spec(4);
            spec.input = model.input;
            let sim = Simulation::prepare(&cfg, &spec, Partition::Iid);
            let env = sim.env();

            let mut adaptive = AdaptiveFl::new(
                env,
                SelectionStrategy::CuriosityAndResource,
                false,
                PAPER_REWARD_CAP,
            );
            assert_eq!(adaptive.parts().0.len(), env.pool.entries().len());
            assert_method_loads_match(env, &mut adaptive);
            assert_method_loads_match(env, &mut Decoupled::new(env));

            // ScaleFL's levels, then the complete multi-exit model its
            // evaluation loads.
            let mut scalefl = ScaleFl::new(env);
            assert_method_loads_match(env, &mut scalefl);
            let bp = model.blueprint(&model.full_plan(), model.max_depth(), true);
            let full = Arch::new(env, "full".into(), bp, None);
            assert_load_matches(env, &full, &scalefl.parts().1[0], 17);
        }
    }
}
