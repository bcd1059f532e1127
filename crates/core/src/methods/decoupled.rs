//! Decoupled: one independent FedAvg federation per level (S/M/L) with
//! no cross-level parameter sharing — the paper's weakest baseline.

use adaptivefl_models::Network;
use adaptivefl_nn::layer::LayerExt;
use adaptivefl_nn::ParamMap;
use rand_chacha::ChaCha8Rng;

use crate::methods::{evaluate_levels, sample_clients, Arch, Assignments, Fit, RoundHooks};
use crate::metrics::EvalRecord;
use crate::sim::Env;

/// Per-level global models (`S_1`, `M_1`, `L_1`), each trained only by
/// the clients that can afford that level.
pub struct Decoupled {
    /// The level submodels, ascending by size.
    levels: Vec<Arch>,
    /// One global model per level, index-aligned with `levels`.
    globals: Vec<ParamMap>,
}

impl Decoupled {
    /// Initialises one independent global model per level.
    pub fn new(env: &Env) -> Self {
        let model = &env.cfg.model;
        let levels: Vec<Arch> = env
            .pool
            .level_representatives()
            .into_iter()
            .map(|rep| Arch::new(env, rep.name(), model.full_blueprint(&rep.plan)))
            .collect();
        let globals = levels
            .iter()
            .map(|level| {
                let mut rng = adaptivefl_tensor::rng::derived(env.cfg.seed, "decoupled-init");
                Network::build(&level.blueprint, &mut rng).param_map()
            })
            .collect();
        Decoupled { levels, globals }
    }
}

impl RoundHooks for Decoupled {
    const FIT: Fit = Fit::Any;

    /// Each sampled client gets the largest level that fits it right
    /// now. A client with no affordable level is never dispatched to at
    /// all — no downlink is spent, unlike the other baselines.
    fn assign(&mut self, env: &Env, round: usize, rng: &mut ChaCha8Rng) -> Assignments {
        let clients = sample_clients(env, env.cfg.clients_per_round, rng);
        let mut skipped = 0;
        let assignments = clients
            .into_iter()
            .filter_map(|c| {
                let capacity = env.fleet.device(c).capacity_at(round);
                let level = self.levels.iter().rposition(|l| l.params <= capacity);
                skipped += usize::from(level.is_none());
                Some((c, level?))
            })
            .collect();
        (assignments, skipped)
    }

    fn parts(&mut self) -> (&[Arch], &mut [ParamMap]) {
        (&self.levels, &mut self.globals)
    }

    fn evaluate(&self, env: &Env, round: usize, width: usize) -> EvalRecord {
        let levels = self.levels.iter().zip(&self.globals);
        evaluate_levels(env, round, width, levels, None)
    }
}
