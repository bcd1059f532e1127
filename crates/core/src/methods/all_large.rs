//! All-Large: classic FedAvg on the full model with every selected
//! client (McMahan et al.), the paper's non-resource-constrained
//! reference.

use adaptivefl_nn::ParamMap;
use rand_chacha::ChaCha8Rng;

use crate::methods::{evaluate_levels, sample_clients, Arch, Assignments, Fit, RoundHooks};
use crate::metrics::EvalRecord;
use crate::sim::Env;

/// FedAvg on `L_1` with uniformly sampled clients. Resource limits are
/// deliberately ignored (the paper trains All-Large "with all clients
/// under the classic FedAvg" as an upper reference in non-resource
/// scenarios).
pub struct AllLarge {
    global: ParamMap,
    /// `L_1`, loaded straight from the global model (no extraction).
    full: [Arch; 1],
}

impl AllLarge {
    /// Initialises the global model.
    pub fn new(env: &Env) -> Self {
        let l1 = env.pool.largest();
        let blueprint = env.cfg.model.full_blueprint(&l1.plan);
        AllLarge {
            global: env.fresh_global(),
            full: [Arch::new(env, l1.name(), blueprint)],
        }
    }
}

impl RoundHooks for AllLarge {
    const FIT: Fit = Fit::Any;

    fn assign(&mut self, env: &Env, _round: usize, rng: &mut ChaCha8Rng) -> Assignments {
        let clients = sample_clients(env, env.cfg.clients_per_round, rng);
        (clients.into_iter().map(|c| (c, 0)).collect(), 0)
    }

    fn parts(&mut self) -> (&[Arch], &mut [ParamMap]) {
        (&self.full, std::slice::from_mut(&mut self.global))
    }

    fn evaluate(&self, env: &Env, round: usize, width: usize) -> EvalRecord {
        let full = Some((&self.full[0], &self.global));
        evaluate_levels(env, round, width, [], full)
    }
}
