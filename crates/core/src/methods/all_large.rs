//! All-Large: classic FedAvg on the full model with every selected
//! client (McMahan et al.), the paper's non-resource-constrained
//! reference.

use adaptivefl_nn::ParamMap;
use rand_chacha::ChaCha8Rng;

use crate::checkpoint::{Checkpointable, MethodState};
use crate::error::CoreError;
use crate::methods::{
    evaluate_levels, play_round, sample_clients, Arch, Assignments, Fit, FlMethod, RoundHooks,
};
use crate::metrics::{EvalRecord, RoundRecord};
use crate::sim::Env;
use crate::transport::Transport;

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
            full: [Arch::new(env, l1.name(), blueprint, None)],
        }
    }
}

impl Checkpointable for AllLarge {
    fn capture(&self) -> MethodState {
        MethodState::single(self.global.clone())
    }

    fn restore(&mut self, state: MethodState) -> Result<(), CoreError> {
        self.global = state.into_single()?;
        Ok(())
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
}

impl FlMethod for AllLarge {
    fn name(&self) -> String {
        "All-Large".to_string()
    }

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
        let full = Some((&self.full[0], &self.global));
        evaluate_levels(env, round, width, [], full)
    }
}
