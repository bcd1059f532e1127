//! AdaptiveFL — Algorithm 1 of the paper.

use adaptivefl_nn::ParamMap;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::methods::{evaluate_levels, Arch, Assignments, Fit, RoundHooks};
use crate::metrics::EvalRecord;
use crate::rl::RlState;
use crate::select::{select_client, SelectionStrategy};
use crate::sim::Env;
use crate::trace::TraceEvent;
use crate::transport::Delivery;

/// AdaptiveFL server state: the full global model, the RL tables, and
/// the selection strategy (ablation variants reuse this struct).
pub struct AdaptiveFl {
    global: ParamMap,
    /// One submodel per pool entry, indexed like the pool.
    archs: Vec<Arch>,
    rl: RlState,
    strategy: SelectionStrategy,
    /// "AdaptiveFL+Greed": skip the random model pick and always
    /// dispatch `L_1`.
    greedy_dispatch: bool,
}

impl AdaptiveFl {
    /// Initialises the global model and RL tables for an environment,
    /// with the resource reward capped at `reward_cap` (the paper's is
    /// [`PAPER_REWARD_CAP`](crate::rl::PAPER_REWARD_CAP)).
    ///
    /// # Panics
    ///
    /// Panics unless `reward_cap` is in `(0, 1]`.
    pub fn new(
        env: &Env,
        strategy: SelectionStrategy,
        greedy_dispatch: bool,
        reward_cap: f64,
    ) -> Self {
        let model = &env.cfg.model;
        let archs = env
            .pool
            .entries()
            .iter()
            .map(|e| Arch::new(env, e.name(), model.full_blueprint(&e.plan)))
            .collect();
        AdaptiveFl {
            global: env.fresh_global(),
            archs,
            rl: RlState::new(env.pool.p(), env.data.num_clients()).with_reward_cap(reward_cap),
            strategy,
            greedy_dispatch,
        }
    }

    /// Read access to the RL state (for diagnostics/tests).
    pub fn rl(&self) -> &RlState {
        &self.rl
    }
}

impl RoundHooks for AdaptiveFl {
    const FIT: Fit = Fit::LargestFitting;

    /// Steps 2+3: pick (model, client) pairs; clients are distinct
    /// within a round.
    fn assign(&mut self, env: &Env, _round: usize, rng: &mut ChaCha8Rng) -> Assignments {
        let pool = &env.pool;
        let k = env.cfg.clients_per_round;
        let mut eligible = env.eligible_clients();
        let mut assignments = Vec::with_capacity(k);
        for _ in 0..k {
            if eligible.is_empty() {
                break;
            }
            let m_idx = if self.greedy_dispatch {
                pool.len() - 1
            } else {
                // RandomSel: the paper leaves the distribution over the
                // pool unspecified; we sample a level uniformly, then a
                // member within the level, so the full model is trained
                // as often as each pruned level (pure uniform over the
                // 2p+1 entries starves L_1 at small round budgets).
                let level = crate::pool::Level::all()[rng.gen_range(0..3)];
                let members = pool.level_indices(level);
                members[rng.gen_range(0..members.len())]
            };
            let Some(c) = select_client(self.strategy, &self.rl, pool, m_idx, &eligible, rng)
            else {
                break;
            };
            eligible.retain(|&x| x != c);
            assignments.push((c, m_idx));
        }
        (assignments, 0)
    }

    fn parts(&mut self) -> (&[Arch], &mut [ParamMap]) {
        (&self.archs, std::slice::from_mut(&mut self.global))
    }

    fn evaluate(&self, env: &Env, round: usize, width: usize) -> EvalRecord {
        // The level representatives ascend, so the full accuracy is
        // that of the L_1 (global) model.
        let reps = env.pool.level_representatives();
        let levels = reps
            .iter()
            .map(|rep| (&self.archs[rep.index], &self.global));
        evaluate_levels(env, round, width, levels, None)
    }

    fn rl_tables(&mut self) -> Option<&mut RlState> {
        Some(&mut self.rl)
    }

    fn on_dispatch(&mut self, env: &Env, round: usize, client: usize, tag: usize) {
        let level = env.pool.entry(tag).level;
        self.rl.update_on_dispatch(level, client);
        if env.tracer().enabled() {
            env.tracer().event(TraceEvent::RlDispatch {
                round,
                client,
                level: level.type_index(),
            });
        }
    }

    /// Step 6: `T_r` learns what came back. Resource failures and
    /// transport losses (drops, late uploads, crashes) look the same
    /// from the server: the dispatched model never came back, so `T_r`
    /// records a total failure.
    fn on_delivery(&mut self, env: &Env, round: usize, d: &Delivery) {
        let returned = d.status.is_delivered().then_some(d.client_tag);
        self.rl
            .update_on_return(&env.pool, d.tag, returned, d.client);
        if env.tracer().enabled() {
            env.tracer().event(TraceEvent::RlReturn {
                round,
                client: d.client,
                sent: d.tag,
                returned,
            });
        }
    }
}
