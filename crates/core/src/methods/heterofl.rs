//! HeteroFL (Diao et al., ICLR 2021): static *uniform* width pruning —
//! every hidden layer scaled by the same ratio, submodel level fixed by
//! the server's knowledge of each client's capability class.
//!
//! Two deliberate contrasts with AdaptiveFL, both from the papers:
//! the pruning is coarse (no per-layer start index, shallow layers are
//! pruned too), and there is no client-side adaptation — if a client's
//! currently available resources cannot hold its statically assigned
//! submodel, the round fails for that client.

use adaptivefl_nn::ParamMap;
use rand_chacha::ChaCha8Rng;

use crate::methods::{
    assign_by_class, evaluate_levels, uniform_plan, Arch, Assignments, Fit, RoundHooks,
};
use crate::metrics::EvalRecord;
use crate::sim::Env;

/// Uniform width ratios per level: 1.0× / 0.5× / 0.25× model size,
/// i.e. width ratios 1.0 / √0.5 / 0.5 (params scale ≈ quadratically in
/// width).
const WIDTH_RATIOS: [(&str, f32); 3] = [("S_1", 0.5), ("M_1", 0.707), ("L_1", 1.0)];

/// HeteroFL server state.
pub struct HeteroFl {
    global: ParamMap,
    /// The three static submodels, ascending by size.
    levels: Vec<Arch>,
}

impl HeteroFl {
    /// Initialises the global model and the three static submodels.
    pub fn new(env: &Env) -> Self {
        let model = &env.cfg.model;
        let levels = WIDTH_RATIOS
            .iter()
            .map(|&(name, r)| {
                let bp = model.full_blueprint(&uniform_plan(model, r));
                Arch::new(env, name.into(), bp)
            })
            .collect();
        HeteroFl {
            global: env.fresh_global(),
            levels,
        }
    }
}

impl RoundHooks for HeteroFl {
    // No client-side adaptation: a resource dip below the assigned
    // size fails the round for this client.
    const FIT: Fit = Fit::Exact;

    fn assign(&mut self, env: &Env, _round: usize, rng: &mut ChaCha8Rng) -> Assignments {
        assign_by_class(env, rng)
    }

    fn parts(&mut self) -> (&[Arch], &mut [ParamMap]) {
        (&self.levels, std::slice::from_mut(&mut self.global))
    }

    fn evaluate(&self, env: &Env, round: usize, width: usize) -> EvalRecord {
        let levels = self.levels.iter().map(|l| (l, &self.global));
        evaluate_levels(env, round, width, levels, None)
    }
}
