//! ScaleFL (Ilhan et al., CVPR 2023): two-dimensional width+depth
//! scaling with early-exit classifiers and self-distillation during
//! local training.
//!
//! The global model is the full-depth network with every exit head
//! instantiated; level submodels truncate depth (keeping the exit at
//! their last segment) and scale width uniformly. Like HeteroFL, the
//! level assignment is static per capability class and there is no
//! client-side adaptation.

use adaptivefl_models::Network;
use adaptivefl_nn::layer::LayerExt;
use adaptivefl_nn::ParamMap;
use rand_chacha::ChaCha8Rng;

use crate::methods::{
    assign_by_class, evaluate_levels, uniform_plan, Arch, Assignments, Fit, RoundHooks,
};
use crate::metrics::EvalRecord;
use crate::sim::Env;

/// Distillation weight of the early exits toward the final exit.
const KD_WEIGHT: f32 = 0.5;
/// Distillation temperature.
const KD_TEMPERATURE: f32 = 2.0;

/// ScaleFL server state.
pub struct ScaleFl {
    global: ParamMap,
    /// The three level submodels (uniform width ratio × kept depth,
    /// exit at their last segment), ascending by size.
    levels: Vec<Arch>,
    /// The complete multi-exit model, evaluated at its deepest exit.
    full: Arch,
}

impl ScaleFl {
    /// Initialises the multi-exit global model and the three level
    /// configurations (width × depth chosen to land near the paper's
    /// 0.25× / 0.5× / 1.0× model-size levels).
    pub fn new(env: &Env) -> Self {
        let cfg = &env.cfg.model;
        let d = cfg.max_depth();
        let combos: [(&str, f32, usize); 3] = [
            ("S_1", 0.60, d.div_ceil(2)),
            ("M_1", 0.80, (3 * d).div_ceil(4)),
            ("L_1", 1.0, d),
        ];
        let levels = combos
            .iter()
            .map(|&(name, r, depth)| {
                let bp = cfg.blueprint(&uniform_plan(cfg, r), depth, true);
                Arch::new(env, name.into(), bp)
            })
            .collect();

        // Global = full width, full depth, all exits.
        let bp = cfg.blueprint(&cfg.full_plan(), d, true);
        let full = Arch::new(env, "full".into(), bp);
        let mut rng = adaptivefl_tensor::rng::derived(env.cfg.seed, "scalefl-init");
        let global = Network::build(&full.blueprint, &mut rng).param_map();
        ScaleFl {
            global,
            levels,
            full,
        }
    }
}

impl RoundHooks for ScaleFl {
    const FIT: Fit = Fit::Exact;
    const DISTILL: Option<(f32, f32)> = Some((KD_WEIGHT, KD_TEMPERATURE));

    fn assign(&mut self, env: &Env, _round: usize, rng: &mut ChaCha8Rng) -> Assignments {
        assign_by_class(env, rng)
    }

    fn parts(&mut self) -> (&[Arch], &mut [ParamMap]) {
        (&self.levels, std::slice::from_mut(&mut self.global))
    }

    fn evaluate(&self, env: &Env, round: usize, width: usize) -> EvalRecord {
        // Each level submodel is evaluated at its own final exit (no
        // aux heads run at inference); the full accuracy is the
        // complete multi-exit model's at the deepest exit.
        let levels = self.levels.iter().map(|l| (l, &self.global));
        evaluate_levels(env, round, width, levels, Some((&self.full, &self.global)))
    }
}
