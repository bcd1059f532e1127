//! Nested parameter extraction — the width-wise pruning
//! `W^k_{r_w} = W^k_g[:d_k·r_w][:n_k·r_w]` of paper §3.2, applied map-wide.

use adaptivefl_models::{ModelConfig, WidthPlan};
use adaptivefl_nn::{ParamKind, ParamMap};
use adaptivefl_tensor::SliceSpec;

/// A precomputed extraction table for one submodel configuration: the
/// per-parameter prefix [`SliceSpec`]s of the paper's §3.2 width-wise
/// pruning.
///
/// Building the table walks the model blueprint (expensive); extracting
/// with it is a flat loop over cached specs. A round does not use it: a
/// client's submodel copies the same blocks straight from the server's
/// weights into the network its blueprint builds. The plan serves code
/// that wants a submodel as a [`ParamMap`] of its own, through
/// [`crate::pool::ModelPool::prune_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PrunePlan {
    specs: Vec<(String, SliceSpec)>,
}

impl PrunePlan {
    /// Precomputes the extraction table for a width plan.
    pub fn new(cfg: &ModelConfig, plan: &WidthPlan) -> Self {
        Self::from_shapes(&cfg.shapes(plan))
    }

    /// Precomputes the table from an explicit shape list, such as a
    /// blueprint's [`shapes`](adaptivefl_models::Blueprint::shapes).
    pub fn from_shapes(shapes: &[(String, Vec<usize>, ParamKind)]) -> Self {
        PrunePlan {
            specs: shapes
                .iter()
                .map(|(name, shape, _)| (name.clone(), SliceSpec::new(shape.clone())))
                .collect(),
        }
    }

    /// Extracts the submodel from the full global map.
    ///
    /// # Panics
    ///
    /// Panics if the global map is missing a parameter or a cached
    /// shape does not nest inside the global shape.
    pub fn extract(&self, global: &ParamMap) -> ParamMap {
        let mut out = ParamMap::new();
        for (name, spec) in &self.specs {
            let full = global
                .get(name)
                .unwrap_or_else(|| panic!("global model missing parameter {name}"));
            assert!(
                spec.fits_in(full.shape()),
                "plan shape {spec} does not nest in global {:?} for {name}",
                full.shape()
            );
            out.insert(name.clone(), spec.extract(full));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{ModelPool, DEFAULT_RATIOS};
    use adaptivefl_models::ModelConfig;
    use adaptivefl_nn::layer::LayerExt;
    use adaptivefl_tensor::rng;

    #[test]
    fn extracted_size_matches_pool_entry() {
        let cfg = ModelConfig::tiny(10);
        let pool = ModelPool::split(&cfg, 3, DEFAULT_RATIOS);
        let mut r = rng::seeded(50);
        let global = cfg.build(&cfg.full_plan(), &mut r).param_map();
        for e in pool.entries() {
            let sub = PrunePlan::new(&cfg, &e.plan).extract(&global);
            assert_eq!(sub.numel() as u64, e.params, "{}", e.name());
        }
    }

    #[test]
    fn extraction_is_prefix_consistent() {
        // The S model's weights must be the leading block of the L
        // model's weights.
        let cfg = ModelConfig::tiny(10);
        let pool = ModelPool::split(&cfg, 3, DEFAULT_RATIOS);
        let mut r = rng::seeded(51);
        let global = cfg.build(&cfg.full_plan(), &mut r).param_map();
        let small = PrunePlan::new(&cfg, &pool.entry(0).plan).extract(&global);
        for (name, t) in small.iter() {
            let full = global.get(name).expect("name exists");
            let spec = SliceSpec::new(t.shape().to_vec());
            assert_eq!(&spec.extract(full), t, "{name}");
        }
    }

    #[test]
    fn extracted_submodel_loads_into_network() {
        let cfg = ModelConfig::tiny(10);
        let pool = ModelPool::split(&cfg, 2, DEFAULT_RATIOS);
        let mut r = rng::seeded(52);
        let global = cfg.build(&cfg.full_plan(), &mut r).param_map();
        let e = pool.entry(1);
        let sub = PrunePlan::new(&cfg, &e.plan).extract(&global);
        let mut net = cfg.build(&e.plan, &mut r);
        net.load_param_map(&sub); // panics on any shape mismatch
        assert_eq!(net.param_map(), sub);
    }

    #[test]
    fn every_pool_entry_extracts_for_every_family() {
        // Regression test: residual families must never produce a pool
        // entry whose boundary block introduces parameters (projection
        // shortcuts) absent from the full global model.
        for cfg in [
            ModelConfig::vgg16_fast(10),
            ModelConfig::resnet18_fast(10),
            ModelConfig::mobilenet_v2_fast(10),
            ModelConfig::tiny(10),
        ] {
            let pool = ModelPool::split(&cfg, 3, DEFAULT_RATIOS);
            let mut r = rng::seeded(53);
            let global = cfg.build(&cfg.full_plan(), &mut r).param_map();
            for e in pool.entries() {
                let sub = PrunePlan::new(&cfg, &e.plan).extract(&global);
                assert_eq!(sub.numel() as u64, e.params, "{:?} {}", cfg.kind, e.name());
            }
        }
    }

    #[test]
    fn cached_plan_matches_fresh_extraction() {
        let cfg = ModelConfig::tiny(10);
        let pool = ModelPool::split(&cfg, 3, DEFAULT_RATIOS);
        let mut r = rng::seeded(54);
        let global = cfg.build(&cfg.full_plan(), &mut r).param_map();
        for e in pool.entries() {
            let cached = pool.prune_plan(e.index).extract(&global);
            assert_eq!(cached.numel() as u64, e.params, "{}", e.name());
            assert_eq!(
                cached,
                PrunePlan::new(&cfg, &e.plan).extract(&global),
                "{}",
                e.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "missing parameter")]
    fn missing_param_panics() {
        let cfg = ModelConfig::tiny(10);
        let global = ParamMap::new();
        PrunePlan::new(&cfg, &cfg.full_plan()).extract(&global);
    }
}
