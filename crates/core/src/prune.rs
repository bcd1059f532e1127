//! Nested parameter extraction — the width-wise pruning
//! `W^k_{r_w} = W^k_g[:d_k·r_w][:n_k·r_w]` of paper §3.2, applied map-wide.

use adaptivefl_models::{ModelConfig, WidthPlan};
use adaptivefl_nn::layer::Layer;
use adaptivefl_nn::{ParamKind, ParamMap};
use adaptivefl_tensor::{SliceSpec, Tensor};

/// A precomputed extraction table for one submodel configuration: the
/// per-parameter prefix [`SliceSpec`]s of the paper's §3.2 width-wise
/// pruning.
///
/// Building the table walks the model blueprint (expensive); extracting
/// with it is a flat loop over cached specs. The `2p+1` pool
/// configurations are fixed for a run, so [`crate::pool::ModelPool`]
/// builds one plan per entry at construction instead of rebuilding the
/// shape table per client dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunePlan {
    specs: Vec<(String, SliceSpec)>,
}

impl PrunePlan {
    /// Precomputes the extraction table for a width plan.
    pub fn new(cfg: &ModelConfig, plan: &WidthPlan) -> Self {
        Self::from_shapes(&cfg.shapes(plan))
    }

    /// Precomputes the table from an explicit shape list (used for
    /// ScaleFL's depth-scaled multi-exit submodels).
    pub fn from_shapes(shapes: &[(String, Vec<usize>, ParamKind)]) -> Self {
        PrunePlan {
            specs: shapes
                .iter()
                .map(|(name, shape, _)| (name.clone(), SliceSpec::new(shape.clone())))
                .collect(),
        }
    }

    /// Number of parameters in the submodel.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when the plan extracts nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Total extracted element count (the `size(·)` of the paper).
    pub fn numel(&self) -> usize {
        self.specs.iter().map(|(_, s)| s.numel()).sum()
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

    /// [`PrunePlan::extract`] straight into the parameters of `net`, a
    /// network built for this submodel: each block is copied into the
    /// same-named tensor, and no tensor is allocated.
    ///
    /// # Panics
    ///
    /// Panics if the plan lacks one of `net`'s parameters, if the
    /// global map lacks one of the plan's, or on any shape that does
    /// not match or nest.
    pub fn extract_into(&self, global: &ParamMap, net: &mut dyn Layer) {
        // The plan lists parameters in blueprint order, which is
        // usually `net`'s visit order: try the next entry first.
        let mut next = 0;
        net.visit_params_mut(
            "",
            &mut |name: &str, _, value: &mut Tensor, _: &mut Tensor| {
                let at = match self.specs.get(next) {
                    Some((n, _)) if n == name => next,
                    _ => self
                        .specs
                        .iter()
                        .position(|(n, _)| n == name)
                        .unwrap_or_else(|| panic!("parameter {name} missing from plan")),
                };
                next = at + 1;
                let spec = &self.specs[at].1;
                let full = global
                    .get(name)
                    .unwrap_or_else(|| panic!("global model missing parameter {name}"));
                assert!(
                    spec.fits_in(full.shape()),
                    "plan shape {spec} does not nest in global {:?} for {name}",
                    full.shape()
                );
                assert_eq!(
                    spec.dims(),
                    value.shape(),
                    "parameter {name} shape mismatch"
                );
                spec.extract_into(full, value);
            },
        );
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
    fn extract_into_writes_what_extract_returns() {
        for cfg in [
            ModelConfig::vgg16_fast(10),
            ModelConfig::resnet18_fast(10),
            ModelConfig::mobilenet_v2_fast(10),
            ModelConfig::tiny(10),
        ] {
            let pool = ModelPool::split(&cfg, 3, DEFAULT_RATIOS);
            let mut r = rng::seeded(54);
            let global = cfg.build(&cfg.full_plan(), &mut r).param_map();
            for e in pool.entries() {
                let plan = PrunePlan::new(&cfg, &e.plan);
                let mut net = cfg.build(&e.plan, &mut r);
                plan.extract_into(&global, &mut net);
                assert_eq!(net.param_map(), plan.extract(&global), "{}", e.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "missing from plan")]
    fn extract_into_rejects_a_parameter_the_plan_lacks() {
        let cfg = ModelConfig::tiny(10);
        let global = cfg
            .build(&cfg.full_plan(), &mut rng::seeded(55))
            .param_map();
        let mut net = cfg.build(&cfg.full_plan(), &mut rng::seeded(56));
        PrunePlan::from_shapes(&[]).extract_into(&global, &mut net);
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
            let cached = pool.prune_plan(e.index);
            assert_eq!(cached.numel() as u64, e.params, "{}", e.name());
            assert_eq!(
                cached.extract(&global),
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
