//! The model pool: `Split(M)` of Algorithm 1.
//!
//! Every round the server splits the global model into
//! `R = {m_{S_p}, …, m_{S_1}, m_{M_p}, …, m_{M_1}, m_{L_1}}` — `p`
//! fine-grained submodels per level (except L), ordered by size. Each
//! entry is a `(r_w, I)` configuration: the level fixes the width ratio
//! `r_w`, the starting prune unit `I` fine-tunes the size within the
//! level (paper Table 1).

use adaptivefl_models::{ModelConfig, PruneSpec, WidthPlan};

use crate::prune::PrunePlan;

/// The paper's three model levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// Small (`r_w ≈ 0.40`).
    Small,
    /// Medium (`r_w ≈ 0.66`).
    Medium,
    /// Large (the full model).
    Large,
}

impl Level {
    /// Index into the curiosity table `T_c` (S=0, M=1, L=2).
    pub fn type_index(self) -> usize {
        match self {
            Level::Small => 0,
            Level::Medium => 1,
            Level::Large => 2,
        }
    }

    /// All levels, ascending.
    pub fn all() -> [Level; 3] {
        [Level::Small, Level::Medium, Level::Large]
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Level::Small => "S",
            Level::Medium => "M",
            Level::Large => "L",
        };
        f.write_str(s)
    }
}

/// One submodel configuration in the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolEntry {
    /// Position in the pool, ascending by size (0 = smallest,
    /// `2p` = the full model `L_1`).
    pub index: usize,
    /// The level this entry belongs to.
    pub level: Level,
    /// Rank within the level, 1-based: `S_1` is the *largest* small
    /// model (paper notation).
    pub rank: usize,
    /// The `(r_w, I)` configuration.
    pub spec: PruneSpec,
    /// Per-unit channel plan.
    pub plan: WidthPlan,
    /// Parameter-element count (the `size(·)` of the paper).
    pub params: u64,
}

impl PoolEntry {
    /// Display name in paper notation, e.g. `"S_3"`, `"M_1"`, `"L_1"`.
    pub fn name(&self) -> String {
        format!("{}_{}", self.level, self.rank)
    }
}

/// The ordered pool of `2p+1` nested submodels.
///
/// Each entry carries a precomputed [`PrunePlan`] (index-aligned with
/// `entries`) for code that extracts a submodel as a map of its own.
/// Rounds do not: a client's network copies its blocks straight from
/// the server's weights.
#[derive(Debug, Clone)]
pub struct ModelPool {
    entries: Vec<PoolEntry>,
    p: usize,
    plans: Vec<PrunePlan>,
}

/// Default width ratios `(S, M)`; `L` is always 1.0 (paper Table 1).
pub const DEFAULT_RATIOS: (f32, f32) = (0.40, 0.66);

impl ModelPool {
    /// Splits a model configuration into the pool.
    ///
    /// `p` submodels per level are generated by varying the start unit
    /// `I` from `I_hi` down toward the threshold `τ =
    /// cfg.min_start_unit()` in equal steps; `I_hi` is picked so the
    /// paper's VGG16 setting (`I ∈ {8, 6, 4}`, τ = 4) is reproduced.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or the ratios are not in `(0, 1)`.
    pub fn split(cfg: &ModelConfig, p: usize, ratios: (f32, f32)) -> Self {
        assert!(p > 0, "p must be positive");
        let (rs, rm) = ratios;
        assert!(
            rs > 0.0 && rs < 1.0 && rm > 0.0 && rm < 1.0,
            "ratios must be in (0,1)"
        );
        assert!(rs < rm, "small ratio must be below medium ratio");

        let allowed = cfg.allowed_start_units();
        assert!(
            !allowed.is_empty(),
            "model family has no prunable start units"
        );
        let units = cfg.num_units();
        // Aim the largest fine-grained submodel (`rank 1`) at roughly
        // the 55 % depth point — for VGG16 this reproduces the paper's
        // I ∈ {8, 6, 4}. Snap to the allowed-start list and make sure
        // at least p−1 smaller choices remain below.
        let target = ((units as f32) * 0.55).round() as usize;
        let mut hi = allowed.iter().rposition(|&a| a <= target).unwrap_or(0);
        if hi < p - 1 {
            hi = (p - 1).min(allowed.len() - 1);
        }
        let step = if p > 1 { (hi / (p - 1)).max(1) } else { 1 };

        // Start units, ascending size: rank p (I = τ-ish) … rank 1 (I = I_hi).
        let start_units: Vec<usize> = (0..p)
            .map(|j| allowed[hi.saturating_sub(step * (p - 1 - j))])
            .collect();

        let mut entries = Vec::with_capacity(2 * p + 1);
        for (level, r_w) in [(Level::Small, rs), (Level::Medium, rm)] {
            for (j, &start) in start_units.iter().enumerate() {
                let spec = PruneSpec::new(r_w, start);
                let plan = cfg.plan(&spec);
                entries.push(PoolEntry {
                    index: entries.len(),
                    level,
                    rank: p - j,
                    spec,
                    plan: plan.clone(),
                    params: cfg.num_params(&plan),
                });
            }
        }
        let full_plan = cfg.full_plan();
        entries.push(PoolEntry {
            index: entries.len(),
            level: Level::Large,
            rank: 1,
            spec: PruneSpec::full(),
            params: cfg.num_params(&full_plan),
            plan: full_plan,
        });

        // The pool is ordered by size. Within a level the generation
        // order is already monotone in I; across levels small models
        // of one family can outgrow large ones of a smaller-ratio
        // level, so sort globally and re-index.
        entries.sort_by_key(|e| e.params);
        for (i, e) in entries.iter_mut().enumerate() {
            e.index = i;
        }

        // Precompute each entry's extraction table once — the pool is
        // fixed for the whole run (paper Algorithm 1's Split(M)).
        let plans = entries
            .iter()
            .map(|e| PrunePlan::new(cfg, &e.plan))
            .collect();

        let pool = ModelPool { entries, p, plans };
        pool.assert_ordered();
        pool
    }

    fn assert_ordered(&self) {
        for w in self.entries.windows(2) {
            assert!(
                w[0].params <= w[1].params,
                "pool not ordered by size: {} ({}) > {} ({})",
                w[0].name(),
                w[0].params,
                w[1].name(),
                w[1].params
            );
        }
    }

    /// Number of submodels per level (the hyper-parameter `p`).
    pub fn p(&self) -> usize {
        self.p
    }

    /// All entries, ascending by size.
    pub fn entries(&self) -> &[PoolEntry] {
        &self.entries
    }

    /// Number of entries (`2p + 1`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the pool is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry at pool index `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn entry(&self, i: usize) -> &PoolEntry {
        &self.entries[i]
    }

    /// The precomputed extraction table of the entry at pool index
    /// `i` (index-aligned with [`ModelPool::entry`]).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn prune_plan(&self, i: usize) -> &PrunePlan {
        &self.plans[i]
    }

    /// The full model `L_1` (largest entry).
    pub fn largest(&self) -> &PoolEntry {
        self.entries.last().expect("pool is non-empty")
    }

    /// Pool indices belonging to a level, ascending.
    pub fn level_indices(&self, level: Level) -> Vec<usize> {
        self.entries
            .iter()
            .filter(|e| e.level == level)
            .map(|e| e.index)
            .collect()
    }

    /// The largest representative of each level (`S_1`, `M_1`, `L_1`) —
    /// the submodels the paper's "avg" accuracy averages over.
    pub fn level_representatives(&self) -> Vec<&PoolEntry> {
        Level::all()
            .iter()
            .filter_map(|&l| {
                self.level_indices(l)
                    .into_iter()
                    .max()
                    .map(|i| self.entry(i))
            })
            .collect()
    }

    /// Client-side available-resource-aware pruning (paper §3.2):
    /// the largest entry no bigger than the received one whose plan is
    /// *physically nested* in the received plan (a client can only
    /// drop channels it actually holds) and whose size fits in
    /// `capacity`. Returns `None` when nothing fits.
    pub fn largest_fitting(&self, received: usize, capacity: u64) -> Option<&PoolEntry> {
        let received = received.min(self.len() - 1);
        let received_plan = &self.entries[received].plan;
        self.entries[..=received]
            .iter()
            .rev()
            .find(|e| e.params <= capacity && e.plan.nested_in(received_plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivefl_models::ModelConfig;

    fn vgg_pool() -> ModelPool {
        ModelPool::split(&ModelConfig::vgg16_cifar(), 3, DEFAULT_RATIOS)
    }

    #[test]
    fn vgg16_pool_reproduces_paper_start_units() {
        // Paper Table 1: I ∈ {8, 6, 4} for both levels, τ = 4.
        let pool = vgg_pool();
        assert_eq!(pool.len(), 7);
        let starts: Vec<usize> = pool.entries()[..3]
            .iter()
            .map(|e| e.spec.start_unit)
            .collect();
        assert_eq!(starts, vec![4, 6, 8]); // S_3, S_2, S_1
        assert_eq!(pool.entry(0).name(), "S_3");
        assert_eq!(pool.entry(2).name(), "S_1");
        assert_eq!(pool.entry(5).name(), "M_1");
        assert_eq!(pool.entry(6).name(), "L_1");
    }

    #[test]
    fn vgg16_pool_sizes_match_table1() {
        // Table 1 sizes (#PARAMS): S_3 5.67M, S_2 6.48M, S_1 8.39M,
        // M_3 14.84M, M_2 15.41M, M_1 16.81M, L_1 33.65M.
        let pool = vgg_pool();
        let expected_m = [5.67, 6.48, 8.39, 14.84, 15.41, 16.81, 33.65];
        for (e, &exp) in pool.entries().iter().zip(expected_m.iter()) {
            let got = e.params as f64 / 1e6;
            assert!(
                (got - exp).abs() < 0.08,
                "{}: {got:.2}M vs paper {exp}M",
                e.name()
            );
        }
    }

    #[test]
    fn entries_are_nested() {
        let pool = vgg_pool();
        for w in pool.entries().windows(2) {
            assert!(
                w[0].plan.nested_in(&w[1].plan) || w[0].level != w[1].level,
                "{} should nest in {}",
                w[0].name(),
                w[1].name()
            );
        }
        // Everything nests in L_1.
        let full = &pool.largest().plan;
        for e in pool.entries() {
            assert!(e.plan.nested_in(full));
        }
    }

    #[test]
    fn largest_fitting_respects_capacity_and_received() {
        let pool = vgg_pool();
        let l1 = pool.largest().params;
        // A capacity fitting M_1 but asked after receiving S_1 must
        // return at most S_1.
        let m1 = pool.entry(5).params;
        let got = pool.largest_fitting(2, m1).expect("fits");
        assert_eq!(got.name(), "S_1");
        // Full capacity + received L_1 → L_1.
        assert_eq!(pool.largest_fitting(6, l1).expect("fits").name(), "L_1");
        // Capacity below S_3 → None.
        assert!(pool.largest_fitting(6, 1000).is_none());
    }

    #[test]
    fn level_representatives_are_s1_m1_l1() {
        let pool = vgg_pool();
        let names: Vec<String> = pool
            .level_representatives()
            .iter()
            .map(|e| e.name())
            .collect();
        assert_eq!(names, vec!["S_1", "M_1", "L_1"]);
    }

    #[test]
    fn p_equals_one_gives_coarse_pool() {
        let pool = ModelPool::split(&ModelConfig::vgg16_cifar(), 1, DEFAULT_RATIOS);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.entry(0).name(), "S_1");
        assert_eq!(pool.entry(1).name(), "M_1");
        assert_eq!(pool.entry(2).name(), "L_1");
    }

    #[test]
    fn works_for_all_fast_families() {
        for cfg in [
            ModelConfig::vgg16_fast(10),
            ModelConfig::resnet18_fast(10),
            ModelConfig::mobilenet_v2_fast(10),
            ModelConfig::tiny(10),
        ] {
            let pool = ModelPool::split(&cfg, 3, DEFAULT_RATIOS);
            assert_eq!(pool.len(), 7, "{:?}", cfg.kind);
        }
    }

    #[test]
    fn type_indices_cover_tc_rows() {
        assert_eq!(Level::Small.type_index(), 0);
        assert_eq!(Level::Medium.type_index(), 1);
        assert_eq!(Level::Large.type_index(), 2);
    }
}
