//! One experiment cell: a single method × configuration point of an
//! experiment grid, runnable at any seed with full per-job isolation.

use std::path::PathBuf;
use std::sync::Arc;

use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::metrics::RunResult;
use adaptivefl_core::sim::{SimConfig, Simulation};
use adaptivefl_core::transport::PerfectTransport;
use adaptivefl_data::{Partition, SynthSpec};
use adaptivefl_device::testbed::paper_testbed;
use adaptivefl_models::{ModelConfig, ModelKind};
use adaptivefl_store::{run_or_resume, SnapshotStore};
use adaptivefl_trace::JsonlTracer;

use crate::{sanitize_slug, CHECKPOINT_EVERY};

/// How a cell instantiates its method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellRun {
    /// A method of the paper's line-up.
    Kind(MethodKind),
    /// AdaptiveFL (+CS) with a non-default RL success-rate reward cap
    /// (the `reward-cap` ablation); runs as
    /// [`MethodKind::AdaptiveFlCapped`].
    AdaptiveCap(f64),
}

impl CellRun {
    /// The method name of the cell's kind, [`MethodKind::name`].
    pub fn method_name(&self) -> String {
        self.kind().name()
    }

    /// The method kind the cell runs.
    pub fn kind(&self) -> MethodKind {
        match *self {
            CellRun::Kind(k) => k,
            CellRun::AdaptiveCap(cap) => MethodKind::adaptive_fl_capped(cap),
        }
    }
}

/// Which device fleet the cell trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetSpec {
    /// The proportion-derived fleet of [`Simulation::prepare`].
    Auto,
    /// The paper's 17-device Pi/Nano/Xavier test-bed (Figure 6).
    PaperTestbed,
}

/// One grid point. `slug` is unique across the whole grid and names
/// the cell's result/checkpoint/trace artifacts; `group` is the
/// comparison-panel key (cells sharing a group are paired by the
/// statistics layer); `variant` is the experiment-specific axis
/// (device proportion, panel name, ablation variant, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Owning experiment (`"table2"`, …, `"ablation"`).
    pub experiment: &'static str,
    /// Sanitized, grid-unique identifier.
    pub slug: String,
    /// Pairing key: all cells of one comparison panel share it.
    pub group: String,
    /// Model family label (`"VGG16"`, …).
    pub model: String,
    /// Dataset label (`"SynCIFAR-10"`, …).
    pub dataset: String,
    /// Partition label (`"IID"`, `"a=0.3"`, …).
    pub partition_label: String,
    /// Experiment-specific axis label (may be empty).
    pub variant: String,
    /// Synthetic dataset generator.
    pub spec: SynthSpec,
    /// Client partitioning.
    pub partition: Partition,
    /// Full simulation configuration (its `seed` is the grid's base
    /// seed; jobs override it per run).
    pub cfg: SimConfig,
    /// Method construction.
    pub run: CellRun,
    /// Device fleet selection.
    pub fleet: FleetSpec,
}

/// Per-job isolation options: when set, each `(cell, seed)` job gets
/// its own checkpoint subdirectory / trace file under these roots.
#[derive(Debug, Clone, Default)]
pub struct JobOpts {
    /// Root checkpoint directory (`--resume`).
    pub resume: Option<PathBuf>,
    /// Root trace directory (`--trace`).
    pub trace: Option<PathBuf>,
}

impl Cell {
    /// Starts a cell description; labels default from the arguments
    /// and can be refined with the builder methods.
    pub fn new(
        experiment: &'static str,
        raw_slug: &str,
        spec: SynthSpec,
        partition: Partition,
        cfg: SimConfig,
        run: CellRun,
    ) -> Self {
        Cell {
            experiment,
            slug: sanitize_slug(raw_slug),
            group: String::new(),
            model: String::new(),
            dataset: String::new(),
            partition_label: partition.to_string(),
            variant: String::new(),
            spec,
            partition,
            cfg,
            run,
            fleet: FleetSpec::Auto,
        }
    }

    /// Sets the comparison-panel key.
    pub fn group(mut self, group: impl Into<String>) -> Self {
        self.group = group.into();
        self
    }

    /// Sets the model label.
    pub fn model(mut self, model: impl Into<String>) -> Self {
        self.model = model.into();
        self
    }

    /// Sets the dataset label.
    pub fn dataset(mut self, dataset: impl Into<String>) -> Self {
        self.dataset = dataset.into();
        self
    }

    /// Sets the partition label (defaults to `partition.to_string()`).
    pub fn partition_label(mut self, label: impl Into<String>) -> Self {
        self.partition_label = label.into();
        self
    }

    /// Sets the experiment-specific axis label.
    pub fn variant(mut self, variant: impl Into<String>) -> Self {
        self.variant = variant.into();
        self
    }

    /// Trains on the paper's 17-device test-bed fleet.
    pub fn testbed(mut self) -> Self {
        self.fleet = FleetSpec::PaperTestbed;
        self
    }

    /// Method display name.
    pub fn method(&self) -> String {
        self.run.method_name()
    }

    /// Builds the cell's simulation at `seed`. Every random stream
    /// derives from the seed (data synthesis, fleet, run RNGs), so
    /// jobs at different seeds share nothing but the configuration
    /// shape.
    pub fn prepare(&self, seed: u64) -> Simulation {
        let cfg = self.cfg.with_seed(seed);
        let sim = Simulation::prepare(&cfg, &self.spec, self.partition);
        match self.fleet {
            FleetSpec::Auto => sim,
            FleetSpec::PaperTestbed => {
                let full = cfg.model.num_params(&cfg.model.full_plan());
                sim.with_fleet(paper_testbed(full, cfg.seed))
            }
        }
    }

    /// Runs the cell once at `seed` in full isolation: fresh
    /// environment, fresh scratch arena, and — when enabled — a
    /// private checkpoint directory and trace file named
    /// `<slug>-s<seed>`.
    pub fn execute(&self, seed: u64, opts: &JobOpts) -> RunResult {
        let store_slug = format!("{}-s{seed}", self.slug);
        let mut sim = self.prepare(seed);
        let tracer = opts.trace.as_ref().map(|dir| {
            let path = dir.join(format!("{store_slug}.jsonl"));
            let t = Arc::new(JsonlTracer::create(&path).expect("creating trace file"));
            sim.set_tracer(Arc::clone(&t) as Arc<dyn adaptivefl_core::trace::Tracer>);
            t
        });
        let kind = self.run.kind();
        let result = match &opts.resume {
            None => sim.run(kind),
            Some(dir) => {
                let mut store =
                    SnapshotStore::open(dir.join(&store_slug)).expect("opening checkpoint store");
                run_or_resume(
                    &mut sim,
                    kind,
                    &mut PerfectTransport,
                    &mut store,
                    CHECKPOINT_EVERY,
                )
                .expect("checkpointed run")
            }
        };
        finish_trace(tracer);
        result
    }

    /// A miniature copy for smoke tests and CI: TinyCnn at the cell's
    /// input/classes, 3 rounds, a handful of clients. Slugs and labels
    /// are kept so the sweep plumbing (stores, stats, verdicts) is
    /// exercised end-to-end; the resulting numbers are meaningless.
    pub fn shrink(mut self) -> Cell {
        self.cfg.model = ModelConfig {
            kind: ModelKind::TinyCnn,
            input: self.spec.input,
            classes: self.spec.classes,
            width_mult: 1.0,
        };
        self.cfg.rounds = 3;
        self.cfg.eval_every = 2;
        self.cfg.eval_batch = 32;
        self.cfg.p = self.cfg.p.min(2);
        self.cfg.local.epochs = 1;
        self.cfg.local.batch_size = 8;
        if self.fleet == FleetSpec::PaperTestbed {
            // The paper test-bed is exactly 17 devices.
            self.cfg.num_clients = 17;
            self.cfg.clients_per_round = 5;
        } else {
            self.cfg.num_clients = 10;
            self.cfg.clients_per_round = 4;
        }
        self.cfg.samples_per_client = 10;
        self.cfg.test_samples = 50;
        self
    }
}

/// Flushes a job's trace file and reports where it went.
fn finish_trace(tracer: Option<Arc<JsonlTracer>>) {
    if let Some(t) = tracer {
        t.flush().expect("flushing trace file");
        if t.had_errors() {
            eprintln!("warning: trace writes to {} failed", t.path().display());
        } else {
            println!("[traced {}]", t.path().display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syn_cifar10;

    fn quick_cell() -> Cell {
        let spec = crate::syn_cifar10();
        let cfg = SimConfig::quick_test(9).with_seed(9);
        let mut cfg = cfg;
        cfg.model.input = spec.input;
        cfg.model.classes = spec.classes;
        Cell::new(
            "table2",
            "test/Cell Slug",
            spec,
            Partition::Iid,
            cfg,
            CellRun::Kind(MethodKind::HeteroFl),
        )
        .group("g")
        .model("TinyCnn")
        .dataset("SynCIFAR-10")
    }

    #[test]
    fn slug_is_sanitized_and_labels_stick() {
        let c = quick_cell();
        assert_eq!(c.slug, "test-cell-slug");
        assert_eq!(c.method(), "HeteroFL");
        assert_eq!(c.partition_label, "IID");
        assert_eq!(c.model, "TinyCnn");
    }

    #[test]
    fn execute_is_seed_isolated_and_deterministic() {
        let c = quick_cell();
        let opts = JobOpts::default();
        let a1 = c.execute(11, &opts);
        let a2 = c.execute(11, &opts);
        let b = c.execute(12, &opts);
        assert_eq!(a1, a2, "same (cell, seed) must be bit-identical");
        assert_ne!(a1, b, "different seeds must differ");
    }

    #[test]
    fn shrink_produces_a_runnable_miniature() {
        let spec = syn_cifar10();
        let [(_, vgg), _] = crate::paper_models(spec.classes, spec.input);
        let cfg = crate::experiment_cfg_for(vgg, false, 5, false);
        let cell = Cell::new(
            "table2",
            "shrunk",
            spec,
            Partition::Dirichlet(0.6),
            cfg,
            CellRun::Kind(MethodKind::AdaptiveFl),
        )
        .shrink();
        assert_eq!(cell.cfg.rounds, 3);
        let r = cell.execute(7, &JobOpts::default());
        assert_eq!(r.rounds.len(), 3);
        assert!(!r.evals.is_empty());
    }
}
