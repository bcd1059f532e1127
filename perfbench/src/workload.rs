//! The three workloads: which cells they run, over which link, and how
//! one repetition is set up, run and checked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use adaptivefl_bench::sweep::record::fnv1a;
use adaptivefl_bench::sweep::{grids, run_parallel, Cell, CellRun};
use adaptivefl_comm::{FaultPlan, SimTransport};
use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::metrics::RunResult;
use adaptivefl_core::sim::{RunHooks, Simulation};
use adaptivefl_core::trace::Tracer;
use adaptivefl_core::transport::{PerfectTransport, Transport};
use adaptivefl_store::{run_or_resume, SnapshotStore};

use crate::spans::{since, Recorded, RunTracer};

/// Seed of every simulation (data, fleet, RL, faults): the seed of the
/// committed sweep records, so every run has a reference to match.
pub const SIM_SEED: u64 = 2024;

/// Workload names. `BENCHMARK.json` lists fig3-vgg16 and
/// testbed-faulty; resnet18-curve runs by hand (see README.md).
pub const NAMES: [&str; 3] = ["fig3-vgg16", "resnet18-curve", "testbed-faulty"];

/// Rounds of the resnet18-curve run (evaluated after every round).
const CURVE_ROUNDS: usize = 6;
/// Held-out samples the curve evaluates on.
const CURVE_TEST_SAMPLES: usize = 600;
/// Rounds of the testbed-faulty run.
const TESTBED_ROUNDS: usize = 6;
/// Executor threads of the faulty transport (the box has two cores).
const TESTBED_THREADS: usize = 2;
/// Simulated round deadline of the faulty transport, in seconds.
const TESTBED_DEADLINE_SECS: f64 = 1.0;
/// Rounds between checkpoints of the testbed-faulty run.
const CHECKPOINT_EVERY: usize = 2;

/// The link faults of testbed-faulty: every fault kind is on.
pub fn fault_plan() -> FaultPlan {
    FaultPlan {
        upload_drop: 0.1,
        straggler_prob: 0.2,
        crash_prob: 0.05,
        truncate_prob: 0.05,
        seed: 6,
        ..FaultPlan::default()
    }
}

/// How a workload's cells reach their clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Sequential lossless `PerfectTransport`.
    Perfect,
    /// `SimTransport` with the fault plan, a deadline and two threads.
    Faulty,
}

impl Link {
    fn transport(self) -> Box<dyn Transport> {
        match self {
            Link::Perfect => Box::new(PerfectTransport),
            Link::Faulty => Box::new(
                SimTransport::new()
                    .with_threads(TESTBED_THREADS)
                    .with_faults(fault_plan())
                    .with_deadline(TESTBED_DEADLINE_SECS),
            ),
        }
    }

    /// Client-training threads per cell run.
    pub fn threads(self) -> usize {
        match self {
            Link::Perfect => 1,
            Link::Faulty => TESTBED_THREADS,
        }
    }
}

/// One workload, fully resolved from its name and seeds.
pub struct Workload {
    pub name: &'static str,
    pub cells: Vec<Cell>,
    /// Cells run side by side (`run_parallel` width).
    pub jobs: usize,
    pub link: Link,
    /// Halt after this many rounds and finish in a fresh simulation.
    pub halt_after: Option<usize>,
}

fn kind_of(cell: &Cell) -> MethodKind {
    match cell.run {
        CellRun::Kind(k) => k,
        CellRun::AdaptiveCap(_) => unreachable!("benchmark cells run a MethodKind"),
    }
}

fn adaptive_only(cells: Vec<Cell>) -> Vec<Cell> {
    cells
        .into_iter()
        .filter(|c| c.run == CellRun::Kind(MethodKind::AdaptiveFl))
        .collect()
}

impl Workload {
    /// Resolves a workload. `seed` is the benchmark's input seed; here
    /// it picks the round after which testbed-faulty halts.
    pub fn new(name: &str, smoke: bool, seed: u64) -> Option<Self> {
        let shrink = |cells: Vec<Cell>| -> Vec<Cell> {
            if smoke {
                cells.into_iter().map(Cell::shrink).collect()
            } else {
                cells
            }
        };
        let (name, mut cells, jobs, link) = match name {
            "fig3-vgg16" => (
                NAMES[0],
                shrink(grids::fig3(false, SIM_SEED)),
                2,
                Link::Perfect,
            ),
            "resnet18-curve" => (
                NAMES[1],
                shrink(adaptive_only(grids::fig5(false, SIM_SEED))),
                1,
                Link::Perfect,
            ),
            "testbed-faulty" => (
                NAMES[2],
                shrink(adaptive_only(grids::fig6(false, SIM_SEED))),
                1,
                Link::Faulty,
            ),
            _ => return None,
        };
        let mut halt_after = None;
        for c in &mut cells {
            match name {
                "resnet18-curve" => {
                    if !smoke {
                        c.cfg.rounds = CURVE_ROUNDS;
                        c.cfg.test_samples = CURVE_TEST_SAMPLES;
                    }
                    c.cfg.eval_every = 1;
                }
                "testbed-faulty" => {
                    if !smoke {
                        c.cfg.rounds = TESTBED_ROUNDS;
                    }
                    halt_after = Some(1 + (seed % (c.cfg.rounds as u64 - 1)) as usize);
                }
                _ => {}
            }
        }
        Some(Workload {
            name,
            cells,
            jobs,
            link,
            halt_after,
        })
    }

    /// The AdaptiveFL cell: its accuracy and waste are the workload's
    /// headline numbers and the probes run on its model pool.
    pub fn main_cell(&self) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.run == CellRun::Kind(MethodKind::AdaptiveFl))
            .expect("every workload has an AdaptiveFL cell")
    }

    /// Builds every simulation one repetition needs (a second, fresh
    /// one per cell when the run halts and resumes) and instantiates
    /// each method once, as a run does before its first round.
    pub fn prepare(&self) -> Vec<Vec<Simulation>> {
        let per_cell = if self.halt_after.is_some() { 2 } else { 1 };
        self.cells
            .iter()
            .map(|cell| {
                (0..per_cell)
                    .map(|_| {
                        let sim = cell.prepare(SIM_SEED);
                        std::hint::black_box(kind_of(cell).instantiate(sim.env()));
                        sim
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs one repetition on prepared simulations, timed on `clock`.
    /// With `traced`, every run gets a [`RunTracer`] on that clock.
    pub fn run(
        &self,
        sims: Vec<Vec<Simulation>>,
        work: &Path,
        clock: Instant,
        traced: bool,
    ) -> Rep {
        let jobs: Vec<(usize, Mutex<Vec<Simulation>>)> =
            sims.into_iter().map(Mutex::new).enumerate().collect();
        let start = since(clock);
        let cells = run_parallel(&jobs, self.jobs, |_, (i, sims)| {
            let sims = std::mem::take(&mut *sims.lock().expect("simulation lock poisoned"));
            let cell = &self.cells[*i];
            let t0 = since(clock);
            let mut parts = Vec::new();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.run_cell(
                    cell,
                    sims,
                    &work.join(&cell.slug),
                    clock,
                    traced,
                    &mut parts,
                )
            }))
            .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(&*p))));
            CellRep {
                slug: cell.slug.clone(),
                start: t0,
                end: since(clock),
                parts,
                result: outcome,
            }
        });
        Rep {
            start,
            end: since(clock),
            cells,
        }
    }

    fn run_cell(
        &self,
        cell: &Cell,
        sims: Vec<Simulation>,
        store_dir: &Path,
        clock: Instant,
        traced: bool,
        parts: &mut Vec<Part>,
    ) -> Result<RunResult, String> {
        let kind = kind_of(cell);
        let epochs = cell.cfg.local.epochs;
        let mut traced_part =
            |sim: &mut Simulation,
             name: &'static str,
             body: &mut dyn FnMut(&mut Simulation) -> Result<Option<RunResult>, String>|
             -> Result<Option<RunResult>, String> {
                let tracer = traced.then(|| Arc::new(RunTracer::new(clock, epochs)));
                if let Some(t) = &tracer {
                    sim.set_tracer(Arc::clone(t) as Arc<dyn Tracer>);
                }
                let start = since(clock);
                let out = body(sim);
                parts.push(Part {
                    name,
                    start,
                    end: since(clock),
                    recorded: tracer.map(|t| t.take()),
                });
                out
            };
        let mut sims = sims.into_iter();
        let mut sim = sims.next().expect("a simulation per run");
        let Some(halt) = self.halt_after else {
            return traced_part(&mut sim, "run", &mut |sim| {
                Ok(Some(
                    sim.run_with_transport(kind, self.link.transport().as_mut()),
                ))
            })?
            .ok_or_else(|| "run did not finish".to_string());
        };
        let _ = std::fs::remove_dir_all(store_dir);
        let mut store = SnapshotStore::open(store_dir).map_err(|e| e.to_string())?;
        let halted = traced_part(&mut sim, "run", &mut |sim| {
            let hooks = RunHooks {
                checkpoint_every: CHECKPOINT_EVERY,
                sink: &mut store,
                halt_after: Some(halt),
            };
            sim.run_with_hooks(kind, self.link.transport().as_mut(), hooks)
                .map_err(|e| e.to_string())
        })?;
        if halted.is_some() {
            return Err(format!("halt after round {halt} did not stop the run"));
        }
        // The halted server is gone; a fresh one finishes the run.
        drop(sim);
        let mut fresh = sims.next().expect("a fresh simulation to resume in");
        let resumed = traced_part(&mut fresh, "resumed_run", &mut |sim| {
            run_or_resume(
                sim,
                kind,
                self.link.transport().as_mut(),
                &mut store,
                CHECKPOINT_EVERY,
            )
            .map(Some)
            .map_err(|e| e.to_string())
        })?;
        let _ = std::fs::remove_dir_all(store_dir);
        resumed.ok_or_else(|| "resumed run did not finish".to_string())
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

/// One timed run inside a cell (a cell that halts and resumes has two).
pub struct Part {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub recorded: Option<Recorded>,
}

/// One cell of one repetition.
pub struct CellRep {
    pub slug: String,
    pub start: u64,
    pub end: u64,
    pub parts: Vec<Part>,
    pub result: Result<RunResult, String>,
}

/// One repetition of a workload.
pub struct Rep {
    pub start: u64,
    pub end: u64,
    pub cells: Vec<CellRep>,
}

impl Rep {
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// The identity of a run, as the sweep records hash it.
pub fn digest(result: &RunResult) -> u64 {
    fnv1a(result.fingerprint().as_bytes())
}
