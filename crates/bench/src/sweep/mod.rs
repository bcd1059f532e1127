//! The parallel multi-seed sweep engine — the only way experiments
//! run.
//!
//! At this scale run-to-run noise on a single cell is several accuracy
//! points, so every experiment is measured as `cells × seeds` jobs:
//!
//! * [`grids`] exposes every experiment's cell grid as data;
//! * [`scheduler`] fans the jobs out over worker threads that pull
//!   from a shared atomic queue; every job is fully isolated (own
//!   environment, own RNG streams derived from its seed, own scratch
//!   arena, optional private checkpoint dir and trace file), so a
//!   sweep's per-`(cell, seed)` results are byte-identical at any
//!   thread count — `tests/sweep_determinism.rs` asserts it;
//! * [`record`] + [`io`] persist one JSON record per `(cell, seed)`
//!   under `results/sweep/<slug>/<seed>.json`;
//! * [`stats`] aggregates mean / std / 95 % CI per cell and provides
//!   the paired sign test;
//! * [`verdicts`] re-evaluates every EXPERIMENTS.md claim as a
//!   machine-checkable statistical verdict (`verdicts.json`);
//! * [`report`] renders the statistics and verdicts as markdown
//!   (`results/SUMMARY.md`).
//!
//! Run it with the `sweep` binary:
//!
//! ```text
//! cargo run --release -p adaptivefl-bench --bin sweep -- --seeds 3 --jobs 8
//! ```

pub mod cell;
pub mod grids;
pub mod io;
pub mod record;
pub mod report;
pub mod scheduler;
pub mod stats;
pub mod verdicts;

pub use cell::{Cell, CellRun, FleetSpec, JobOpts};
pub use io::{read_records, write_record};
pub use record::{CellRecord, CurvePoint};
pub use scheduler::run_parallel;
pub use stats::{summarize_cells, CellSummary, SampleStats, SignTest};
pub use verdicts::{evaluate_claims, ClaimOutcome, VerdictsFile};
