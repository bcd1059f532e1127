//! `adaptivefl-trace`: tracer implementations and trace tooling for
//! the AdaptiveFL simulator.
//!
//! The [`Tracer`] trait and the zero-overhead `NoopTracer` default
//! live in `adaptivefl-core` (`core::trace`); this crate supplies
//! everything that actually records:
//!
//! * [`RecordingTracer`] — in-memory capture of events plus a
//!   count/total/min/max [`DurationHistogram`] per phase; the
//!   workhorse of tests and ad-hoc analysis.
//! * [`JsonlTracer`] — streams one flat JSON object per signal to a
//!   `.jsonl` file (best-effort I/O: disk trouble never perturbs the
//!   run).
//! * [`jsonl`] — the lossless line codec ([`encode_line`] /
//!   [`parse_line`]), re-exported from `adaptivefl-core`
//!   (`core::trace::jsonl`), where it sits beside [`TraceEvent`]: the
//!   derived `Serialize` writes each line and `serde_json` reads it
//!   back, bit-exact for every float (proptested).
//! * [`TraceReport`] — folds parsed lines into the per-phase wall-time
//!   breakdown and per-layer Algorithm-2 coverage table the
//!   `trace_report` bench bin prints.
//!
//! The determinism contract: tracers observe, they never feed back.
//! A traced run's `RunResult` fingerprint is bit-identical to an
//! untraced one for every method kind, under both the perfect and the
//! faulty parallel transport — asserted in `tests/determinism.rs`.
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use adaptivefl_core::methods::MethodKind;
//! use adaptivefl_core::sim::{SimConfig, Simulation};
//! use adaptivefl_data::{Partition, SynthSpec};
//! use adaptivefl_trace::{JsonlTracer, TraceReport};
//!
//! let cfg = SimConfig::quick_test(42);
//! let mut sim = Simulation::prepare(
//!     &cfg,
//!     &SynthSpec::cifar10_like(),
//!     Partition::Dirichlet(0.6),
//! );
//! sim.set_tracer(Arc::new(JsonlTracer::create("run.jsonl").unwrap()));
//! let result = sim.run(MethodKind::AdaptiveFl);
//!
//! let lines = adaptivefl_trace::read_trace("run.jsonl").unwrap();
//! println!("{}", TraceReport::from_lines(&lines).render());
//! ```

#![forbid(unsafe_code)]

pub mod record;
pub mod report;
pub mod writer;

pub use adaptivefl_core::trace::jsonl;
pub use jsonl::{encode_line, parse_document, parse_line, ParseError, TraceLine};
pub use record::{DurationHistogram, RecordingTracer};
pub use report::{fmt_nanos, LayerCoverage, TraceReport};
pub use writer::{read_trace, JsonlTracer};

// Re-export the core trait + default so downstream code can depend on
// this crate alone for tracing.
pub use adaptivefl_core::trace::{NoopTracer, Phase, PhaseTimer, TraceEvent, Tracer};
