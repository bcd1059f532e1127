//! The AdaptiveFL federated-learning engine (DAC 2024 reproduction).
//!
//! This crate implements the paper's contribution and all the
//! comparison methods on top of the substrate crates:
//!
//! * [`pool`] — the fine-grained width-wise model pool
//!   (`Split(M)` of Algorithm 1): `2p+1` nested submodels across the
//!   Small / Medium / Large levels, each a `(r_w, I)` prune of the
//!   global model.
//! * [`prune`] — nested parameter extraction and the client-side
//!   available-resource-aware pruning (`argmax size ≤ Γ`).
//! * [`aggregate`] — heterogeneous aggregation (Algorithm 2):
//!   per-element data-size-weighted averaging with untouched elements
//!   keeping their previous value.
//! * [`rl`] — the curiosity table `T_c`, resource table `T_r`, reward
//!   functions and table updates of §3.3.
//! * [`select`] — client-selection strategies: the RL policy and the
//!   ablation variants (+Greed, +Random, +C, +S, +CS).
//! * [`methods`] — AdaptiveFL itself plus the four baselines
//!   (All-Large, Decoupled, HeteroFL, ScaleFL) behind one
//!   [`FlMethod`](methods::FlMethod) trait. A method supplies only its
//!   round hooks; its round, evaluation and capture/restore are derived
//!   from them once, and its name comes from
//!   [`MethodKind::name`](methods::MethodKind::name).
//! * [`sim`] — the round-loop simulator that produces the metrics the
//!   paper reports (accuracy per level, learning curves,
//!   communication-waste rate, simulated wall-clock).
//! * [`transport`] — the client↔server exchange abstraction every
//!   method routes through: [`PerfectTransport`] is the lossless
//!   default; the `adaptivefl-comm` crate provides a faulty,
//!   deadline-enforcing, parallel `SimTransport`.
//! * [`executor`] — the deterministic self-scheduling work pool behind
//!   every parallel phase: client jobs, evaluation units, sweep cells.
//! * [`checkpoint`] — crash-safe state capture: the [`MethodState`]
//!   every method captures and restores, [`ServerSnapshot`] frozen
//!   runs, and the [`SnapshotSink`] hook the `adaptivefl-store` crate
//!   plugs durable storage into; resumed runs are bit-identical to
//!   uninterrupted ones.
//! * [`trace`] — structured observability: the [`Tracer`] trait every
//!   phase of the round loop reports into, with the zero-overhead
//!   [`NoopTracer`] default; the `adaptivefl-trace` crate provides
//!   recording/JSONL implementations and the report renderer. Traced
//!   runs are bit-identical to untraced ones.
//!
//! # Example
//!
//! ```no_run
//! use adaptivefl_core::sim::{SimConfig, Simulation};
//! use adaptivefl_core::methods::MethodKind;
//! use adaptivefl_data::{Partition, SynthSpec};
//!
//! let cfg = SimConfig::quick_test(42);
//! let mut sim = Simulation::prepare(
//!     &cfg,
//!     &SynthSpec::cifar10_like(),
//!     Partition::Dirichlet(0.6),
//! );
//! let result = sim.run(MethodKind::AdaptiveFl);
//! println!("final accuracy: {:.2}%", 100.0 * result.final_full_accuracy());
//! ```

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod checkpoint;
pub mod compress;
pub mod error;
pub mod executor;
pub mod methods;
pub mod metrics;
pub mod pool;
pub mod prune;
pub mod rl;
pub mod select;
pub mod sim;
pub mod trace;
pub mod trainer;
pub mod transport;

pub use checkpoint::{MemorySink, MethodState, ServerSnapshot, SnapshotSink};
pub use error::CoreError;
pub use pool::{Level, ModelPool, PoolEntry};
pub use trace::{NoopTracer, Phase, PhaseTimer, TraceEvent, Tracer};
pub use transport::{CommStats, PerfectTransport, Transport};
