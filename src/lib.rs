//! # AdaptiveFL
//!
//! A pure-Rust reproduction of **"AdaptiveFL: Adaptive Heterogeneous
//! Federated Learning for Resource-Constrained AIoT Systems"**
//! (Jia et al., DAC 2024): fine-grained width-wise model pruning,
//! RL-based client selection, and heterogeneous model aggregation, plus
//! the four baselines the paper compares against (All-Large, Decoupled,
//! HeteroFL, ScaleFL) and everything underneath — tensors, neural
//! networks with manual backprop, a width-configurable model zoo,
//! synthetic federated datasets, and an AIoT device simulator.
//!
//! This facade crate re-exports the workspace's public API under one
//! namespace:
//!
//! * [`tensor`] — dense f32 tensors and kernels,
//! * [`nn`] — layers, losses, SGD, named parameter maps,
//! * [`models`] — VGG16 / ResNet18 / MobileNetV2 / TinyCnn with width
//!   plans,
//! * [`data`] — synthetic federated datasets and partitioners,
//! * [`device`] — heterogeneous device simulation,
//! * [`core`] — the AdaptiveFL engine and baselines,
//! * [`comm`] — simulated transport: wire encoding, fault injection,
//!   round deadlines, parallel client execution,
//! * [`store`] — crash-safe checkpointing: CRC-checked snapshot files,
//!   atomic writes, retention, deterministic resume.
//!
//! # Quickstart
//!
//! ```no_run
//! use adaptivefl::core::methods::MethodKind;
//! use adaptivefl::core::sim::{SimConfig, Simulation};
//! use adaptivefl::data::{Partition, SynthSpec};
//!
//! let cfg = SimConfig::quick_test(42);
//! let mut sim = Simulation::prepare(
//!     &cfg,
//!     &SynthSpec::test_spec(4),
//!     Partition::Dirichlet(0.6),
//! );
//! let result = sim.run(MethodKind::AdaptiveFl);
//! println!("AdaptiveFL reached {:.1}%", 100.0 * result.final_full_accuracy());
//! ```
//!
//! (The dataset spec and `cfg.model` must agree in classes and input
//! shape; `SimConfig::quick_test` is pre-matched to
//! `SynthSpec::test_spec(4)` with an 8×8 input.)
//!
//! See `examples/` for runnable end-to-end scenarios and the
//! `adaptivefl-bench` crate for the experiment grids and the `sweep`
//! binary that regenerates every table and figure of the paper.

/// Simulated federated transport: wire messages, fault injection,
/// round deadlines, parallel client execution.
pub use adaptivefl_comm as comm;
/// The AdaptiveFL engine: pool, pruning, RL selection, aggregation,
/// methods, simulator.
pub use adaptivefl_core as core;
/// Synthetic federated datasets and partitioners.
pub use adaptivefl_data as data;
/// Heterogeneous AIoT device simulation.
pub use adaptivefl_device as device;
/// Width-configurable model zoo.
pub use adaptivefl_models as models;
/// Neural-network substrate.
pub use adaptivefl_nn as nn;
/// Crash-safe snapshot persistence and deterministic resume.
pub use adaptivefl_store as store;
/// Tensor substrate.
pub use adaptivefl_tensor as tensor;
/// Structured tracing: recording/JSONL tracers and trace reports.
pub use adaptivefl_trace as trace;
