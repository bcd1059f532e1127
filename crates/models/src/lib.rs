//! Width-configurable model zoo for the AdaptiveFL reproduction.
//!
//! Every architecture (VGG16, ResNet18, MobileNetV2, and a fast
//! `TinyCnn`) is described by a [`Blueprint`]: a list
//! of named block specifications generated from a [`WidthPlan`]. From
//! one blueprint the crate derives, consistently by construction:
//!
//! * an executable [`Network`] (forward/backward),
//! * the named parameter shape table used by the federated engine for
//!   nested extraction and aggregation,
//! * exact `#params` / `#FLOPs` counts (Table 1 of the paper).
//!
//! The paper's fine-grained width-wise pruning maps onto
//! [`PruneSpec`]`{ r_w, start_unit }`: prunable units (conv layers /
//! residual blocks) with index `> start_unit` keep a `r_w` fraction of
//! their channels, everything up to and including `start_unit` stays at
//! full width.
//!
//! # Example
//!
//! ```
//! use adaptivefl_models::{ModelConfig, ModelKind, PruneSpec};
//!
//! let cfg = ModelConfig::vgg16_cifar();
//! let full = cfg.plan(&PruneSpec::full());
//! let small = cfg.plan(&PruneSpec::new(0.40, 8));
//! assert!(cfg.num_params(&small) < cfg.num_params(&full) / 3);
//! ```

pub mod block;
pub mod config;
pub mod cost;
pub mod families;
pub mod network;
pub mod plan;

pub use block::{Block, Blueprint, ConvSpec, LinearSpec};
pub use config::{ModelConfig, ModelKind};
pub use network::Network;
pub use plan::{PruneSpec, WidthPlan};
