//! Neural-network substrate: layers with manual backprop, losses, an
//! SGD optimizer, and the named-parameter map that federated learning
//! exchanges between server and clients.
//!
//! The design is deliberately simple — each [`Layer`]
//! caches what its backward pass needs during `forward`, and parameters
//! are addressed by hierarchical string names (`"features.3.weight"`),
//! which is the identity the AdaptiveFL aggregation algorithm operates
//! on.
//!
//! # Example
//!
//! ```
//! use adaptivefl_nn::layer::{Layer, LayerExt};
//! use adaptivefl_nn::layers::{Linear, Relu};
//! use adaptivefl_tensor::{rng, Tensor};
//!
//! let mut r = rng::seeded(0);
//! let mut fc = Linear::new(4, 2, &mut r);
//! let mut act = Relu::new();
//! let y = act.forward(fc.forward(Tensor::zeros(&[3, 4]), false), false);
//! assert_eq!(y.shape(), &[3, 2]);
//! let params = fc.param_map();
//! assert_eq!(params.names().collect::<Vec<_>>(), ["bias", "weight"]);
//! ```

pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod optim;
pub mod param;

pub use layer::{Layer, ParamKind, ParamVisitor, ParamVisitorMut};
pub use param::ParamMap;
