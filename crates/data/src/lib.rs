//! Synthetic federated datasets and non-IID partitioners.
//!
//! The paper evaluates on CIFAR-10, CIFAR-100, FEMNIST and Widar. Those
//! datasets cannot be shipped here, so this crate provides procedural
//! stand-ins with the *same federation topology*: controllable class
//! structure (smooth class prototypes + noise + per-sample distortion),
//! IID and Dirichlet-α label partitions, a writer-style naturally
//! non-IID split (FEMNIST), and a device-conditioned gesture set
//! (Widar). The FL methods under study only interact with the data
//! through loss gradients and label skew, which these generators
//! reproduce.
//!
//! # Example
//!
//! ```
//! use adaptivefl_data::{FederatedDataset, SynthSpec, Partition};
//!
//! let fed = FederatedDataset::synthesize(
//!     &SynthSpec::cifar10_like(),
//!     20,                    // clients
//!     30,                    // train samples per client
//!     200,                   // test samples
//!     Partition::Dirichlet(0.6),
//!     42,
//! );
//! assert_eq!(fed.num_clients(), 20);
//! assert!(fed.client(0).len() > 0);
//! ```

#![forbid(unsafe_code)]

mod dataset;
mod federated;
mod partition;
pub mod synth;

pub use dataset::{Batch, InMemoryDataset};
pub use federated::FederatedDataset;
pub use partition::{dirichlet_partition, iid_partition, shard_histogram, Partition};
pub use synth::{SynthSpec, SynthTask};
