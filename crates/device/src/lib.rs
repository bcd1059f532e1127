//! AIoT device simulation: heterogeneous resource classes, dynamic
//! resource fluctuation, and a latency model calibrated to the paper's
//! real test-bed (Raspberry Pi 4B / Jetson Nano / Jetson Xavier AGX).
//!
//! The paper's devices differ in (a) how large a model they can hold
//! and train (memory capacity `Γ`, expressed here as a fraction of the
//! full global model's parameter count) and (b) how fast they compute
//! and communicate. The FL engine only queries
//! [`DeviceSim::capacity_at`] and the latency functions, so swapping in
//! a real device fleet later only requires re-implementing this crate.
//!
//! # Example
//!
//! ```
//! use adaptivefl_device::{DeviceClass, DeviceFleet, ResourceDynamics};
//!
//! let fleet = DeviceFleet::with_proportions(10, (4, 3, 3), 1_000_000,
//!     ResourceDynamics::Static, 7);
//! assert_eq!(fleet.len(), 10);
//! assert_eq!(fleet.class_counts(), (4, 3, 3));
//! let _ = DeviceClass::Weak.capacity_fraction();
//! ```

#![forbid(unsafe_code)]

mod dynamics;
mod fleet;
mod latency;
mod profile;
pub mod testbed;

pub use dynamics::ResourceDynamics;
pub use fleet::DeviceFleet;
pub use latency::LatencyModel;
pub use profile::{DeviceClass, DeviceSim};
