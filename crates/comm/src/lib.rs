//! adaptivefl-comm: simulated federated transport for AdaptiveFL.
//!
//! The core crate's [`Transport`](adaptivefl_core::Transport) trait
//! abstracts the client↔server exchange; this crate supplies the
//! realistic implementation:
//!
//! - [`wire`] — the binary [`UpdateUp`] uplink frame: lossless dense
//!   `f32` payloads and panic-free decoding.
//! - [`faults`] — a seeded [`FaultPlan`] injecting upload drops,
//!   stragglers, client crashes and payload truncation per link.
//! - [`executor`] — client jobs on the core's self-scheduling
//!   [`executor`](adaptivefl_core::executor) with per-client derived RNG
//!   streams, largest download first; deterministic at any thread
//!   count.
//! - [`transport`] — [`SimTransport`], tying the above together with
//!   round-deadline semantics (late uploads are wasted communication
//!   and count as training failures toward AdaptiveFL's `T_r` table).
//!
//! The default transport everywhere remains
//! [`PerfectTransport`](adaptivefl_core::PerfectTransport), which
//! reproduces the pre-transport simulation bit for bit; `SimTransport`
//! is opt-in via
//! [`Simulation::run_with_transport`](adaptivefl_core::sim::Simulation::run_with_transport).

#![forbid(unsafe_code)]

pub mod executor;
pub mod faults;
pub mod transport;
pub mod wire;

pub use faults::{FaultDraw, FaultPlan};
pub use transport::SimTransport;
pub use wire::{UpdateUp, WireCodec};
