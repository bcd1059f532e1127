//! Device classes and per-device simulation state.

use serde::{Deserialize, Serialize};

use crate::dynamics::ResourceDynamics;
use crate::latency::LatencyModel;

/// The paper's three device classes (Table 5): weak devices can only
/// train small models, medium devices small or medium models, strong
/// devices any model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// e.g. Raspberry Pi 4B — fits only S-level models.
    Weak,
    /// e.g. Jetson Nano — fits S and M.
    Medium,
    /// e.g. Jetson Xavier AGX — fits everything.
    Strong,
}

impl DeviceClass {
    /// Baseline capacity as a fraction of the full model's parameter
    /// count. Chosen so that, with the paper's level ratios
    /// (L=1.0, M≈0.5, S≈0.25), weak fits only S, medium fits S/M, and
    /// strong fits all levels.
    pub fn capacity_fraction(self) -> f64 {
        match self {
            DeviceClass::Weak => 0.30,
            DeviceClass::Medium => 0.55,
            DeviceClass::Strong => 1.05,
        }
    }

    /// Default latency profile for the class (see
    /// [`testbed`](crate::testbed) for calibrated presets).
    pub fn default_latency(self) -> LatencyModel {
        match self {
            DeviceClass::Weak => LatencyModel::new(5.0e9, 6.0e6),
            DeviceClass::Medium => LatencyModel::new(4.0e10, 12.0e6),
            DeviceClass::Strong => LatencyModel::new(3.0e11, 25.0e6),
        }
    }
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceClass::Weak => "weak",
            DeviceClass::Medium => "medium",
            DeviceClass::Strong => "strong",
        };
        f.write_str(s)
    }
}

/// One simulated AIoT device.
///
/// The capacity at round `t` is `base · fluctuation(t)`, where the
/// fluctuation is produced deterministically by the device's
/// [`ResourceDynamics`] — the FL server never reads it directly (the
/// paper's privacy constraint); only the client-side pruning does.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceSim {
    id: usize,
    class: DeviceClass,
    base_capacity: u64,
    dynamics: ResourceDynamics,
    latency: LatencyModel,
    seed: u64,
}

impl DeviceSim {
    /// Creates a device with an explicit base capacity (in parameter
    /// elements).
    pub fn new(
        id: usize,
        class: DeviceClass,
        base_capacity: u64,
        dynamics: ResourceDynamics,
        seed: u64,
    ) -> Self {
        DeviceSim {
            id,
            class,
            base_capacity,
            dynamics,
            latency: class.default_latency(),
            seed,
        }
    }

    /// Creates a device whose capacity is the class fraction of
    /// `full_model_params`.
    pub fn from_class(
        id: usize,
        class: DeviceClass,
        full_model_params: u64,
        dynamics: ResourceDynamics,
        seed: u64,
    ) -> Self {
        let cap = (full_model_params as f64 * class.capacity_fraction()).round() as u64;
        Self::new(id, class, cap, dynamics, seed)
    }

    /// Overrides the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Device identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Device class.
    pub fn class(&self) -> DeviceClass {
        self.class
    }

    /// Baseline capacity in parameter elements.
    pub fn base_capacity(&self) -> u64 {
        self.base_capacity
    }

    /// The latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Available capacity (parameter elements) at round `t` — the `Γ`
    /// of the paper's available-resource-aware pruning.
    pub fn capacity_at(&self, round: usize) -> u64 {
        let f = self
            .dynamics
            .factor(self.seed ^ (self.id as u64).wrapping_mul(0x9E37), round);
        (self.base_capacity as f64 * f).round() as u64
    }

    /// Wall-clock seconds to train locally (`macs` MACs total over all
    /// samples/epochs) and exchange `bytes_down + bytes_up` bytes.
    pub fn round_time(&self, macs: u64, bytes_down: u64, bytes_up: u64) -> f64 {
        self.latency.compute_secs(macs) + self.latency.comm_secs(bytes_down + bytes_up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_fractions_are_ordered() {
        assert!(DeviceClass::Weak.capacity_fraction() < DeviceClass::Medium.capacity_fraction());
        assert!(DeviceClass::Medium.capacity_fraction() < DeviceClass::Strong.capacity_fraction());
    }

    #[test]
    fn static_capacity_is_constant() {
        let d = DeviceSim::from_class(
            3,
            DeviceClass::Medium,
            1_000_000,
            ResourceDynamics::Static,
            5,
        );
        assert_eq!(d.capacity_at(0), d.capacity_at(17));
        assert_eq!(d.capacity_at(0), 550_000);
    }

    #[test]
    fn strong_fits_full_model() {
        let d = DeviceSim::from_class(
            0,
            DeviceClass::Strong,
            1_000_000,
            ResourceDynamics::Static,
            5,
        );
        assert!(d.capacity_at(0) >= 1_000_000);
    }

    #[test]
    fn round_time_monotone_in_work() {
        let d = DeviceSim::from_class(0, DeviceClass::Weak, 1000, ResourceDynamics::Static, 1);
        assert!(d.round_time(2_000_000, 1000, 1000) > d.round_time(1_000_000, 1000, 1000));
        assert!(d.round_time(1_000_000, 2000, 2000) > d.round_time(1_000_000, 1000, 1000));
    }
}
