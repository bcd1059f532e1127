//! [`DeviceFleet`]: the set of simulated devices in one experiment.

use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::dynamics::ResourceDynamics;
use crate::profile::{DeviceClass, DeviceSim};

/// A fleet of simulated AIoT devices, built from a weak:medium:strong
/// proportion (the paper's default is 4:3:3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceFleet {
    devices: Vec<DeviceSim>,
}

impl DeviceFleet {
    /// Builds a fleet from explicit devices.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn new(devices: Vec<DeviceSim>) -> Self {
        assert!(!devices.is_empty(), "fleet needs devices");
        DeviceFleet { devices }
    }

    /// Builds `n` devices in the given weak:medium:strong proportion,
    /// each sized against `full_model_params`, shuffled
    /// deterministically by `seed` so class is uncorrelated with id.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the proportion sums to zero.
    pub fn with_proportions(
        n: usize,
        proportion: (usize, usize, usize),
        full_model_params: u64,
        dynamics: ResourceDynamics,
        seed: u64,
    ) -> Self {
        assert!(n > 0, "fleet needs devices");
        let (pw, pm, ps) = proportion;
        let total = pw + pm + ps;
        assert!(total > 0, "proportion must be non-zero");
        let n_weak = n * pw / total;
        let n_med = n * pm / total;
        let mut classes = Vec::with_capacity(n);
        classes.extend(std::iter::repeat_n(DeviceClass::Weak, n_weak));
        classes.extend(std::iter::repeat_n(DeviceClass::Medium, n_med));
        classes.extend(std::iter::repeat_n(DeviceClass::Strong, n - n_weak - n_med));
        let mut rng = adaptivefl_tensor_seed(seed);
        classes.shuffle(&mut rng);
        let devices = classes
            .into_iter()
            .enumerate()
            .map(|(id, class)| DeviceSim::from_class(id, class, full_model_params, dynamics, seed))
            .collect();
        DeviceFleet { devices }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Returns `true` if the fleet is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device with index `id`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn device(&self, id: usize) -> &DeviceSim {
        &self.devices[id]
    }

    /// Iterates over all devices.
    pub fn iter(&self) -> impl Iterator<Item = &DeviceSim> {
        self.devices.iter()
    }

    /// Count of devices per class `(weak, medium, strong)`.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.devices {
            match d.class() {
                DeviceClass::Weak => c.0 += 1,
                DeviceClass::Medium => c.1 += 1,
                DeviceClass::Strong => c.2 += 1,
            }
        }
        c
    }
}

fn adaptivefl_tensor_seed(seed: u64) -> rand_chacha::ChaCha8Rng {
    use rand::SeedableRng;
    rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x1D3A_F00D)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportions_are_respected() {
        let fleet =
            DeviceFleet::with_proportions(100, (4, 3, 3), 1_000_000, ResourceDynamics::Static, 1);
        assert_eq!(fleet.class_counts(), (40, 30, 30));
    }

    #[test]
    fn extreme_proportions() {
        let fleet =
            DeviceFleet::with_proportions(10, (8, 1, 1), 1_000_000, ResourceDynamics::Static, 2);
        let (w, m, s) = fleet.class_counts();
        assert_eq!(w, 8);
        assert_eq!(m + s, 2);
    }

    #[test]
    fn ids_are_sequential() {
        let fleet = DeviceFleet::with_proportions(5, (1, 1, 1), 100, ResourceDynamics::Static, 3);
        for (i, d) in fleet.iter().enumerate() {
            assert_eq!(d.id(), i);
        }
    }

    #[test]
    fn classes_are_shuffled_by_seed() {
        let order = |seed: u64| -> Vec<DeviceClass> {
            DeviceFleet::with_proportions(30, (1, 1, 1), 100, ResourceDynamics::Static, seed)
                .iter()
                .map(|d| d.class())
                .collect()
        };
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
    }
}
