//! Evaluation metrics.

use adaptivefl_tensor::Tensor;

/// Top-1 accuracy of `logits` (`[n, classes]`) against integer labels.
///
/// Returns a value in `[0, 1]`; 0 for an empty batch.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let s = logits.shape();
    assert_eq!(s.len(), 2, "logits must be [n, classes]");
    let (n, k) = (s[0], s[1]);
    assert_eq!(labels.len(), n, "label count mismatch");
    if n == 0 {
        return 0.0;
    }
    let mut correct = 0usize;
    for (r, &y) in labels.iter().enumerate() {
        let row = &logits.as_slice()[r * k..(r + 1) * k];
        let mut best = 0usize;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        if best == y {
            correct += 1;
        }
    }
    correct as f32 / n as f32
}

/// Streaming mean of a scalar metric (used to average loss/accuracy
/// over many mini-batches without storing them).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    sum: f64,
    weight: f64,
}

impl RunningMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation with the given weight (e.g. batch size).
    pub fn add(&mut self, value: f32, weight: f32) {
        self.sum += f64::from(value) * f64::from(weight);
        self.weight += f64::from(weight);
    }

    /// Current mean; 0.0 when nothing has been added.
    pub fn mean(&self) -> f32 {
        if self.weight == 0.0 {
            0.0
        } else {
            (self.sum / self.weight) as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Tensor::from_vec(vec![2.0, 1.0, 0.0, 5.0, 1.0, 1.5], &[3, 2]);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 2.0 / 3.0);
    }

    #[test]
    fn accuracy_empty_batch_is_zero() {
        let logits = Tensor::zeros(&[0, 4]);
        assert_eq!(accuracy(&logits, &[]), 0.0);
    }

    #[test]
    fn running_mean_is_weighted() {
        let mut m = RunningMean::new();
        m.add(1.0, 1.0);
        m.add(0.0, 3.0);
        assert!((m.mean() - 0.25).abs() < 1e-6);
    }
}
