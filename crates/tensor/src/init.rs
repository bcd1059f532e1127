//! Weight initialisers (Kaiming / normal / uniform).
//!
//! All initialisers take an explicit RNG so every experiment in the
//! workspace is exactly reproducible from its seed.

use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};

use crate::Tensor;

/// Kaiming (He) uniform initialisation for ReLU networks:
/// `U(−√(6/fan_in), √(6/fan_in))`.
///
/// `fan_in` for a conv weight `[out, in, kh, kw]` is `in·kh·kw`.
///
/// It draws exactly one `next_u32` word per element, in element order.
/// That is a contract: a network loaded from server weights builds
/// with zeros and skips the job RNG by the element count instead of
/// drawing (`ChaCha8Rng::skip_words`), and ends in the same stream
/// position as a Kaiming build.
pub fn kaiming_uniform(shape: &[usize], fan_in: usize, rng: &mut impl Rng) -> Tensor {
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    uniform(shape, -bound, bound, rng)
}

/// I.i.d. normal initialisation with the given standard deviation.
pub fn normal(shape: &[usize], std: f32, rng: &mut impl Rng) -> Tensor {
    let dist = Normal::new(0.0f32, std.max(f32::MIN_POSITIVE)).expect("std must be positive");
    let numel = shape.iter().product();
    Tensor::from_vec((0..numel).map(|_| dist.sample(rng)).collect(), shape)
}

/// I.i.d. uniform initialisation on `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
    assert!(lo <= hi, "uniform bounds inverted");
    let dist = Uniform::new_inclusive(lo, hi);
    let numel = shape.iter().product();
    Tensor::from_vec((0..numel).map(|_| dist.sample(rng)).collect(), shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn kaiming_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let t = kaiming_uniform(&[64, 32, 3, 3], 32 * 9, &mut rng);
        let bound = (6.0f32 / (32.0 * 9.0)).sqrt();
        assert!(t.as_slice().iter().all(|&x| x.abs() <= bound + 1e-6));
        // Not degenerate.
        assert!(t.as_slice().iter().any(|&x| x.abs() > bound * 0.1));
    }

    #[test]
    fn kaiming_draws_one_word_per_element() {
        let shapes: [&[usize]; 6] = [&[0], &[1], &[7], &[10, 3], &[16, 3, 3, 3], &[5, 1, 3, 3]];
        for (skew, shape) in shapes.into_iter().enumerate() {
            let mut drawn = ChaCha8Rng::seed_from_u64(skew as u64);
            for _ in 0..skew * 5 {
                drawn.next_u32();
            }
            let mut skipped = drawn.clone();
            let t = kaiming_uniform(shape, 9, &mut drawn);
            skipped.skip_words(t.numel() as u64);
            assert_eq!(drawn.state_words(), skipped.state_words(), "{shape:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(42);
        let mut r2 = ChaCha8Rng::seed_from_u64(42);
        assert_eq!(normal(&[10], 0.1, &mut r1), normal(&[10], 0.1, &mut r2));
    }

    #[test]
    fn normal_has_roughly_right_std() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = normal(&[10_000], 0.5, &mut rng);
        let mean = t.mean();
        let var = t.as_slice().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {}", var.sqrt());
    }
}
