//! Deterministic RNG helpers.
//!
//! Every stochastic component of the workspace (weight init, data
//! synthesis, client sampling, RL selection) derives its randomness from
//! a [`ChaCha8Rng`] seeded here, so whole experiments replay bit-for-bit
//! from a single `u64` seed.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Creates the workspace-standard deterministic RNG from a seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
///
/// let mut a = adaptivefl_tensor::rng::seeded(9);
/// let mut b = adaptivefl_tensor::rng::seeded(9);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives a child RNG from a parent seed and a stream label, so
/// independent components (e.g. "data", "init", "selection") never share
/// a random stream even when built from the same experiment seed.
pub fn derived(seed: u64, stream: &str) -> ChaCha8Rng {
    // FNV-1a over the label, folded into the seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    ChaCha8Rng::seed_from_u64(seed ^ h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    #[test]
    fn derived_streams_differ() {
        let mut a = derived(1, "data");
        let mut b = derived(1, "init");
        let va: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_is_deterministic() {
        let mut a = derived(5, "selection");
        let mut b = derived(5, "selection");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    /// Asserts that skipping `n` words leaves `rng` in exactly the
    /// state of `n` draws, buffered block and index included.
    fn assert_skip_matches_draws(rng: &ChaCha8Rng, n: u64) {
        let mut drawn = rng.clone();
        for _ in 0..n {
            drawn.next_u32();
        }
        let mut skipped = rng.clone();
        skipped.skip_words(n);
        assert_eq!(
            skipped.state_words(),
            drawn.state_words(),
            "skip of {n} from {:?}",
            rng.state_words()
        );
    }

    #[test]
    fn skip_words_equals_draws_from_every_offset() {
        let mut rng = seeded(17);
        for _start in 0..40 {
            for n in 0..100 {
                assert_skip_matches_draws(&rng, n);
            }
            rng.next_u32();
        }
    }

    #[test]
    fn skip_words_carries_the_block_counter() {
        let base = seeded(23).state_words();
        for hi in [0, u32::MAX] {
            for lo in u32::MAX - 3..=u32::MAX {
                for idx in [0, 5, 16] {
                    let mut words = base;
                    words[12] = lo;
                    words[13] = hi;
                    words[32] = idx;
                    let rng = ChaCha8Rng::from_state_words(&words).expect("valid index");
                    for n in 0..100 {
                        assert_skip_matches_draws(&rng, n);
                    }
                }
            }
        }
    }
}
