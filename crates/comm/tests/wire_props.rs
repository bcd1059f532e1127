//! Property tests for the wire codec: dense frames round-trip
//! arbitrary parameter maps bit-for-bit, and any truncation of a valid
//! frame is a decode error — never a panic.

use adaptivefl_comm::wire::{self, UpdateUp, WireCodec};
use adaptivefl_nn::ParamMap;
use adaptivefl_tensor::Tensor;
use proptest::prelude::*;

/// SplitMix64 step — a cheap deterministic value stream per drawn seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds a map from drawn raw parts: one tensor per `(d0, d1, seed)`
/// triple, filled with arbitrary `f32` bit patterns (NaNs and
/// infinities included — the dense codec must carry them unchanged).
fn build_map(tensors: &[(usize, usize, u64)]) -> ParamMap {
    let mut map = ParamMap::new();
    for (i, &(d0, d1, seed)) in tensors.iter().enumerate() {
        let mut state = seed;
        let data: Vec<f32> = (0..d0 * d1)
            .map(|_| f32::from_bits(splitmix(&mut state) as u32))
            .collect();
        map.insert(format!("layer{i}.w"), Tensor::from_vec(data, &[d0, d1]));
    }
    map
}

/// Bitwise map equality — `==` on `f32` would reject NaN payloads that
/// the codec in fact preserved exactly.
fn bits_equal(a: &ParamMap, b: &ParamMap) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((an, at), (bn, bt))| {
            an == bn
                && at.shape() == bt.shape()
                && at
                    .as_slice()
                    .iter()
                    .zip(bt.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_update_roundtrips_bit_exactly(
        tensors in prop::collection::vec((1usize..6, 1usize..8, 0u64..u64::MAX), 1..5),
        round in 0u32..10_000,
        client in 0u32..10_000,
        data_size in 0u32..100_000,
    ) {
        let msg = UpdateUp { round, client, data_size, params: build_map(&tensors) };
        let frame = wire::encode_update_up(&msg, WireCodec::Dense);
        let back = wire::decode_update_up(&frame).expect("intact frame decodes");
        prop_assert_eq!(back.round, round);
        prop_assert_eq!(back.client, client);
        prop_assert_eq!(back.data_size, data_size);
        prop_assert!(bits_equal(&msg.params, &back.params), "payload bits changed");
    }

    #[test]
    fn truncated_frames_error_not_panic(
        tensors in prop::collection::vec((1usize..5, 1usize..6, 0u64..u64::MAX), 1..4),
        frac in 0.0f64..1.0,
    ) {
        let msg = UpdateUp { round: 1, client: 2, data_size: 3, params: build_map(&tensors) };
        let frame = wire::encode_update_up(&msg, WireCodec::Dense);
        // A strict prefix anywhere in the frame must fail cleanly.
        let cut = ((frame.len() as f64) * frac) as usize;
        let cut = cut.min(frame.len() - 1);
        prop_assert!(
            wire::decode_update_up(&frame[..cut]).is_err(),
            "prefix of {} / {} bytes decoded", cut, frame.len()
        );
    }
}
