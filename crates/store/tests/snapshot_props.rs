//! Property tests for the `.afs` format: every snapshot section
//! round-trips bit-exactly through encode/decode, and corruption —
//! random byte damage, truncation anywhere — is always detected, never
//! a panic or a silently different snapshot.

use adaptivefl_core::checkpoint::{MethodState, ServerSnapshot};
use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::metrics::{EvalRecord, RoundRecord, RunResult};
use adaptivefl_core::pool::{ModelPool, DEFAULT_RATIOS};
use adaptivefl_core::rl::RlState;
use adaptivefl_core::select::SelectionStrategy;
use adaptivefl_core::transport::CommStats;
use adaptivefl_models::ModelConfig;
use adaptivefl_nn::ParamMap;
use adaptivefl_store::{decode_snapshot, encode_snapshot};
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

/// A parameter map of `n` tensors filled with arbitrary `f32` bit
/// patterns (NaNs and infinities included — the format must carry
/// them unchanged).
fn arbitrary_map(n: usize, seed: u64) -> ParamMap {
    let mut state = seed;
    let mut map = ParamMap::new();
    for i in 0..n {
        let d0 = 1 + (splitmix(&mut state) % 4) as usize;
        let d1 = 1 + (splitmix(&mut state) % 6) as usize;
        let data: Vec<f32> = (0..d0 * d1)
            .map(|_| f32::from_bits(splitmix(&mut state) as u32))
            .collect();
        map.insert(format!("layer{i}.w"), Tensor::from_vec(data, &[d0, d1]));
    }
    map
}

/// An RL state driven through a drawn sequence of Algorithm-1 updates,
/// so the tables carry non-trivial trained values.
fn trained_rl(pool: &ModelPool, clients: usize, ops: u64, seed: u64) -> RlState {
    let mut state = seed;
    let mut rl = RlState::new(pool.p(), clients);
    for _ in 0..ops {
        let client = (splitmix(&mut state) as usize) % clients;
        let sent = (splitmix(&mut state) as usize) % pool.len();
        let returned = match splitmix(&mut state) % 3 {
            0 => None,
            1 => Some(sent),
            _ => Some((splitmix(&mut state) as usize) % (sent + 1)),
        };
        rl.update_on_return(pool, sent, returned, client);
    }
    rl
}

fn arbitrary_rounds(n: usize, seed: u64) -> Vec<RoundRecord> {
    let mut state = seed;
    (0..n)
        .map(|round| RoundRecord {
            round,
            sent_params: splitmix(&mut state) % 1_000_000,
            returned_params: splitmix(&mut state) % 1_000_000,
            train_loss: f32::from_bits(splitmix(&mut state) as u32),
            sim_secs: (splitmix(&mut state) % 10_000) as f64 / 7.0,
            failures: (splitmix(&mut state) % 11) as usize,
            comm: CommStats {
                bytes_down: splitmix(&mut state) % 1_000_000,
                bytes_up: splitmix(&mut state) % 1_000_000,
                drops: (splitmix(&mut state) % 5) as usize,
                stragglers: (splitmix(&mut state) % 5) as usize,
                deadline_misses: (splitmix(&mut state) % 5) as usize,
                crashes: (splitmix(&mut state) % 5) as usize,
            },
        })
        .collect()
}

fn arbitrary_evals(n: usize, seed: u64) -> Vec<EvalRecord> {
    let mut state = seed;
    (0..n)
        .map(|i| EvalRecord {
            round: i * 2 + 1,
            full: f32::from_bits(splitmix(&mut state) as u32),
            levels: (0..(splitmix(&mut state) % 4) as usize)
                .map(|l| {
                    (
                        format!("L{l}"),
                        (splitmix(&mut state) % 1000) as f32 / 1000.0,
                    )
                })
                .collect(),
        })
        .collect()
}

fn build_snapshot(
    maps: usize,
    rl_ops: u64,
    history: usize,
    kind_draw: u64,
    seed: u64,
) -> ServerSnapshot {
    let pool = ModelPool::split(&ModelConfig::tiny(10), 2, DEFAULT_RATIOS);
    let kinds = [
        MethodKind::AdaptiveFl,
        MethodKind::AdaptiveFlVariant(SelectionStrategy::Random),
        MethodKind::AdaptiveFlGreedy,
        MethodKind::AllLarge,
        MethodKind::Decoupled,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
        MethodKind::adaptive_fl_capped(1.0),
    ];
    let mut state = seed ^ 0xD1F7;
    ServerSnapshot {
        kind: kinds[(kind_draw as usize) % kinds.len()],
        method_name: format!("method-{}", seed % 97),
        completed_rounds: history,
        rng_words: (0..33).map(|_| splitmix(&mut state) as u32).collect(),
        method: MethodState {
            params: (0..maps)
                .map(|i| (format!("map{i}"), arbitrary_map(1 + i % 3, seed ^ i as u64)))
                .collect(),
            rl: if rl_ops > 0 {
                Some(trained_rl(&pool, 6, rl_ops, seed))
            } else {
                None
            },
            extra: vec![("opaque".into(), seed.to_be_bytes().to_vec())],
        },
        rounds: arbitrary_rounds(history, seed ^ 0xABCD),
        evals: arbitrary_evals(history / 2, seed ^ 0x1234),
        cfg_fingerprint: format!("SimConfig {{ seed: {seed}, .. }}"),
        pool_p: 2,
        pool_params: (1..=5).map(|i| i * 1000 + seed % 13).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn snapshots_roundtrip_bit_exactly(
        maps in 0usize..4,
        rl_ops in 0u64..40,
        history in 0usize..8,
        kind_draw in 0u64..1000,
        seed in 0u64..u64::MAX,
    ) {
        let snap = build_snapshot(maps, rl_ops, history, kind_draw, seed);
        let file = encode_snapshot(&snap);
        let back = decode_snapshot(&file).expect("intact file decodes");
        // PartialEq on f32/f64 would reject preserved NaNs, so compare
        // through a second encode: bit-identical files mean
        // bit-identical snapshots.
        prop_assert_eq!(file, encode_snapshot(&back));
        prop_assert_eq!(snap.completed_rounds, back.completed_rounds);
        prop_assert_eq!(snap.kind, back.kind);
        prop_assert_eq!(snap.rng_words, back.rng_words);
    }

    #[test]
    fn decoded_history_reproduces_derived_metrics(
        history in 1usize..8,
        seed in 0u64..u64::MAX,
    ) {
        // The summarize path: a RunResult reassembled from a decoded
        // snapshot history yields the same waste rate / totals as the
        // original (guarding the comm_waste_rate fix end to end).
        let snap = build_snapshot(1, 5, history, 1, seed);
        let back = decode_snapshot(&encode_snapshot(&snap)).expect("decodes");
        let a = RunResult::from_history("m", snap.rounds, snap.evals);
        let b = RunResult::from_history("m", back.rounds, back.evals);
        prop_assert_eq!(a.comm_waste_rate().to_bits(), b.comm_waste_rate().to_bits());
        prop_assert_eq!(a.total_sim_secs().to_bits(), b.total_sim_secs().to_bits());
        prop_assert_eq!(a.total_comm(), b.total_comm());
        prop_assert_eq!(
            a.best_full_accuracy().to_bits(),
            b.best_full_accuracy().to_bits()
        );
    }

    #[test]
    fn random_byte_damage_is_always_detected(
        seed in 0u64..u64::MAX,
        pos_draw in 0u64..u64::MAX,
        xor in 1u8..=255,
    ) {
        let snap = build_snapshot(2, 10, 4, 2, seed);
        let mut file = encode_snapshot(&snap);
        let pos = (pos_draw as usize) % file.len();
        file[pos] ^= xor;
        match decode_snapshot(&file) {
            Err(_) => {}
            // A flip inside a string/extra byte could in principle decode;
            // it must then still differ from the original only in ways the
            // CRC would have caught — i.e. this must be unreachable.
            Ok(_) => prop_assert!(false, "corruption at byte {pos} (^{xor:#04x}) went undetected"),
        }
    }

    #[test]
    fn truncation_is_always_detected(
        seed in 0u64..u64::MAX,
        frac in 0.0f64..1.0,
    ) {
        let snap = build_snapshot(1, 5, 3, 3, seed);
        let file = encode_snapshot(&snap);
        let cut = (((file.len() as f64) * frac) as usize).min(file.len() - 1);
        prop_assert!(
            decode_snapshot(&file[..cut]).is_err(),
            "prefix of {} / {} bytes decoded",
            cut,
            file.len()
        );
    }
}
