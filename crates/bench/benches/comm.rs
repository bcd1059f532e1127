//! Benchmarks of the simulated transport: wire encode/decode of
//! realistic uplink frames and a full faulty exchange —
//! the per-round link cost added by `adaptivefl-comm`.

use adaptivefl_comm::wire::{decode_update_up, encode_update_up, UpdateUp, WireCodec};
use adaptivefl_comm::{FaultPlan, SimTransport};
use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::sim::{SimConfig, Simulation};
use adaptivefl_data::{Partition, SynthSpec};
use adaptivefl_models::ModelConfig;
use adaptivefl_nn::layer::LayerExt;
use adaptivefl_tensor::rng;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn sample_update(cfg: &ModelConfig) -> UpdateUp {
    let mut r = rng::seeded(11);
    let params = cfg.build(&cfg.full_plan(), &mut r).param_map();
    UpdateUp {
        round: 5,
        client: 42,
        data_size: 30,
        params,
    }
}

fn bench_wire(c: &mut Criterion) {
    for (label, cfg) in [
        ("tiny", ModelConfig::tiny(10)),
        ("resnet18_fast", ModelConfig::resnet18_fast(10)),
    ] {
        let msg = sample_update(&cfg);
        c.bench_function(&format!("wire_encode_dense_{label}"), |b| {
            b.iter(|| encode_update_up(black_box(&msg), WireCodec::Dense))
        });
        let frame = encode_update_up(&msg, WireCodec::Dense);
        c.bench_function(&format!("wire_decode_dense_{label}"), |b| {
            b.iter(|| decode_update_up(black_box(&frame)).expect("intact frame"))
        });
    }
}

fn bench_faulty_round(c: &mut Criterion) {
    let mut cfg = SimConfig::quick_test(900);
    cfg.rounds = 1;
    cfg.eval_every = usize::MAX;
    let mut spec = SynthSpec::test_spec(4);
    spec.input = (3, 8, 8);
    c.bench_function("sim_transport_faulty_round", |b| {
        b.iter(|| {
            let mut transport = SimTransport::new().with_threads(2).with_faults(FaultPlan {
                upload_drop: 0.2,
                straggler_prob: 0.2,
                ..Default::default()
            });
            let mut sim = Simulation::prepare(&cfg, &spec, Partition::Iid);
            sim.run_with_transport(MethodKind::AdaptiveFl, &mut transport)
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_wire, bench_faulty_round
}
criterion_main!(benches);
