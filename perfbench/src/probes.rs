//! Timed direct calls into the program's public functions: the layers
//! a run passes through but does not report as phases.

use std::path::Path;
use std::time::Instant;

use crate::median;
use crate::workload::SIM_SEED;

use adaptivefl_bench::sweep::Cell;
use adaptivefl_comm::wire::{decode_update_up, encode_update_up};
use adaptivefl_comm::{UpdateUp, WireCodec};
use adaptivefl_core::checkpoint::MemorySink;
use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::pool::ModelPool;
use adaptivefl_core::sim::RunHooks;
use adaptivefl_core::transport::PerfectTransport;
use adaptivefl_data::FederatedDataset;
use adaptivefl_models::cost::cost_of;
use adaptivefl_nn::layer::LayerExt;
use adaptivefl_store::SnapshotStore;
use adaptivefl_tensor::rng;

/// Medians of the probe timings, plus whether every round trip
/// reproduced its input.
#[derive(Debug, Default)]
pub struct Probes {
    pub data_synth_ms: f64,
    pub pool_split_ms: f64,
    pub prune_extract_ms: f64,
    pub models_build_ms: f64,
    pub models_cost_us: f64,
    pub wire_encode_ms: f64,
    pub wire_decode_ms: f64,
    pub store_save_ms: f64,
    pub store_load_ms: f64,
    pub snapshot_bytes: u64,
    /// Round trips (wire frames, snapshot files) that did not return
    /// what went in.
    pub mismatches: Vec<String>,
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs every probe `reps` times. `cells` are the workload's cells
/// (data and pool set-up is timed over all of them); `main` is the
/// AdaptiveFL cell whose model pool the per-entry probes walk.
pub fn run(cells: &[Cell], main: &Cell, dir: &Path, reps: usize) -> Probes {
    let mut p = Probes::default();
    let sim = main.prepare(SIM_SEED);
    let env = sim.env();
    let global = env.fresh_global();
    let entries = env.pool.entries();

    let mut samples: [Vec<f64>; 9] = Default::default();
    for rep in 0..reps {
        let t0 = Instant::now();
        for c in cells {
            let cfg = c.cfg.with_seed(SIM_SEED);
            std::hint::black_box(FederatedDataset::synthesize(
                &c.spec,
                cfg.num_clients,
                cfg.samples_per_client,
                cfg.test_samples,
                c.partition,
                cfg.seed,
            ));
        }
        samples[0].push(ms(t0));

        let t0 = Instant::now();
        for c in cells {
            std::hint::black_box(ModelPool::split(&c.cfg.model, c.cfg.p, c.cfg.ratios));
        }
        samples[1].push(ms(t0));

        let (mut extract, mut build, mut cost, mut enc, mut dec) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let mut r = rng::derived(SIM_SEED, "probe-build");
        for e in entries {
            let t0 = Instant::now();
            let sub = env.pool.prune_plan(e.index).extract(&global);
            extract += ms(t0);

            let t0 = Instant::now();
            let mut net = env.cfg.model.build(&e.plan, &mut r);
            net.load_param_map(&sub);
            build += ms(t0);
            std::hint::black_box(&net);

            let t0 = Instant::now();
            std::hint::black_box(cost_of(
                &env.cfg.model.full_blueprint(&e.plan),
                env.cfg.model.input,
            ));
            cost += ms(t0) * 1e3;

            let msg = UpdateUp {
                round: 0,
                client: 0,
                data_size: env.cfg.samples_per_client as u32,
                params: sub,
            };
            let t0 = Instant::now();
            let frame = encode_update_up(&msg, WireCodec::Dense);
            enc += ms(t0);
            let t0 = Instant::now();
            let back = decode_update_up(&frame);
            dec += ms(t0);
            if rep == 0
                && back
                    .as_ref()
                    .map(|b| b.params != msg.params)
                    .unwrap_or(true)
            {
                p.mismatches
                    .push(format!("wire frame of pool entry {}", e.index));
            }
        }
        for (slot, v) in samples[2..7]
            .iter_mut()
            .zip([extract, build, cost, enc, dec])
        {
            slot.push(v);
        }
    }

    // A real snapshot: one round of the main cell, halted into memory.
    let mut sink = MemorySink::new();
    let mut snap_sim = main.prepare(SIM_SEED);
    let hooks = RunHooks {
        checkpoint_every: 0,
        sink: &mut sink,
        halt_after: Some(1),
    };
    match snap_sim.run_with_hooks(MethodKind::AdaptiveFl, &mut PerfectTransport, hooks) {
        Ok(None) => {}
        _ => p
            .mismatches
            .push("halting after one round did not stop the run".into()),
    }
    if let Some(snap) = sink.latest() {
        let _ = std::fs::remove_dir_all(dir);
        match SnapshotStore::open(dir) {
            Ok(store) => {
                for rep in 0..reps {
                    let t0 = Instant::now();
                    let path = store.save_snapshot(snap);
                    samples[7].push(ms(t0));
                    let Ok(path) = path else {
                        p.mismatches.push("snapshot save failed".into());
                        break;
                    };
                    p.snapshot_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                    let t0 = Instant::now();
                    let back = store.load(&path);
                    samples[8].push(ms(t0));
                    if rep == 0 && back.as_ref().ok() != Some(snap) {
                        p.mismatches
                            .push("snapshot file did not load back intact".into());
                    }
                }
            }
            Err(e) => p.mismatches.push(format!("opening snapshot store: {e}")),
        }
        let _ = std::fs::remove_dir_all(dir);
    } else {
        p.mismatches.push("no snapshot was saved".into());
    }

    let [synth, split, extract, build, cost, enc, dec, save, load] =
        samples.map(|v| if v.is_empty() { 0.0 } else { median(v) });
    p.data_synth_ms = synth;
    p.pool_split_ms = split;
    p.prune_extract_ms = extract;
    p.models_build_ms = build;
    p.models_cost_us = cost;
    p.wire_encode_ms = enc;
    p.wire_decode_ms = dec;
    p.store_save_ms = save;
    p.store_load_ms = load;
    p
}
