//! End-to-end runs over `SimTransport`: fault injection degrades but
//! does not derail training, faults are visible in the per-round
//! [`CommStats`], dropped uploads feed AdaptiveFL's `T_r` table as
//! failures, the parallel executor is deterministic at any thread
//! count, and delivered uploads are weighted by the decoded frame.

use adaptivefl_comm::{FaultPlan, SimTransport};
use adaptivefl_core::aggregate::{aggregate, Upload};
use adaptivefl_core::methods::{AdaptiveFl, FlMethod, MethodKind};
use adaptivefl_core::rl::PAPER_REWARD_CAP;
use adaptivefl_core::select::SelectionStrategy;
use adaptivefl_core::sim::{SimConfig, Simulation};
use adaptivefl_core::transport::{ClientJob, LocalOutcome, Transport};
use adaptivefl_core::PerfectTransport;
use adaptivefl_data::{Partition, SynthSpec};
use adaptivefl_nn::ParamMap;
use adaptivefl_tensor::Tensor;

fn spec() -> SynthSpec {
    let mut s = SynthSpec::test_spec(4);
    s.input = (3, 8, 8);
    s
}

fn prepare(seed: u64) -> Simulation {
    let mut cfg = SimConfig::quick_test(seed);
    cfg.rounds = 6;
    Simulation::prepare(&cfg, &spec(), Partition::Iid)
}

#[test]
fn upload_drops_degrade_gracefully() {
    let clean = prepare(300).run(MethodKind::AdaptiveFl);
    let mut faulty_transport = SimTransport::new().with_faults(FaultPlan {
        upload_drop: 0.3,
        ..Default::default()
    });
    let faulty = prepare(300).run_with_transport(MethodKind::AdaptiveFl, &mut faulty_transport);

    // The run completes every round and the faults are observable.
    assert_eq!(faulty.rounds.len(), 6);
    let comm = faulty.total_comm();
    assert!(
        comm.drops > 0,
        "a 30% drop rate over 6 rounds must drop something"
    );
    assert_eq!(clean.total_comm().drops, 0);

    // Dropped uploads are wasted communication: the byte-level waste
    // rate must exceed the fault-free run's.
    assert!(
        faulty.comm_waste_rate() > clean.comm_waste_rate(),
        "faulty waste {} vs clean {}",
        faulty.comm_waste_rate(),
        clean.comm_waste_rate()
    );

    // Graceful degradation: still clearly above chance (0.25 for 4
    // classes), and no better than the fault-free run plus noise.
    let (fa, ca) = (faulty.final_full_accuracy(), clean.final_full_accuracy());
    assert!(fa > 0.25, "faulty run should still learn, got {fa}");
    assert!(
        fa <= ca + 0.15,
        "faulty {fa} should not beat clean {ca} by a wide margin"
    );
}

#[test]
fn dropped_clients_t_r_decreases() {
    let sim = prepare(301);
    let env = sim.env();
    let mut method = AdaptiveFl::new(
        env,
        SelectionStrategy::CuriosityAndResource,
        false,
        PAPER_REWARD_CAP,
    );
    // Every upload is lost: every dispatched client must be punished
    // across all pool sizes (t_r decreases, clamped at zero).
    let mut transport = SimTransport::new().with_faults(FaultPlan {
        upload_drop: 1.0,
        ..Default::default()
    });
    let mut rng = adaptivefl_tensor::rng::derived(env.cfg.seed, "run-AdaptiveFL");

    let before: Vec<Vec<f64>> = (0..env.pool.len())
        .map(|m| {
            (0..env.cfg.num_clients)
                .map(|c| method.rl().score(m, c))
                .collect()
        })
        .collect();
    let rec = method.round(env, 0, &mut transport, &mut rng);
    // Every dispatch fails: trained-then-dropped uploads count in the
    // comm stats, and all of them surface as failures.
    assert!(
        rec.comm.drops > 0,
        "at drop rate 1.0 some trained upload must be dropped"
    );
    assert!(rec.failures >= rec.comm.drops);
    assert_eq!(rec.returned_params, 0, "nothing can survive a total drop");

    let mut decreased = 0;
    for (m, row) in before.iter().enumerate() {
        for (c, &b) in row.iter().enumerate() {
            let a = method.rl().score(m, c);
            assert!(
                a <= b,
                "T_r[{m}][{c}] rose from {b} to {a} despite total drop"
            );
            if a < b {
                decreased += 1;
            }
        }
    }
    assert!(decreased > 0, "dropped clients must lose T_r score");
}

/// Every method, client jobs and evaluation units alike, replays the
/// same run at any executor width. Evaluation on batches of 16 out of
/// 60 test samples splits each model into four units, so three threads
/// share them unevenly.
#[test]
fn runs_are_deterministic_across_thread_counts() {
    let plan = FaultPlan {
        upload_drop: 0.2,
        straggler_prob: 0.2,
        ..Default::default()
    };
    let kinds = [
        MethodKind::AdaptiveFl,
        MethodKind::AdaptiveFlGreedy,
        MethodKind::AdaptiveFlVariant(SelectionStrategy::Random),
        MethodKind::AllLarge,
        MethodKind::Decoupled,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
    ];
    for kind in kinds {
        let run = |threads: usize| {
            let mut cfg = SimConfig::quick_test(302);
            cfg.rounds = 6;
            cfg.eval_every = 1;
            cfg.eval_batch = 16;
            let mut transport = SimTransport::new().with_threads(threads).with_faults(plan);
            Simulation::prepare(&cfg, &spec(), Partition::Iid)
                .run_with_transport(kind, &mut transport)
        };
        let one = run(1);
        assert_eq!(one.evals.len(), 6, "{kind}");
        for threads in [2, 3, 8] {
            assert_eq!(
                run(threads),
                one,
                "{kind}: thread count {threads} changed the run"
            );
        }
    }
}

#[test]
fn deadline_misses_count_and_cap_round_time() {
    // An absurdly tight deadline: every upload is late, the round time
    // is capped at the deadline, and nothing is aggregated.
    let mut transport = SimTransport::new().with_deadline(1e-9);
    let res = prepare(303).run_with_transport(MethodKind::AdaptiveFl, &mut transport);
    let comm = res.total_comm();
    assert!(
        comm.deadline_misses > 0,
        "everything should miss a 1ns deadline"
    );
    assert_eq!(comm.bytes_up, 0, "late uploads are pure waste");
    for r in &res.rounds {
        assert!(
            r.sim_secs <= 1e-9,
            "round time {} exceeds the deadline",
            r.sim_secs
        );
    }
}

#[test]
fn clean_sim_transport_matches_perfect_bytes() {
    // Without faults or deadline, SimTransport must account the same
    // communication volume as PerfectTransport (its uplink frames add
    // only a fixed header per upload). The comparison is on the first
    // round: from round two on the two transports legitimately diverge,
    // because SimTransport trains clients on derived per-client RNG
    // streams while PerfectTransport preserves the legacy shared one.
    let perfect = prepare(304).run_with_transport(MethodKind::AdaptiveFl, &mut PerfectTransport);
    let sim = prepare(304).run_with_transport(MethodKind::AdaptiveFl, &mut SimTransport::new());
    let (p, s) = (perfect.rounds[0].comm, sim.rounds[0].comm);
    assert_eq!(p.bytes_down, s.bytes_down);
    assert!(
        s.bytes_up >= p.bytes_up,
        "wire framing cannot shrink dense uploads"
    );
    let overhead = s.bytes_up - p.bytes_up;
    assert!(
        overhead < p.bytes_up / 10,
        "framing overhead {overhead} should be small next to {} payload bytes",
        p.bytes_up
    );
    assert_eq!(s.drops + s.crashes + s.stragglers + s.deadline_misses, 0);
}

/// The server weights a delivered upload by the `data_size` its frame
/// carries (the client's `samples`), not by the weight the client held
/// in memory.
#[test]
fn delivered_uploads_are_weighted_by_the_decoded_frame() {
    let sim = prepare(305);
    let env = sim.env();
    let mut params = ParamMap::new();
    params.insert("w", Tensor::full(&[3], 2.0));
    let job = |client: usize, samples: usize, params: ParamMap| ClientJob {
        client,
        tag: 0,
        down_params: 3,
        run: Box::new(move |_| LocalOutcome {
            upload: Some(Upload {
                params,
                weight: 99.0,
            }),
            loss: 0.5,
            tag: 0,
            macs_per_sample: 1,
            samples,
            up_params: 3,
        }),
    };
    let mut other = ParamMap::new();
    other.insert("w", Tensor::full(&[3], 8.0));
    let jobs = vec![job(0, 10, params), job(1, 30, other)];
    let mut rng = adaptivefl_tensor::rng::seeded(1);
    let ex = SimTransport::new().exchange(env, 0, jobs, &mut rng);
    let uploads: Vec<Upload> = ex
        .deliveries
        .into_iter()
        .map(|d| d.upload.expect("a clean link delivers"))
        .collect();
    let weights: Vec<f32> = uploads.iter().map(|u| u.weight).collect();
    assert_eq!(weights, vec![10.0, 30.0]);

    // Aggregated with `samples` as the weight: (2·10 + 8·30) / 40.
    let mut global = ParamMap::new();
    global.insert("w", Tensor::zeros(&[3]));
    aggregate(&mut global, &uploads);
    assert_eq!(global.get("w").unwrap().as_slice(), &[6.5; 3]);
}
