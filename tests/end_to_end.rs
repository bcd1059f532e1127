//! Cross-crate end-to-end tests: full federated runs through the
//! facade crate, checking the qualitative claims the paper makes.

use adaptivefl::core::methods::MethodKind;
use adaptivefl::core::sim::{SimConfig, Simulation};
use adaptivefl::data::{Partition, SynthSpec};

fn spec4() -> SynthSpec {
    let mut s = SynthSpec::test_spec(4);
    s.input = (3, 8, 8);
    s
}

/// AdaptiveFL must actually learn: accuracy well above chance after a
/// handful of rounds on an easy task.
#[test]
fn adaptivefl_learns_above_chance() {
    let mut cfg = SimConfig::quick_test(900);
    cfg.rounds = 8;
    cfg.eval_every = 8;
    let mut sim = Simulation::prepare(&cfg, &spec4(), Partition::Iid);
    let r = sim.run(MethodKind::AdaptiveFl);
    assert!(
        r.final_full_accuracy() > 0.45,
        "accuracy {} not above chance",
        r.final_full_accuracy()
    );
}

/// Cross-level parameter sharing must beat the Decoupled baseline on
/// the full model (the paper's core comparison) given the same data,
/// fleet and budget. A single tiny run is noisy, so this compares the
/// mean over three seeds with a small slack.
#[test]
fn adaptivefl_beats_decoupled_on_full_model() {
    let mut ours_acc = 0.0f32;
    let mut dec_acc = 0.0f32;
    for seed in [901u64, 902, 903] {
        let mut cfg = SimConfig::quick_test(seed);
        cfg.rounds = 10;
        cfg.eval_every = 10;
        let mut sim = Simulation::prepare(&cfg, &spec4(), Partition::Dirichlet(0.6));
        ours_acc += sim.run(MethodKind::AdaptiveFl).final_full_accuracy();
        dec_acc += sim.run(MethodKind::Decoupled).final_full_accuracy();
    }
    assert!(
        ours_acc >= dec_acc - 0.05,
        "AdaptiveFL mean {} well below Decoupled mean {}",
        ours_acc / 3.0,
        dec_acc / 3.0
    );
}

/// Whole runs replay bit-for-bit from the same seed (the determinism
/// the experiment harness relies on).
#[test]
fn whole_runs_are_deterministic() {
    let cfg = SimConfig::quick_test(902);
    let run = || {
        let mut sim = Simulation::prepare(&cfg, &spec4(), Partition::Dirichlet(0.3));
        sim.run(MethodKind::HeteroFl)
    };
    assert_eq!(run(), run());
}

/// Different seeds must actually change the run.
#[test]
fn different_seeds_differ() {
    let mut cfg = SimConfig::quick_test(903);
    let a = {
        let mut sim = Simulation::prepare(&cfg, &spec4(), Partition::Iid);
        sim.run(MethodKind::AdaptiveFl)
    };
    cfg.seed = 904;
    let b = {
        let mut sim = Simulation::prepare(&cfg, &spec4(), Partition::Iid);
        sim.run(MethodKind::AdaptiveFl)
    };
    assert_ne!(a, b);
}

/// The communication-waste rate is a proper rate for every method.
#[test]
fn comm_waste_is_a_rate_for_every_method() {
    let mut cfg = SimConfig::quick_test(905);
    cfg.rounds = 3;
    for kind in [
        MethodKind::AdaptiveFl,
        MethodKind::AdaptiveFlGreedy,
        MethodKind::AllLarge,
        MethodKind::Decoupled,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
    ] {
        let mut sim = Simulation::prepare(&cfg, &spec4(), Partition::Iid);
        let r = sim.run(kind);
        let w = r.comm_waste_rate();
        assert!((0.0..=1.0).contains(&w), "{kind}: waste {w}");
        // All-Large never wastes: everyone returns what was sent.
        if kind == MethodKind::AllLarge {
            assert_eq!(w, 0.0);
        }
    }
}

/// Simulated wall-clock must be positive and accumulate monotonically.
#[test]
fn simulated_time_accumulates() {
    let mut cfg = SimConfig::quick_test(906);
    cfg.rounds = 4;
    cfg.eval_every = 1;
    let mut sim = Simulation::prepare(&cfg, &spec4(), Partition::Iid);
    let r = sim.run(MethodKind::AdaptiveFl);
    let tc = r.time_curve();
    assert!(tc.windows(2).all(|w| w[1].0 >= w[0].0));
    assert!(r.total_sim_secs() > 0.0);
}

/// Evaluation snapshots include S/M/L level accuracies for the
/// heterogeneous methods and none for All-Large.
#[test]
fn eval_levels_match_method_structure() {
    let mut cfg = SimConfig::quick_test(907);
    cfg.rounds = 1;
    cfg.eval_every = 1;
    let mut sim = Simulation::prepare(&cfg, &spec4(), Partition::Iid);
    let het = sim.run(MethodKind::AdaptiveFl);
    assert_eq!(het.evals[0].levels.len(), 3);
    let names: Vec<&str> = het.evals[0]
        .levels
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(names, vec!["S_1", "M_1", "L_1"]);
    let all = sim.run(MethodKind::AllLarge);
    assert!(all.evals[0].levels.is_empty());
}
