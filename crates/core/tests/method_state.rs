//! The one capture/restore every method derives from its round hooks,
//! and the one method name every run takes from its kind.

use adaptivefl_core::checkpoint::MethodState;
use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::select::SelectionStrategy;
use adaptivefl_core::sim::{SimConfig, Simulation};
use adaptivefl_core::transport::PerfectTransport;
use adaptivefl_core::CoreError;
use adaptivefl_data::{Partition, SynthSpec};

/// The goldens' seven kinds plus the other selection variants and the
/// reward-cap kind.
fn kinds() -> [MethodKind; 10] {
    use SelectionStrategy::{CuriosityOnly, Random, ResourceOnly};
    [
        MethodKind::AdaptiveFl,
        MethodKind::AdaptiveFlGreedy,
        MethodKind::AdaptiveFlVariant(Random),
        MethodKind::AllLarge,
        MethodKind::Decoupled,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
        MethodKind::AdaptiveFlVariant(CuriosityOnly),
        MethodKind::AdaptiveFlVariant(ResourceOnly),
        MethodKind::adaptive_fl_capped(1.0),
    ]
}

fn prepare(num_clients: usize) -> Simulation {
    let mut cfg = SimConfig::quick_test(500);
    cfg.num_clients = num_clients;
    let mut spec = SynthSpec::test_spec(4);
    spec.input = (3, 8, 8);
    Simulation::prepare(&cfg, &spec, Partition::Iid)
}

fn is_adaptive(kind: MethodKind) -> bool {
    kind.name().starts_with("AdaptiveFL")
}

/// The state of a `kind` method after one round, which moves its
/// weights and RL tables away from their initial values.
fn trained_state(sim: &Simulation, kind: MethodKind) -> MethodState {
    let env = sim.env();
    let mut method = kind.instantiate(env);
    let mut rng = adaptivefl_tensor::rng::derived(env.cfg.seed, "method-state");
    method.round(env, 0, &mut PerfectTransport, &mut rng);
    method.capture()
}

#[test]
fn restore_then_capture_gives_the_captured_state() {
    let sim = prepare(10);
    for kind in kinds() {
        let state = trained_state(&sim, kind);
        let names: Vec<&str> = state.params.iter().map(|(n, _)| n.as_str()).collect();
        let want = match kind {
            MethodKind::Decoupled => vec!["S_1", "M_1", "L_1"],
            _ => vec!["global"],
        };
        assert_eq!(names, want, "{kind}");
        assert_eq!(state.rl.is_some(), is_adaptive(kind), "{kind}");
        assert!(state.extra.is_empty(), "{kind}");

        let mut fresh = kind.instantiate(sim.env());
        assert_ne!(fresh.capture(), state, "{kind}: the round changed nothing");
        fresh
            .restore(state.clone())
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(fresh.capture(), state, "{kind}");
    }
}

/// Restores `state` into a fresh `kind` method, which must refuse it
/// and keep its own state.
fn assert_rejects(sim: &Simulation, kind: MethodKind, state: MethodState, why: &str) {
    let mut method = kind.instantiate(sim.env());
    let before = method.capture();
    match method.restore(state) {
        Err(CoreError::Snapshot(_)) => {}
        other => panic!("{kind} accepted a state with {why}: {other:?}"),
    }
    assert_eq!(
        method.capture(),
        before,
        "{kind}: a refused restore changed the state"
    );
}

#[test]
fn restore_rejects_mismatched_states() {
    let sim = prepare(10);
    let fresh = |kind: MethodKind| kind.instantiate(sim.env()).capture();

    let mut state = fresh(MethodKind::Decoupled);
    state.params.pop();
    assert_rejects(&sim, MethodKind::Decoupled, state, "one level map missing");
    let mut state = fresh(MethodKind::HeteroFl);
    state.params.push(state.params[0].clone());
    assert_rejects(&sim, MethodKind::HeteroFl, state, "two global maps");

    let mut state = fresh(MethodKind::AllLarge);
    state.params[0].0 = "L_1".into();
    assert_rejects(&sim, MethodKind::AllLarge, state, "a renamed global map");
    let mut state = fresh(MethodKind::Decoupled);
    state.params[2].0 = "global".into();
    assert_rejects(&sim, MethodKind::Decoupled, state, "a renamed level map");

    let mut state = fresh(MethodKind::AdaptiveFl);
    state.rl = None;
    assert_rejects(&sim, MethodKind::AdaptiveFl, state, "no RL tables");

    let mut state = fresh(MethodKind::AdaptiveFl);
    let other = prepare(12);
    state.rl = MethodKind::AdaptiveFl.instantiate(other.env()).capture().rl;
    assert_rejects(
        &sim,
        MethodKind::AdaptiveFl,
        state,
        "RL tables for 12 clients",
    );

    let rl = fresh(MethodKind::AdaptiveFl).rl;
    for kind in [
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
        MethodKind::AllLarge,
    ] {
        let mut state = fresh(kind);
        state.rl = rl.clone();
        assert_rejects(&sim, kind, state, "RL tables");
    }
}

#[test]
fn method_names_are_the_display_names_but_plain_adaptivefl() {
    use SelectionStrategy::{CuriosityAndResource, CuriosityOnly, Random, ResourceOnly};
    let names = [
        (MethodKind::AdaptiveFl, "AdaptiveFL"),
        (
            MethodKind::AdaptiveFlVariant(CuriosityAndResource),
            "AdaptiveFL",
        ),
        (MethodKind::adaptive_fl_capped(1.0), "AdaptiveFL"),
        (MethodKind::adaptive_fl_capped(0.25), "AdaptiveFL"),
        (MethodKind::AdaptiveFlVariant(Random), "AdaptiveFL+Random"),
        (MethodKind::AdaptiveFlVariant(CuriosityOnly), "AdaptiveFL+C"),
        (MethodKind::AdaptiveFlVariant(ResourceOnly), "AdaptiveFL+S"),
        (MethodKind::AdaptiveFlGreedy, "AdaptiveFL+Greed"),
        (MethodKind::AllLarge, "All-Large"),
        (MethodKind::Decoupled, "Decoupled"),
        (MethodKind::HeteroFl, "HeteroFL"),
        (MethodKind::ScaleFl, "ScaleFL"),
    ];
    for (kind, name) in names {
        assert_eq!(kind.name(), name, "{kind:?}");
    }
    for kind in kinds() {
        let plain = matches!(kind, MethodKind::AdaptiveFlCapped(_));
        assert_eq!(kind.name() == kind.to_string(), !plain, "{kind:?}");
    }
}
