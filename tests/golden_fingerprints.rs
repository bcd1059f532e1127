//! Golden fingerprint regression suite: the 9-decimal `RunResult`
//! fingerprint of every method kind under the quick-test recipe is
//! committed under `tests/goldens/` and diffed here. Any change to the
//! numerics — initialisation, selection, aggregation, transport
//! faults — shows up as a golden mismatch.
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_fingerprints
//! ```

use std::path::PathBuf;

use adaptivefl::comm::{FaultPlan, SimTransport};
use adaptivefl::core::methods::MethodKind;
use adaptivefl::core::select::SelectionStrategy;
use adaptivefl::core::sim::{SimConfig, Simulation};
use adaptivefl::data::{Partition, SynthSpec};
use adaptivefl::models::ModelConfig;

/// All seven method kinds of the comparison, in a fixed order.
fn all_kinds() -> [MethodKind; 7] {
    [
        MethodKind::AdaptiveFl,
        MethodKind::AdaptiveFlGreedy,
        MethodKind::AdaptiveFlVariant(SelectionStrategy::Random),
        MethodKind::AllLarge,
        MethodKind::Decoupled,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
    ]
}

fn prepare() -> Simulation {
    let cfg = SimConfig::quick_test(900);
    let mut spec = SynthSpec::test_spec(4);
    spec.input = (3, 8, 8);
    Simulation::prepare(&cfg, &spec, Partition::Dirichlet(0.5))
}

/// The faulty transport of the goldens: every fault class enabled, two
/// worker threads (results are thread-count invariant).
fn faulty_transport() -> SimTransport {
    SimTransport::new().with_threads(2).with_faults(FaultPlan {
        upload_drop: 0.15,
        straggler_prob: 0.2,
        crash_prob: 0.1,
        truncate_prob: 0.05,
        seed: 7,
        ..Default::default()
    })
}

fn slug(kind: MethodKind) -> String {
    format!("{kind}")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn check_golden(kind: MethodKind, transport: &str, fingerprint: &str) {
    let file = format!("{}-{transport}.txt", slug(kind));
    check_golden_file(
        &file,
        &format!("{kind} over {transport} transport"),
        fingerprint,
    );
}

fn check_golden_file(file: &str, what: &str, fingerprint: &str) {
    let path = goldens_dir().join(file);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&path, fingerprint).expect("write golden");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDENS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        fingerprint,
        want,
        "fingerprint of {what} drifted from {}\n\
         (if the numerical change is intentional, regenerate with UPDATE_GOLDENS=1)",
        path.display()
    );
}

#[test]
fn goldens_match_perfect_transport() {
    for kind in all_kinds() {
        let fp = prepare().run(kind).fingerprint();
        check_golden(kind, "perfect", &fp);
    }
}

#[test]
fn goldens_match_faulty_transport() {
    for kind in all_kinds() {
        let fp = prepare()
            .run_with_transport(kind, &mut faulty_transport())
            .fingerprint();
        check_golden(kind, "faulty", &fp);
    }
}

/// AdaptiveFL with the resource-reward cap lifted to 1.0 (the
/// reward-cap ablation), over both transports.
#[test]
fn reward_cap_goldens_match_both_transports() {
    let kind = MethodKind::adaptive_fl_capped(1.0);
    assert_eq!(slug(kind), "adaptivefl-cap1");
    check_golden(kind, "perfect", &prepare().run(kind).fingerprint());
    let faulty = prepare().run_with_transport(kind, &mut faulty_transport());
    check_golden(kind, "faulty", &faulty.fingerprint());
}

/// MobileNetV2-fast on a 1×16×16 Widar-like task over the faulty
/// transport: the only golden whose model has depthwise convs and
/// BatchNorm, so it pins their numerics bit for bit.
#[test]
fn mobilenetv2_golden_matches_faulty_transport() {
    let spec = SynthSpec::widar_like();
    let mut cfg = SimConfig::quick_test(900);
    cfg.model = ModelConfig {
        input: spec.input,
        classes: spec.classes,
        ..ModelConfig::mobilenet_v2_fast(spec.classes)
    };
    cfg.rounds = 3;
    let fp = Simulation::prepare(&cfg, &spec, Partition::Dirichlet(0.5))
        .run_with_transport(MethodKind::AdaptiveFl, &mut faulty_transport())
        .fingerprint();
    check_golden_file(
        "mobilenetv2-adaptivefl-faulty.txt",
        "MobileNetV2 AdaptiveFL over faulty transport",
        &fp,
    );
}

/// ResNet18-fast under ScaleFL over the perfect transport: the golden
/// that pins projection-shortcut residual blocks, ScaleFL's exit heads
/// and the sBN evaluation of a ResNet bit for bit.
#[test]
fn resnet18_scalefl_golden_matches_perfect_transport() {
    let mut spec = SynthSpec::test_spec(4);
    spec.input = (3, 8, 8);
    let mut cfg = SimConfig::quick_test(900);
    cfg.model = ModelConfig {
        input: spec.input,
        classes: spec.classes,
        ..ModelConfig::resnet18_fast(spec.classes)
    };
    cfg.rounds = 3;
    let fp = Simulation::prepare(&cfg, &spec, Partition::Dirichlet(0.5))
        .run(MethodKind::ScaleFl)
        .fingerprint();
    check_golden_file(
        "resnet18-scalefl-perfect.txt",
        "ResNet18 ScaleFL over perfect transport",
        &fp,
    );
}

#[test]
fn fingerprints_have_nine_decimals_and_method_names() {
    let fp = prepare().run(MethodKind::AdaptiveFl).fingerprint();
    assert!(fp.starts_with("AdaptiveFL r0 "), "{fp}");
    for line in fp.lines() {
        let loss = line
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("loss=").or(tok.strip_prefix("full=")))
            .unwrap_or_else(|| panic!("no loss/full field in {line}"));
        let decimals = loss.split('.').nth(1).map_or(0, str::len);
        assert_eq!(decimals, 9, "{line}");
    }
}
