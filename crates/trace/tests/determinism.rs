//! The tracing determinism contract (the PR's acceptance criterion):
//! a traced run's `RunResult` fingerprint is bit-identical to an
//! untraced one, for every method kind, under both the perfect
//! sequential transport and the faulty parallel `SimTransport`.

use std::sync::Arc;

use adaptivefl_comm::{FaultPlan, SimTransport};
use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::select::SelectionStrategy;
use adaptivefl_core::sim::{SimConfig, Simulation};
use adaptivefl_core::trace::{Phase, Tracer};
use adaptivefl_trace::{read_trace, JsonlTracer, RecordingTracer, TraceLine, TraceReport};

fn all_kinds() -> [MethodKind; 8] {
    [
        MethodKind::AdaptiveFl,
        MethodKind::AdaptiveFlGreedy,
        MethodKind::AdaptiveFlVariant(SelectionStrategy::Random),
        MethodKind::AllLarge,
        MethodKind::Decoupled,
        MethodKind::HeteroFl,
        MethodKind::ScaleFl,
        MethodKind::adaptive_fl_capped(1.0),
    ]
}

fn prepare() -> Simulation {
    let cfg = SimConfig::quick_test(900);
    let mut spec = adaptivefl_data::SynthSpec::test_spec(4);
    spec.input = (3, 8, 8);
    Simulation::prepare(&cfg, &spec, adaptivefl_data::Partition::Dirichlet(0.5))
}

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

fn fingerprint(kind: MethodKind, tracer: Option<Arc<dyn Tracer>>, faulty: bool) -> String {
    let mut sim = prepare();
    if let Some(t) = tracer {
        sim.set_tracer(t);
    }
    let result = if faulty {
        sim.run_with_transport(kind, &mut faulty_transport())
    } else {
        sim.run(kind)
    };
    result.fingerprint()
}

#[test]
fn recording_tracer_is_invisible_over_perfect_transport() {
    for kind in all_kinds() {
        let untraced = fingerprint(kind, None, false);
        let recorder = Arc::new(RecordingTracer::new());
        let traced = fingerprint(kind, Some(recorder.clone() as Arc<dyn Tracer>), false);
        assert_eq!(untraced, traced, "{kind}: tracing changed the run");
        assert!(
            recorder.event_count() > 0,
            "{kind}: the tracer saw nothing — instrumentation is dead"
        );
    }
}

#[test]
fn recording_tracer_is_invisible_over_faulty_transport() {
    for kind in all_kinds() {
        let untraced = fingerprint(kind, None, true);
        let recorder = Arc::new(RecordingTracer::new());
        let traced = fingerprint(kind, Some(recorder.clone() as Arc<dyn Tracer>), true);
        assert_eq!(
            untraced, traced,
            "{kind}: tracing changed the faulty-transport run"
        );
        // The comm layer must have reported per-client link events.
        let comm_events =
            recorder.events_where(|e| matches!(e, adaptivefl_core::trace::TraceEvent::Comm { .. }));
        assert!(!comm_events.is_empty(), "{kind}: no comm events traced");
    }
}

#[test]
fn jsonl_tracer_is_invisible_and_produces_a_readable_trace() {
    let dir = std::env::temp_dir().join(format!("afl-determinism-{}", std::process::id()));
    for faulty in [false, true] {
        let untraced = fingerprint(MethodKind::AdaptiveFl, None, faulty);
        let path = dir.join(format!("adaptivefl-faulty-{faulty}.jsonl"));
        let tracer = Arc::new(JsonlTracer::create(&path).expect("create trace"));
        let traced = fingerprint(MethodKind::AdaptiveFl, Some(tracer.clone()), faulty);
        assert_eq!(untraced, traced, "JSONL tracing changed the run");
        tracer.flush().expect("flush");
        assert!(!tracer.had_errors());

        // The streamed trace parses and renders into a report with
        // the run's phases and coverage.
        let lines = read_trace(&path).expect("parse trace");
        assert!(lines.len() > 10, "trace suspiciously short");
        let report = TraceReport::from_lines(&lines);
        assert_eq!(report.methods, vec!["AdaptiveFL".to_string()]);
        assert_eq!(report.rounds, 4);
        assert!(report.phases.contains_key(Phase::Round.name()));
        assert!(report.phases.contains_key(Phase::Aggregate.name()));
        assert!(!report.coverage.is_empty(), "no layer coverage traced");
        let text = report.render();
        assert!(text.contains("phase breakdown"), "{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recording_and_jsonl_tracers_agree_on_events() {
    // The same run through both tracers yields the same event stream
    // (phase durations differ — wall clock — but events are identical).
    let recorder = Arc::new(RecordingTracer::new());
    fingerprint(
        MethodKind::AdaptiveFl,
        Some(recorder.clone() as Arc<dyn Tracer>),
        false,
    );

    let dir = std::env::temp_dir().join(format!("afl-agree-{}", std::process::id()));
    let path = dir.join("run.jsonl");
    let jsonl = Arc::new(JsonlTracer::create(&path).expect("create trace"));
    fingerprint(
        MethodKind::AdaptiveFl,
        Some(jsonl.clone() as Arc<dyn Tracer>),
        false,
    );
    jsonl.flush().expect("flush");

    let from_file: Vec<_> = read_trace(&path)
        .expect("parse")
        .into_iter()
        .filter_map(|l| match l {
            TraceLine::Event(e) => Some(e),
            TraceLine::Phase { .. } => None,
        })
        .collect();
    assert_eq!(recorder.events(), from_file);
    std::fs::remove_dir_all(&dir).ok();
}
