//! CI gate: the default `NoopTracer` must make tracing free.
//!
//! There is no un-instrumented build to compare against (the
//! instrumentation is always compiled in), so the bin measures the
//! next best thing: a quick-test simulation run with the disabled
//! `NoopTracer` versus the same run with an actively capturing
//! `RecordingTracer`. Recording does strictly more work at every
//! probe, so the noop run must not come out slower — if it does by
//! more than the tolerance, the `enabled()` fast path has regressed.
//!
//! Takes the minimum of several alternating repetitions to shed
//! scheduler noise. Exits non-zero when
//! `min(noop) > min(recording) * (1 + TOLERANCE)`.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::sim::{SimConfig, Simulation};
use adaptivefl_core::trace::{NoopTracer, Tracer};
use adaptivefl_data::{Partition, SynthSpec};
use adaptivefl_trace::RecordingTracer;

const REPS: usize = 5;
const TOLERANCE: f64 = 0.02;

fn timed_run(tracer: Arc<dyn Tracer>) -> Duration {
    let cfg = SimConfig::quick_test(900);
    let mut spec = SynthSpec::test_spec(4);
    spec.input = (3, 8, 8);
    let mut sim = Simulation::prepare(&cfg, &spec, Partition::Dirichlet(0.5));
    sim.set_tracer(tracer);
    let start = Instant::now();
    let result = sim.run(MethodKind::AdaptiveFl);
    let elapsed = start.elapsed();
    assert!(!result.rounds.is_empty(), "run produced no rounds");
    elapsed
}

fn main() -> ExitCode {
    // Warm-up: fault in code and data paths before timing anything.
    timed_run(Arc::new(NoopTracer));

    let mut noop = Duration::MAX;
    let mut recording = Duration::MAX;
    for rep in 0..REPS {
        // Alternate so drift (thermal, noisy neighbours) hits both.
        let n = timed_run(Arc::new(NoopTracer));
        let r = timed_run(Arc::new(RecordingTracer::new()));
        noop = noop.min(n);
        recording = recording.min(r);
        println!(
            "rep {rep}: noop {:.1}ms, recording {:.1}ms",
            n.as_secs_f64() * 1e3,
            r.as_secs_f64() * 1e3
        );
    }

    let limit = recording.as_secs_f64() * (1.0 + TOLERANCE);
    println!(
        "min noop {:.1}ms vs min recording {:.1}ms (limit {:.1}ms)",
        noop.as_secs_f64() * 1e3,
        recording.as_secs_f64() * 1e3,
        limit * 1e3
    );
    if noop.as_secs_f64() > limit {
        eprintln!(
            "FAIL: disabled tracing is more than {:.0}% slower than an actively recording tracer",
            TOLERANCE * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("OK: NoopTracer overhead within tolerance");
    ExitCode::SUCCESS
}
