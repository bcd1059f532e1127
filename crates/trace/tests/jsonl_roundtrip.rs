//! Property test: the JSONL codec is lossless — `parse_line` inverts
//! `encode_line` for every event variant, with arbitrary integers,
//! floats (shortest round-trip text), and awkward strings.

use adaptivefl_core::trace::{Phase, TraceEvent};
use adaptivefl_trace::{encode_line, parse_document, parse_line, TraceLine};
use proptest::prelude::*;

/// Strings exercising every escaping path: quotes, backslashes,
/// control characters, multi-byte UTF-8, and emptiness.
const TRICKY: &[&str] = &[
    "",
    "conv1.weight",
    "with \"quotes\" inside",
    "back\\slash",
    "tab\tnewline\nret\r",
    "nul\u{0}bell\u{7}",
    "ünïcødé-λαμβδα-模型",
    "trailing space ",
    "/slashes/and.dots",
];

const STATUSES: &[&str] = &["delivered", "training_failed", "dropped", "late", "crashed"];

/// Builds one event from drawn raw parts, cycling through all 13
/// variants via `variant`.
fn build_event(variant: usize, a: u64, b: usize, f: f64, g: f32, sidx: usize) -> TraceEvent {
    let s = TRICKY[sidx % TRICKY.len()];
    let status: &'static str = STATUSES[b % STATUSES.len()];
    match variant % 13 {
        0 => TraceEvent::RunStart {
            method: s.to_string(),
            start_round: b,
            rounds: b.wrapping_add(a as usize % 100),
        },
        1 => TraceEvent::RoundStart { round: b },
        2 => TraceEvent::RoundEnd {
            round: b,
            sim_secs: f,
            failures: b % 17,
        },
        3 => TraceEvent::Dispatch {
            round: b,
            client: b % 101,
            tag: b % 7,
            params: a,
        },
        4 => TraceEvent::ClientTrain {
            round: b,
            client: b % 101,
            tag: b % 7,
            loss: g,
            samples: b % 1000,
            macs_per_sample: a,
        },
        5 => TraceEvent::Collect {
            round: b,
            client: b % 101,
            status,
            up_params: a,
        },
        6 => TraceEvent::LayerCoverage {
            round: b,
            layer: s.to_string(),
            covered: a % 1_000_000,
            total: a,
            uploads: b % 32,
        },
        7 => TraceEvent::RlDispatch {
            round: b,
            client: b % 101,
            level: b % 3,
        },
        8 => TraceEvent::RlReturn {
            round: b,
            client: b % 101,
            sent: b % 7,
            returned: if a.is_multiple_of(2) {
                None
            } else {
                Some(b % 7)
            },
        },
        9 => TraceEvent::Comm {
            round: b,
            client: b % 101,
            bytes_down: a,
            bytes_up: a / 3,
            status,
            straggled: a % 2 == 1,
        },
        10 => TraceEvent::CheckpointSave { round: b },
        11 => TraceEvent::CheckpointLoad { round: b },
        _ => TraceEvent::Eval { round: b, full: g },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse ∘ encode = identity for single event lines.
    #[test]
    fn event_lines_roundtrip(
        variant in 0usize..13,
        a in 0u64..u64::MAX,
        b in 0usize..1_000_000,
        f in -1e12f64..1e12,
        g in -1e6f32..1e6,
        sidx in 0usize..9,
    ) {
        let line = TraceLine::Event(build_event(variant, a, b, f, g, sidx));
        let text = encode_line(&line);
        prop_assert!(!text.contains('\n'), "a line must be one line: {}", text);
        let back = parse_line(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&back, &line, "roundtrip failed for {}", text);
    }

    /// Phase lines round-trip for every phase and any u64 duration.
    #[test]
    fn phase_lines_roundtrip(
        pidx in 0usize..7,
        nanos in 0u64..u64::MAX,
    ) {
        let line = TraceLine::Phase {
            phase: Phase::all()[pidx],
            nanos,
        };
        let text = encode_line(&line);
        let back = parse_line(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back, line);
    }

    /// Whole documents round-trip: N lines in, the same N lines out,
    /// in order, with blank lines tolerated.
    #[test]
    fn documents_roundtrip(
        seeds in prop::collection::vec(
            (0usize..13, 0u64..u64::MAX, 0usize..10_000, 0usize..9),
            1..20,
        ),
    ) {
        let lines: Vec<TraceLine> = seeds
            .iter()
            .map(|&(v, a, b, sidx)| {
                TraceLine::Event(build_event(v, a, b, 0.5, -1.25, sidx))
            })
            .collect();
        let mut doc = String::new();
        for (i, l) in lines.iter().enumerate() {
            doc.push_str(&encode_line(l));
            doc.push('\n');
            if i % 3 == 2 {
                doc.push('\n'); // blank separators are skipped
            }
        }
        let back = parse_document(&doc).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back, lines);
    }
}

/// `7.038531e-26` is the one positive finite `f32` whose shortest `{}`
/// text, parsed as `f64` and then cast to `f32`, lands on a different
/// `f32`: the two roundings disagree. The reader takes every float
/// through `f64` (as `serde_json` does), so the writer must print an
/// `f32` field as the shortest text of its exact `f64` widening.
#[test]
fn f32_broken_by_an_f64_detour_roundtrips() {
    let x = f32::from_bits(0x15ae_43fd);
    assert_ne!(
        x.to_string().parse::<f64>().unwrap() as f32,
        x,
        "the f64 detour no longer changes this value"
    );
    for v in [x, -x] {
        let events = [
            TraceEvent::ClientTrain {
                round: 1,
                client: 2,
                tag: 0,
                loss: v,
                samples: 10,
                macs_per_sample: 100,
            },
            TraceEvent::Eval { round: 1, full: v },
        ];
        for event in events {
            let line = TraceLine::Event(event);
            let text = encode_line(&line);
            assert_eq!(parse_line(&text).unwrap(), line, "{text}");
        }
    }
}
