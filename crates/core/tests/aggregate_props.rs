//! Property tests for Algorithm 2 (heterogeneous aggregation):
//! uncovered elements keep the previous global value bit-for-bit, and
//! covered elements are the data-size-weighted mean of their
//! contributors — reproduced exactly by a same-order f32 replica and
//! within float tolerance of an f64 reference.

use std::sync::Mutex;

use adaptivefl_core::aggregate::{aggregate, aggregate_with_scratch, Upload};
use adaptivefl_core::trace::{Phase, TraceEvent, Tracer};
use adaptivefl_nn::ParamMap;
use adaptivefl_tensor::{Scratch, Tensor};
use proptest::prelude::*;

fn one_param(name: &str, t: Tensor) -> ParamMap {
    let mut m = ParamMap::new();
    m.insert(name, t);
    m
}

/// Uploads drawn as (prefix length, constant value, weight) triples
/// over a length-`n` global vector.
fn build_uploads(n: usize, draws: &[(usize, f32, f32)]) -> Vec<Upload> {
    draws
        .iter()
        .map(|&(k, v, w)| Upload {
            params: one_param("w", Tensor::full(&[1 + k % n], v)),
            weight: w,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Line 14 of Algorithm 2: an element no upload covers keeps its
    /// previous global value, bit-for-bit.
    #[test]
    fn uncovered_elements_keep_previous_value(
        n in 2usize..16,
        init in -8.0f32..8.0,
        draws in prop::collection::vec(
            (0usize..64, -4.0f32..4.0, 0.5f32..40.0),
            1..6,
        ),
    ) {
        let before = Tensor::full(&[n], init);
        let mut global = one_param("w", before.clone());
        let uploads = build_uploads(n, &draws);
        let covered = uploads
            .iter()
            .map(|u| u.params.get("w").unwrap().shape()[0])
            .max()
            .unwrap();
        aggregate(&mut global, &uploads);
        let after = global.get("w").unwrap();
        for i in covered..n {
            prop_assert_eq!(
                after.as_slice()[i].to_bits(),
                before.as_slice()[i].to_bits(),
                "uncovered element {} changed", i
            );
        }
        // And every covered element did change ownership: with at
        // least one contributor its value is defined by the uploads
        // alone, so re-aggregating into a different global gives the
        // same covered prefix.
        let mut other = one_param("w", Tensor::full(&[n], init + 100.0));
        aggregate(&mut other, &uploads);
        for i in 0..covered {
            prop_assert_eq!(
                other.get("w").unwrap().as_slice()[i].to_bits(),
                after.as_slice()[i].to_bits(),
                "covered element {} depends on the previous global", i
            );
        }
    }

    /// Covered elements equal the data-size-weighted mean: exactly the
    /// same-order f32 accumulation (bit-for-bit), and within a loose
    /// bound of the f64 reference mean.
    #[test]
    fn covered_elements_are_weighted_mean(
        n in 1usize..12,
        draws in prop::collection::vec(
            (0usize..64, -4.0f32..4.0, 0.5f32..40.0),
            1..6,
        ),
    ) {
        let mut global = one_param("w", Tensor::full(&[n], 9.25));
        let uploads = build_uploads(n, &draws);
        aggregate(&mut global, &uploads);
        let after = global.get("w").unwrap();
        for i in 0..n {
            // Same-order f32 replica of the accumulator.
            let mut acc = 0.0f32;
            let mut cnt = 0.0f32;
            // f64 reference for the mathematical weighted mean.
            let mut acc64 = 0.0f64;
            let mut cnt64 = 0.0f64;
            for u in &uploads {
                let block = u.params.get("w").unwrap();
                if i < block.shape()[0] {
                    let v = block.as_slice()[i];
                    acc += u.weight * v;
                    cnt += u.weight;
                    acc64 += u.weight as f64 * v as f64;
                    cnt64 += u.weight as f64;
                }
            }
            if cnt == 0.0 {
                continue; // uncovered, checked elsewhere
            }
            let got = after.as_slice()[i];
            prop_assert_eq!(
                got.to_bits(),
                (acc / cnt).to_bits(),
                "element {} is not the same-order f32 weighted mean", i
            );
            let reference = (acc64 / cnt64) as f32;
            let ulp = (reference.abs() * f32::EPSILON).max(f32::MIN_POSITIVE);
            // ≤ 5 uploads ⇒ at most 9 f32 roundings ⇒ a few ULP.
            prop_assert!(
                (got - reference).abs() <= 16.0 * ulp,
                "element {} drifted from the f64 reference: {} vs {}",
                i, got, reference
            );
        }
    }
}

/// A minimal collecting tracer local to this test (the real recording
/// tracer lives downstream in `adaptivefl-trace`).
#[derive(Default)]
struct CoverageTracer {
    events: Mutex<Vec<TraceEvent>>,
}

impl Tracer for CoverageTracer {
    fn enabled(&self) -> bool {
        true
    }
    fn event(&self, event: TraceEvent) {
        self.events.lock().unwrap().push(event);
    }
    fn phase(&self, _phase: Phase, _nanos: u64) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The coverage events `aggregate_with_scratch` emits agree with an
    /// independent count of covered elements, and tracing leaves the
    /// aggregation result bit-identical.
    #[test]
    fn layer_coverage_events_match_reality(
        n in 1usize..12,
        draws in prop::collection::vec(
            (0usize..64, -4.0f32..4.0, 0.5f32..40.0),
            1..6,
        ),
    ) {
        let mut traced = one_param("w", Tensor::full(&[n], 1.5));
        let mut untraced = traced.clone();
        let uploads = build_uploads(n, &draws);
        let tracer = CoverageTracer::default();
        aggregate_with_scratch(&mut traced, &uploads, &tracer, 7, &Scratch::new());
        aggregate(&mut untraced, &uploads);
        for (a, b) in traced
            .get("w").unwrap().as_slice().iter()
            .zip(untraced.get("w").unwrap().as_slice())
        {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "tracing perturbed aggregation");
        }

        let covered_want = uploads
            .iter()
            .map(|u| u.params.get("w").unwrap().shape()[0])
            .max()
            .unwrap()
            .min(n) as u64;
        let events = tracer.events.lock().unwrap();
        prop_assert_eq!(events.len(), 1);
        match &events[0] {
            TraceEvent::LayerCoverage { round, layer, covered, total, uploads: nup } => {
                prop_assert_eq!(*round, 7usize);
                prop_assert_eq!(layer.as_str(), "w");
                prop_assert_eq!(*covered, covered_want);
                prop_assert_eq!(*total, n as u64);
                prop_assert_eq!(*nup, uploads.len());
            }
            other => return Err(TestCaseError::fail(format!("unexpected event {other:?}"))),
        }
    }
}
