//! Heterogeneous model aggregation — Algorithm 2 of the paper.
//!
//! Every uploaded submodel contributes `w · |d_c|` to the accumulator
//! of each parameter element it covers (prefix block of the full
//! tensor); covered elements become the weighted average, untouched
//! elements keep their previous global value (line 14 of Algorithm 2).

use adaptivefl_nn::ParamMap;
use adaptivefl_tensor::{Scratch, SliceSpec};

use crate::trace::{TraceEvent, Tracer};

/// One client upload: the trained submodel parameters and the client's
/// local data size `|d_c|` (the aggregation weight).
#[derive(Debug, Clone)]
pub struct Upload {
    /// Trained submodel parameters.
    pub params: ParamMap,
    /// Local data size `|d_c|`.
    pub weight: f32,
}

/// Aggregates uploads into the global model in place (Algorithm 2).
///
/// Upload tensors must be prefix blocks of the corresponding global
/// tensors. The walk goes over the global map's names, so an upload
/// parameter whose name the global map lacks is skipped silently, and
/// a global parameter no upload carries keeps its value.
///
/// # Panics
///
/// Panics if an upload tensor has a non-nested shape or an upload has
/// a non-positive weight.
pub fn aggregate(global: &mut ParamMap, uploads: &[Upload]) {
    aggregate_with_scratch(
        global,
        uploads,
        &crate::trace::NoopTracer,
        0,
        &Scratch::new(),
    );
}

/// [`aggregate`] with per-layer element-coverage reporting and a
/// [`Scratch`] arena.
///
/// When the tracer is enabled, emits one [`TraceEvent::LayerCoverage`]
/// per touched parameter tensor counting how many elements were covered
/// by at least one upload (Algorithm 2's covered/kept split). Coverage
/// is counted from the same `cnt` accumulator the averaging already
/// computes, so tracing cannot perturb the result.
///
/// The per-parameter `acc`/`cnt` accumulators come from `scratch`, so a
/// long run allocates them once instead of twice per parameter per
/// round. The arithmetic is identical to [`aggregate`]: the arena hands
/// out zeroed buffers, and unknown upload parameter names are skipped.
pub fn aggregate_with_scratch(
    global: &mut ParamMap,
    uploads: &[Upload],
    tracer: &dyn Tracer,
    round: usize,
    scratch: &Scratch,
) {
    if uploads.is_empty() {
        return;
    }
    for u in uploads {
        assert!(u.weight > 0.0, "upload weight must be positive");
    }
    // Accumulate per parameter name, iterating the map in place (the
    // name-ordered walk is deterministic; no name-list clone needed).
    for (name, g) in global.iter_mut() {
        let mut acc = scratch.take_tensor(g.shape());
        let mut cnt = scratch.take_tensor(g.shape());
        let mut contributors = 0usize;
        for u in uploads {
            if let Some(block) = u.params.get(name) {
                let spec = SliceSpec::new(block.shape().to_vec());
                assert!(
                    spec.fits_in(g.shape()),
                    "upload for {name} has non-nested shape {:?} vs {:?}",
                    block.shape(),
                    g.shape()
                );
                spec.scatter_add(block, u.weight, &mut acc, &mut cnt);
                contributors += 1;
            }
        }
        if contributors > 0 {
            let gv = g.as_mut_slice();
            let av = acc.as_slice();
            let cv = cnt.as_slice();
            for i in 0..gv.len() {
                if cv[i] > 0.0 {
                    gv[i] = av[i] / cv[i];
                }
                // else: keep the previous global value (Algorithm 2, l.14).
            }
            if tracer.enabled() {
                let covered = cv.iter().filter(|&&c| c > 0.0).count() as u64;
                tracer.event(TraceEvent::LayerCoverage {
                    round,
                    layer: name.to_string(),
                    covered,
                    total: cv.len() as u64,
                    uploads: contributors,
                });
            }
        }
        scratch.recycle_tensor(acc);
        scratch.recycle_tensor(cnt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivefl_tensor::Tensor;

    fn map(pairs: &[(&str, Tensor)]) -> ParamMap {
        let mut m = ParamMap::new();
        for (n, t) in pairs {
            m.insert(*n, t.clone());
        }
        m
    }

    #[test]
    fn homogeneous_uploads_reduce_to_fedavg() {
        let mut global = map(&[("w", Tensor::zeros(&[2, 2]))]);
        let u1 = Upload {
            params: map(&[("w", Tensor::full(&[2, 2], 1.0))]),
            weight: 10.0,
        };
        let u2 = Upload {
            params: map(&[("w", Tensor::full(&[2, 2], 4.0))]),
            weight: 30.0,
        };
        aggregate(&mut global, &[u1, u2]);
        // (1·10 + 4·30)/40 = 3.25 everywhere.
        assert!(global
            .get("w")
            .unwrap()
            .as_slice()
            .iter()
            .all(|&v| (v - 3.25).abs() < 1e-6));
    }

    #[test]
    fn uncovered_elements_keep_previous_values() {
        let mut global = map(&[("w", Tensor::full(&[3, 3], 7.0))]);
        let small = Upload {
            params: map(&[("w", Tensor::full(&[2, 2], 1.0))]),
            weight: 5.0,
        };
        aggregate(&mut global, &[small]);
        let g = global.get("w").unwrap();
        assert_eq!(g.at(&[0, 0]), 1.0);
        assert_eq!(g.at(&[1, 1]), 1.0);
        assert_eq!(g.at(&[2, 2]), 7.0); // untouched
        assert_eq!(g.at(&[0, 2]), 7.0); // untouched
    }

    #[test]
    fn heterogeneous_overlap_weights_by_data_size() {
        let mut global = map(&[("w", Tensor::zeros(&[2]))]);
        // Small client covers element 0 only; big client covers both.
        let small = Upload {
            params: map(&[("w", Tensor::full(&[1], 0.0))]),
            weight: 10.0,
        };
        let big = Upload {
            params: map(&[("w", Tensor::full(&[2], 3.0))]),
            weight: 10.0,
        };
        aggregate(&mut global, &[small, big]);
        let g = global.get("w").unwrap();
        assert!((g.as_slice()[0] - 1.5).abs() < 1e-6); // (0·10+3·10)/20
        assert!((g.as_slice()[1] - 3.0).abs() < 1e-6); // only big
    }

    #[test]
    fn uploads_may_omit_whole_parameters() {
        // E.g. a depth-pruned ScaleFL client omits deep-layer params.
        let mut global = map(&[
            ("deep", Tensor::full(&[2], 9.0)),
            ("shallow", Tensor::zeros(&[2])),
        ]);
        let u = Upload {
            params: map(&[("shallow", Tensor::ones(&[2]))]),
            weight: 1.0,
        };
        aggregate(&mut global, &[u]);
        assert_eq!(global.get("deep").unwrap().as_slice(), &[9.0, 9.0]);
        assert_eq!(global.get("shallow").unwrap().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn empty_upload_list_is_noop() {
        let mut global = map(&[("w", Tensor::full(&[2], 5.0))]);
        let before = global.clone();
        aggregate(&mut global, &[]);
        assert_eq!(global, before);
    }

    #[test]
    fn dirty_scratch_arena_does_not_perturb_results() {
        use crate::trace::NoopTracer;
        let build = || {
            map(&[
                ("a", Tensor::full(&[3, 3], 7.0)),
                ("b", Tensor::zeros(&[4])),
            ])
        };
        let uploads = vec![
            Upload {
                params: map(&[("a", Tensor::full(&[2, 2], 1.0)), ("b", Tensor::ones(&[2]))]),
                weight: 5.0,
            },
            Upload {
                params: map(&[("a", Tensor::full(&[3, 3], 4.0))]),
                weight: 3.0,
            },
        ];
        let mut fresh = build();
        aggregate(&mut fresh, &uploads);
        // Salt the arena with dirty buffers of the exact sizes the
        // aggregation will request; results must not change.
        let scratch = Scratch::new();
        for len in [9, 9, 4, 4] {
            let mut b = scratch.take(len);
            b.fill(1234.5);
            scratch.recycle(b);
        }
        let mut pooled = build();
        aggregate_with_scratch(&mut pooled, &uploads, &NoopTracer, 0, &scratch);
        assert_eq!(fresh, pooled);
        assert!(scratch.reuses() > 0, "arena was never reused");
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn rejects_zero_weight() {
        let mut global = map(&[("w", Tensor::zeros(&[1]))]);
        let u = Upload {
            params: map(&[("w", Tensor::zeros(&[1]))]),
            weight: 0.0,
        };
        aggregate(&mut global, &[u]);
    }

    #[test]
    fn aggregation_preserves_nesting_semantics() {
        // Three nested uploads: sizes 1, 2, 3 of a length-3 vector.
        let mut global = map(&[("w", Tensor::zeros(&[3]))]);
        let us: Vec<Upload> = (1..=3)
            .map(|k| Upload {
                params: map(&[("w", Tensor::full(&[k], k as f32))]),
                weight: 1.0,
            })
            .collect();
        aggregate(&mut global, &us);
        let g = global.get("w").unwrap();
        // Element 0: mean(1,2,3)=2; element 1: mean(2,3)=2.5; element 2: 3.
        assert!((g.as_slice()[0] - 2.0).abs() < 1e-6);
        assert!((g.as_slice()[1] - 2.5).abs() < 1e-6);
        assert!((g.as_slice()[2] - 3.0).abs() < 1e-6);
    }
}
