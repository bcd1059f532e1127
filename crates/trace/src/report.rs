//! [`TraceReport`]: folds trace lines into the two tables the bench
//! `trace_report` bin prints — a per-phase wall-time breakdown and a
//! per-layer Algorithm-2 aggregation-coverage table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use adaptivefl_core::trace::{Phase, TraceEvent};

use crate::jsonl::TraceLine;
use crate::record::DurationHistogram;

/// Coverage accounting for one parameter tensor across all aggregation
/// events that touched it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCoverage {
    /// Number of aggregation events (≈ rounds; Decoupled emits one per
    /// level model).
    pub events: usize,
    /// Total uploads that contributed across events.
    pub uploads: usize,
    /// Σ covered elements across events.
    pub covered_sum: u64,
    /// Σ total elements across events.
    pub total_sum: u64,
    /// Smallest per-event coverage fraction seen.
    pub min_fraction: f64,
    /// Largest per-event coverage fraction seen.
    pub max_fraction: f64,
}

impl LayerCoverage {
    fn fold(&mut self, covered: u64, total: u64, uploads: usize) {
        let frac = if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        };
        if self.events == 0 {
            self.min_fraction = frac;
            self.max_fraction = frac;
        } else {
            self.min_fraction = self.min_fraction.min(frac);
            self.max_fraction = self.max_fraction.max(frac);
        }
        self.events += 1;
        self.uploads += uploads;
        self.covered_sum += covered;
        self.total_sum += total;
    }

    /// Mean coverage fraction, weighted by tensor size.
    pub fn mean_fraction(&self) -> f64 {
        if self.total_sum == 0 {
            0.0
        } else {
            self.covered_sum as f64 / self.total_sum as f64
        }
    }
}

/// Aggregated view of one or more traces.
#[derive(Default)]
pub struct TraceReport {
    /// Methods seen in `run_start` events, in arrival order.
    pub methods: Vec<String>,
    /// Per-phase duration summaries.
    pub phases: BTreeMap<&'static str, DurationHistogram>,
    /// Per-layer coverage, keyed by parameter name.
    pub coverage: BTreeMap<String, LayerCoverage>,
    /// Event counts keyed by [`TraceEvent::kind`].
    pub event_counts: BTreeMap<&'static str, usize>,
    /// Rounds observed (`round_end` events).
    pub rounds: usize,
    /// Total failures summed over `round_end` events.
    pub failures: usize,
    /// Total simulated seconds summed over `round_end` events.
    pub sim_secs: f64,
}

impl TraceReport {
    /// An empty report; fold lines in with [`TraceReport::add_lines`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a report from one parsed trace.
    pub fn from_lines(lines: &[TraceLine]) -> Self {
        let mut r = Self::new();
        r.add_lines(lines);
        r
    }

    /// Folds more lines in (merging multiple runs into one report).
    pub fn add_lines(&mut self, lines: &[TraceLine]) {
        for line in lines {
            match line {
                TraceLine::Phase { phase, nanos } => {
                    self.phases.entry(phase.name()).or_default().record(*nanos);
                }
                TraceLine::Event(e) => {
                    *self.event_counts.entry(e.kind()).or_default() += 1;
                    match e {
                        TraceEvent::RunStart { method, .. } if !self.methods.contains(method) => {
                            self.methods.push(method.clone());
                        }
                        TraceEvent::RoundEnd {
                            sim_secs, failures, ..
                        } => {
                            self.rounds += 1;
                            self.failures += *failures;
                            self.sim_secs += *sim_secs;
                        }
                        TraceEvent::LayerCoverage {
                            layer,
                            covered,
                            total,
                            uploads,
                            ..
                        } => {
                            self.coverage
                                .entry(layer.clone())
                                .or_default()
                                .fold(*covered, *total, *uploads);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let methods = if self.methods.is_empty() {
            "(no run_start events)".to_string()
        } else {
            self.methods.join(", ")
        };
        writeln!(out, "trace report — methods: {methods}").unwrap();
        writeln!(
            out,
            "rounds: {}   failures: {}   simulated: {:.3}s",
            self.rounds, self.failures, self.sim_secs
        )
        .unwrap();

        let total_events: usize = self.event_counts.values().sum();
        let counts: Vec<String> = self
            .event_counts
            .iter()
            .map(|(k, n)| format!("{k} {n}"))
            .collect();
        writeln!(out, "events: {total_events} ({})", counts.join(", ")).unwrap();

        writeln!(out).unwrap();
        writeln!(out, "phase breakdown (wall clock)").unwrap();
        writeln!(
            out,
            "{:<14} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "phase", "count", "total", "mean", "min", "max"
        )
        .unwrap();
        for phase in Phase::all() {
            let Some(h) = self.phases.get(phase.name()) else {
                continue;
            };
            writeln!(
                out,
                "{:<14} {:>7} {:>10} {:>10} {:>10} {:>10}",
                phase.name(),
                h.count(),
                fmt_nanos(h.total_nanos()),
                fmt_nanos(h.mean_nanos()),
                fmt_nanos(h.min_nanos()),
                fmt_nanos(h.max_nanos()),
            )
            .unwrap();
        }

        if !self.coverage.is_empty() {
            writeln!(out).unwrap();
            writeln!(out, "per-layer aggregation coverage (Algorithm 2)").unwrap();
            writeln!(
                out,
                "{:<28} {:>7} {:>8} {:>9} {:>9} {:>9}",
                "layer", "events", "uploads", "mean", "min", "max"
            )
            .unwrap();
            for (layer, c) in &self.coverage {
                writeln!(
                    out,
                    "{:<28} {:>7} {:>8} {:>8.1}% {:>8.1}% {:>8.1}%",
                    layer,
                    c.events,
                    c.uploads,
                    100.0 * c.mean_fraction(),
                    100.0 * c.min_fraction,
                    100.0 * c.max_fraction,
                )
                .unwrap();
            }
        }
        out
    }
}

/// Formats nanoseconds with a human unit (ns/µs/ms/s).
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", nanos as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lines() -> Vec<TraceLine> {
        vec![
            TraceLine::Event(TraceEvent::RunStart {
                method: "AdaptiveFL".into(),
                start_round: 0,
                rounds: 2,
            }),
            TraceLine::Phase {
                phase: Phase::Round,
                nanos: 2_000_000,
            },
            TraceLine::Event(TraceEvent::LayerCoverage {
                round: 0,
                layer: "conv1.weight".into(),
                covered: 50,
                total: 100,
                uploads: 3,
            }),
            TraceLine::Event(TraceEvent::RoundEnd {
                round: 0,
                sim_secs: 1.5,
                failures: 1,
            }),
            TraceLine::Phase {
                phase: Phase::Round,
                nanos: 4_000_000,
            },
            TraceLine::Event(TraceEvent::LayerCoverage {
                round: 1,
                layer: "conv1.weight".into(),
                covered: 100,
                total: 100,
                uploads: 4,
            }),
            TraceLine::Event(TraceEvent::RoundEnd {
                round: 1,
                sim_secs: 2.5,
                failures: 0,
            }),
        ]
    }

    #[test]
    fn report_folds_phases_and_coverage() {
        let r = TraceReport::from_lines(&sample_lines());
        assert_eq!(r.methods, vec!["AdaptiveFL".to_string()]);
        assert_eq!(r.rounds, 2);
        assert_eq!(r.failures, 1);
        assert!((r.sim_secs - 4.0).abs() < 1e-12);
        let h = &r.phases["round"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.total_nanos(), 6_000_000);
        let c = &r.coverage["conv1.weight"];
        assert_eq!(c.events, 2);
        assert_eq!(c.uploads, 7);
        assert!((c.mean_fraction() - 0.75).abs() < 1e-12);
        assert!((c.min_fraction - 0.5).abs() < 1e-12);
        assert!((c.max_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_both_tables() {
        let text = TraceReport::from_lines(&sample_lines()).render();
        assert!(text.contains("phase breakdown"), "{text}");
        assert!(text.contains("per-layer aggregation coverage"), "{text}");
        assert!(text.contains("conv1.weight"), "{text}");
        assert!(text.contains("AdaptiveFL"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
    }

    #[test]
    fn fmt_nanos_picks_units() {
        assert_eq!(fmt_nanos(999), "999ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_000_000), "2.0ms");
        assert_eq!(fmt_nanos(3_210_000_000), "3.21s");
    }
}
