//! In-memory tracer: captures every event and folds phase durations
//! into count/total/min/max summaries.

use std::collections::HashMap;
use std::sync::Mutex;

use adaptivefl_core::trace::{Phase, TraceEvent, Tracer};

/// Count, total, min and max of monotonic nanosecond durations: the
/// columns the trace report prints per phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurationHistogram {
    count: u64,
    total_nanos: u64,
    min_nanos: u64,
    max_nanos: u64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            count: 0,
            total_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }
}

impl DurationHistogram {
    /// Folds one sample in.
    pub fn record(&mut self, nanos: u64) {
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, nanoseconds (saturating).
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos
    }

    /// Smallest sample (0 when empty).
    pub fn min_nanos(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_nanos
        }
    }

    /// Largest sample.
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// Mean sample (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Default)]
struct Recording {
    events: Vec<TraceEvent>,
    phases: HashMap<Phase, DurationHistogram>,
}

/// A tracer that keeps everything in memory — the workhorse of tests
/// and ad-hoc analysis. Thread-safe: client jobs on transport worker
/// threads append through the same mutex, and event order within one
/// thread is preserved.
#[derive(Default)]
pub struct RecordingTracer {
    inner: Mutex<Recording>,
}

impl RecordingTracer {
    /// An empty recording tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every captured event, in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().expect("tracer poisoned").events.clone()
    }

    /// Number of captured events.
    pub fn event_count(&self) -> usize {
        self.inner.lock().expect("tracer poisoned").events.len()
    }

    /// Events matching a predicate.
    pub fn events_where(&self, pred: impl Fn(&TraceEvent) -> bool) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .expect("tracer poisoned")
            .events
            .iter()
            .filter(|e| pred(e))
            .cloned()
            .collect()
    }

    /// The duration histogram of one phase (`None` if never timed).
    pub fn histogram(&self, phase: Phase) -> Option<DurationHistogram> {
        self.inner
            .lock()
            .expect("tracer poisoned")
            .phases
            .get(&phase)
            .cloned()
    }
}

impl Tracer for RecordingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, event: TraceEvent) {
        self.inner
            .lock()
            .expect("tracer poisoned")
            .events
            .push(event);
    }

    fn phase(&self, phase: Phase, nanos: u64) {
        self.inner
            .lock()
            .expect("tracer poisoned")
            .phases
            .entry(phase)
            .or_default()
            .record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_min_max_and_total() {
        let mut h = DurationHistogram::default();
        for n in [7, 3, 1024, 8] {
            h.record(n);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.total_nanos(), 1042);
        assert_eq!(h.mean_nanos(), 260);
        assert_eq!(h.min_nanos(), 3);
        assert_eq!(h.max_nanos(), 1024);
        // Zero is a valid minimum and the total saturates.
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min_nanos(), 0);
        assert_eq!(h.max_nanos(), u64::MAX);
        assert_eq!(h.total_nanos(), u64::MAX);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = DurationHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_nanos(), 0);
        assert_eq!(h.max_nanos(), 0);
        assert_eq!(h.mean_nanos(), 0);
    }

    #[test]
    fn recording_tracer_captures_events_and_phases() {
        let t = RecordingTracer::new();
        assert!(t.enabled());
        t.event(TraceEvent::RoundStart { round: 0 });
        t.event(TraceEvent::RoundStart { round: 1 });
        t.event(TraceEvent::Eval {
            round: 1,
            full: 0.5,
        });
        t.phase(Phase::Round, 100);
        t.phase(Phase::Round, 300);
        t.phase(Phase::Eval, 50);

        assert_eq!(t.event_count(), 3);
        let h = t.histogram(Phase::Round).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.total_nanos(), 400);
        assert_eq!(h.mean_nanos(), 200);
        assert!(t.histogram(Phase::Aggregate).is_none());
        assert_eq!(
            t.events_where(|e| matches!(e, TraceEvent::RoundStart { .. }))
                .len(),
            2
        );
    }
}
