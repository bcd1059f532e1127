//! In-memory spans and the benchmark's own [`Tracer`].
//!
//! A [`RunTracer`] is installed on one `Simulation` through
//! `set_tracer`. It receives the phase durations and events the program
//! already emits and keeps them in memory; [`SpanLog`] turns them into
//! a span tree (workload → cell → run → phase) once the run is over.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use adaptivefl_core::trace::{Phase, TraceEvent, Tracer};

/// Nanoseconds since `epoch`.
pub fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// One phase as it arrived: a duration that ended at arrival time.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpan {
    pub phase: Phase,
    pub start: u64,
    pub end: u64,
}

/// Everything one run reported to its tracer.
#[derive(Debug, Default)]
pub struct Recorded {
    /// Phases in arrival order.
    pub phases: Vec<PhaseSpan>,
    /// `client_train` durations of sessions that trained (paired with
    /// their `ClientTrain` event on the emitting thread).
    pub trained_ns: Vec<u64>,
    /// Samples × local epochs over sessions that trained.
    pub sample_passes: u64,
    /// Deliveries the server consumed, and how many arrived.
    pub collected: u64,
    pub delivered: u64,
    /// Deliveries whose client could not train at all.
    pub training_failed: u64,
    pending: HashMap<ThreadId, u64>,
}

/// The benchmark's tracer for one run. It only records; it never feeds
/// anything back into the run.
pub struct RunTracer {
    epoch: Instant,
    local_epochs: u64,
    inner: Mutex<Recorded>,
}

impl RunTracer {
    pub fn new(epoch: Instant, local_epochs: usize) -> Self {
        RunTracer {
            epoch,
            local_epochs: local_epochs as u64,
            inner: Mutex::new(Recorded::default()),
        }
    }

    pub fn take(&self) -> Recorded {
        std::mem::take(&mut *self.inner.lock().expect("tracer lock poisoned"))
    }
}

impl Tracer for RunTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, event: TraceEvent) {
        let mut r = self.inner.lock().expect("tracer lock poisoned");
        match event {
            TraceEvent::ClientTrain { samples, .. } => {
                let me = std::thread::current().id();
                if let Some(ns) = r.pending.remove(&me) {
                    r.trained_ns.push(ns);
                }
                r.sample_passes += samples as u64 * self.local_epochs;
            }
            TraceEvent::Collect { status, .. } => {
                r.collected += 1;
                match status {
                    "delivered" => r.delivered += 1,
                    "training_failed" => r.training_failed += 1,
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn phase(&self, phase: Phase, nanos: u64) {
        let end = since(self.epoch);
        let mut r = self.inner.lock().expect("tracer lock poisoned");
        if phase == Phase::ClientTrain {
            r.pending.insert(std::thread::current().id(), nanos);
        }
        r.phases.push(PhaseSpan {
            phase,
            start: end.saturating_sub(nanos),
            end,
        });
    }
}

/// One span of the tree.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// All spans of one traced workload run.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Adds a run's phases under `run`. Phases inside a round arrive
    /// before the round itself, so they wait until the round's own
    /// duration arrives and then become its children; `eval` and
    /// `checkpoint` sit directly under the run.
    pub fn add_phases(&mut self, run: usize, phases: &[PhaseSpan]) {
        let mut pending: Vec<usize> = Vec::new();
        for p in phases {
            match p.phase {
                Phase::Round => {
                    let round = self.push("round", p.start, p.end, Some(run));
                    for child in pending.drain(..) {
                        self.spans[child].parent = Some(round);
                    }
                }
                Phase::Eval | Phase::Checkpoint => {
                    self.push(p.phase.name(), p.start, p.end, Some(run));
                }
                _ => pending.push(self.push(p.phase.name(), p.start, p.end, Some(run))),
            }
        }
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start;
                for (a, b) in kids {
                    let a = a.max(cursor);
                    let b = b.min(s.end);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per span name, in seconds.
    pub fn self_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(layer_of(&s.name).to_string()).or_insert(0.0) += t as f64 * 1e-9;
        }
        out
    }

    /// One JSON object per line: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent`, `self_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{t}}}\n",
                s.name, s.start, s.end
            ));
        }
        out
    }
}

/// Span names carry an instance suffix after `:` (a cell slug, a model
/// name); the layer is the part before it.
fn layer_of(name: &str) -> &str {
    name.split(':').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::default();
        let root = log.push("run", 0, 100, None);
        log.push("a", 10, 40, Some(root));
        log.push("b", 30, 60, Some(root));
        log.push("c", 90, 120, Some(root));
        assert_eq!(log.self_times()[root], 100 - 50 - 10);
    }

    #[test]
    fn round_children_arrive_before_the_round() {
        let mut log = SpanLog::default();
        let run = log.push("run", 0, 100, None);
        let p = |phase, start, end| PhaseSpan { phase, start, end };
        log.add_phases(
            run,
            &[
                p(Phase::Dispatch, 1, 2),
                p(Phase::ClientTrain, 2, 8),
                p(Phase::Round, 0, 10),
                p(Phase::Eval, 10, 12),
            ],
        );
        let round = log.spans.iter().position(|s| s.name == "round").unwrap();
        assert_eq!(log.spans[1].parent, Some(round));
        assert_eq!(log.spans[2].parent, Some(round));
        assert_eq!(log.spans[4].parent, Some(run));
        assert_eq!(log.self_times()[round], 10 - 7);
    }
}
