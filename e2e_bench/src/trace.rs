//! Spans for the traced run.
//!
//! The benchmark records a span around each of its own calls into the runtime
//! (`Session::builder(..).build()`, `submit_pilot`, `submit_tasks`, the waits,
//! `close`). Entity-lifecycle spans are rebuilt afterwards from each handle's public
//! `timestamps()`, converted from virtual to real time by the clock scale. No
//! tracing runs inside the program. Spans stay in memory; `write_jsonl` writes them
//! out at the end.
//!
//! Attribution follows the blocking path of one iteration: the root span covers the
//! whole iteration, its children are the benchmark's calls in order, and each wait
//! has as children the lifecycle segments of the entity that finished last (the one
//! the wait was blocked on), clipped to the wait. A span's self time is its duration
//! minus the part its children cover; the root's self time is the `unattributed` row.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// State → segment name for a task's lifecycle (the segment runs until the next state).
pub const TASK_CHAIN: &[(&str, &str)] = &[
    ("New", "executor.start"),
    ("Scheduling", "scheduler.place"),
    ("Executing", "task.exec"),
    ("Done", ""),
];

/// State → segment name for a service's bootstrap.
pub const SERVICE_CHAIN: &[(&str, &str)] = &[
    ("New", "service.start"),
    ("Scheduling", "service.place"),
    ("Launching", "service.launch"),
    ("Initializing", "service.init"),
    ("Publishing", "service.publish"),
    ("Ready", ""),
];

/// Rows of the attribution table, in blocking-path order, with the layer each
/// row's self time is charged to.
pub const ROWS: &[(&str, &str)] = &[
    ("session.build", "session"),
    ("session.submit_pilot", "pilot"),
    ("session.submit_service", "session"),
    ("service.start", "executor"),
    ("service.place", "scheduler"),
    ("service.launch", "executor"),
    ("service.init", "serving"),
    ("service.publish", "registry"),
    ("service.wait_ready", "session"),
    ("session.subscribe_updates", "pubsub"),
    ("session.submit_tasks", "session/executor"),
    ("executor.start", "executor"),
    ("scheduler.place", "scheduler"),
    ("task.exec", "clock"),
    ("request.communication", "reqrep/link"),
    ("request.service", "serving"),
    ("request.inference", "serving"),
    ("tasks.wait_done", "session"),
    ("session.close", "session/executor"),
    (UNATTRIBUTED, "-"),
];

/// Name of the root span's self-time row.
pub const UNATTRIBUTED: &str = "unattributed";

/// One span; times are real seconds since the iteration started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub trace_id: String,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Maps the session's virtual timestamps onto the iteration's real time axis.
#[derive(Debug, Clone, Copy)]
pub struct VirtualToReal {
    /// Real seconds since the iteration start at the anchor.
    pub anchor_real: f64,
    /// Session virtual seconds at the anchor.
    pub anchor_virtual: f64,
    pub scale: f64,
}

impl VirtualToReal {
    pub fn real(&self, virtual_secs: f64) -> f64 {
        self.anchor_real + (virtual_secs - self.anchor_virtual) / self.scale
    }
}

/// Lifecycle segments `(name, start, end)` of one entity.
pub type Segments = Vec<(&'static str, f64, f64)>;

/// Lifecycle segments `(name, virtual start, virtual end)` between the states of
/// `chain` present in `timestamps`.
pub fn lifecycle(timestamps: &BTreeMap<String, f64>, chain: &[(&str, &'static str)]) -> Segments {
    let present: Vec<(&'static str, f64)> = chain
        .iter()
        .filter_map(|(state, segment)| timestamps.get(*state).map(|t| (*segment, *t)))
        .collect();
    present
        .windows(2)
        .map(|w| (w[0].0, w[0].1, w[1].1))
        .collect()
}

/// The spans of one traced iteration.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// The blocking-path tree; index 0 is the root (the whole iteration).
    pub path: Vec<Span>,
    /// Every rebuilt entity-lifecycle span (written out, not attributed).
    pub entities: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            path: vec![Span {
                name: "iteration",
                start: 0.0,
                end: 0.0,
                parent: None,
                trace_id: String::new(),
            }],
            entities: Vec::new(),
        }
    }

    /// Real seconds since the iteration started.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Record a top-level call span `[start, end]`.
    pub fn call(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let (start, end) = (self.at(start), self.at(end));
        self.push(name, start, end, Some(0), String::new())
    }

    /// Close the root span at `end` and name its trace.
    pub fn finish(&mut self, end: Instant, trace_id: &str) {
        self.path[0].end = self.at(end);
        self.path[0].trace_id = trace_id.to_string();
    }

    fn push(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        trace_id: String,
    ) -> usize {
        self.path.push(Span {
            name,
            start,
            end,
            parent,
            trace_id,
        });
        self.path.len() - 1
    }

    /// Attach the critical entity's lifecycle segments (real seconds) under
    /// `parent`, clipped to it. Returns the indices of the attached spans.
    pub fn attach_chain(
        &mut self,
        parent: usize,
        segments: &[(&'static str, f64, f64)],
        trace_id: &str,
    ) -> Vec<usize> {
        let (lo, hi) = (self.path[parent].start, self.path[parent].end);
        let mut attached = Vec::new();
        for &(name, start, end) in segments {
            let (start, end) = (start.max(lo), end.min(hi));
            if end > start {
                attached.push(self.push(name, start, end, Some(parent), trace_id.to_string()));
            }
        }
        attached
    }

    /// Split span `parent` into contiguous children holding `fractions` of its
    /// duration (used to apportion a client's execution among request components).
    pub fn apportion(&mut self, parent: usize, fractions: &[(&'static str, f64)]) {
        let (mut cursor, secs) = (self.path[parent].start, self.path[parent].secs());
        let trace_id = self.path[parent].trace_id.clone();
        for &(name, fraction) in fractions {
            let len = secs * fraction.clamp(0.0, 1.0);
            if len > 0.0 && cursor + len <= self.path[parent].end + 1e-12 {
                self.push(name, cursor, cursor + len, Some(parent), trace_id.clone());
                cursor += len;
            }
        }
    }

    /// Record an entity-lifecycle span (not part of the blocking path).
    pub fn entity(&mut self, name: &'static str, start: f64, end: f64, trace_id: &str) {
        self.entities.push(Span {
            name,
            start,
            end,
            parent: None,
            trace_id: trace_id.to_string(),
        });
    }

    /// Self time per row: each span's duration minus its children's coverage;
    /// the root's self time is [`UNATTRIBUTED`]. The rows sum to the root's duration.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0; self.path.len()];
        for span in &self.path {
            if let Some(p) = span.parent {
                covered[p] += span.secs();
            }
        }
        let mut rows = BTreeMap::new();
        for (i, span) in self.path.iter().enumerate() {
            let name = if i == 0 { UNATTRIBUTED } else { span.name };
            *rows.entry(name).or_insert(0.0) += span.secs() - covered[i];
        }
        rows
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (kind, spans) in [("path", &self.path), ("entity", &self.entities)] {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"kind\":\"{kind}\",\"index\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"trace_id\":\"{}\"}}",
                    s.name, s.start, s.end, s.trace_id
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_sum_to_the_root() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let wait = t.call(
            "tasks.wait_done",
            origin + Duration::from_millis(10),
            origin + Duration::from_millis(50),
        );
        // Chain starts before the wait: the part before it is clipped off.
        let chain = [
            ("executor.start", 0.005, 0.020),
            ("scheduler.place", 0.020, 0.030),
            ("task.exec", 0.030, 0.045),
        ];
        let attached = t.attach_chain(wait, &chain, "task.1");
        assert_eq!(attached.len(), 3);
        t.apportion(attached[2], &[("request.communication", 0.5)]);
        t.finish(origin + Duration::from_millis(60), "s");
        let rows = t.self_times();
        let sum: f64 = rows.values().sum();
        assert!((sum - 0.060).abs() < 1e-9, "{rows:?}");
        assert!((rows["executor.start"] - 0.010).abs() < 1e-9);
        assert!((rows["task.exec"] - 0.0075).abs() < 1e-9);
        assert!((rows["request.communication"] - 0.0075).abs() < 1e-9);
        assert!((rows["tasks.wait_done"] - 0.005).abs() < 1e-9);
        assert!((rows[UNATTRIBUTED] - 0.020).abs() < 1e-9);
    }

    #[test]
    fn lifecycle_skips_missing_states() {
        let ts: BTreeMap<String, f64> = [("New", 1.0), ("Scheduling", 2.0), ("Done", 5.0)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let segs = lifecycle(&ts, TASK_CHAIN);
        assert_eq!(
            segs,
            vec![("executor.start", 1.0, 2.0), ("scheduler.place", 2.0, 5.0)]
        );
    }
}
