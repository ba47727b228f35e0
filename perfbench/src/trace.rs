//! The traced run's span recorder. Spans are recorded by the benchmark
//! around its own calls into each layer, kept in memory, and reduced to
//! per-layer metrics (or written out) when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within the run.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer call, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Model index, when the call concerns one model.
    pub model: Option<usize>,
    /// Backend index, when the call concerns one backend.
    pub backend: Option<usize>,
    /// Start, in ns since the recorder was made.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Work the call did, in the layer's unit (cycles, words, lines, …).
    pub work: u64,
}

/// Where a span belongs: its name, model and backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    /// Layer call.
    pub name: &'static str,
    /// Model index.
    pub model: Option<usize>,
    /// Backend index.
    pub backend: Option<usize>,
}

impl Key {
    /// A key for `name` on `model` and `backend`.
    #[must_use]
    pub fn new(name: &'static str, model: Option<usize>, backend: Option<usize>) -> Key {
        Key { name, model, backend }
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Records a finished call and returns its id.
    pub fn record(
        &mut self,
        key: Key,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
        work: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name: key.name,
            model: key.model,
            backend: key.backend,
            start_ns: ns(start),
            dur_ns: ns(end) - ns(start),
            work,
        });
        id
    }

    /// Runs `f`, records it under `key` with `work`, and returns its value.
    pub fn time<T>(
        &mut self,
        key: Key,
        parent: Option<u32>,
        work: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(key, parent, start, Instant::now(), work);
        value
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans recorded under `key`.
    pub fn select(&self, key: Key) -> impl Iterator<Item = &Span> + '_ {
        self.spans
            .iter()
            .filter(move |s| s.name == key.name && s.model == key.model && s.backend == key.backend)
    }

    /// Per-span ns per unit of work under `key` (spans with work only).
    #[must_use]
    pub fn ns_per_work(&self, key: Key) -> Vec<f64> {
        self.select(key).filter(|s| s.work > 0).map(|s| s.dur_ns as f64 / s.work as f64).collect()
    }

    /// Per-span durations in ns under `key`.
    #[must_use]
    pub fn durations(&self, key: Key) -> Vec<f64> {
        self.select(key).map(|s| s.dur_ns as f64).collect()
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self, models: &[&str], backends: &[&str]) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<usize>, names: &[&str]| {
                v.map_or_else(|| "null".to_owned(), |i| format!("\"{}\"", names[i]))
            };
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"model\": {}, \"backend\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"work\": {}}}",
                s.id,
                s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.name,
                opt(s.model, models),
                opt(s.backend, backends),
                s.start_ns,
                s.dur_ns,
                s.work
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_selects_spans() {
        let mut t = Tracer::new();
        let key = Key::new("sim.run_until", Some(1), Some(2));
        let root = t.time(Key::new("root", None, None), None, 0, || 7);
        assert_eq!(root, 7);
        let start = Instant::now();
        t.record(key, Some(0), start, start + std::time::Duration::from_nanos(500), 100);
        assert_eq!(t.select(key).count(), 1);
        assert_eq!(t.ns_per_work(key), vec![5.0]);
        let lines = t.to_jsonl(&["a", "b"], &["x", "y", "z"]);
        assert!(
            lines.contains(
                "\"parent\": 0, \"name\": \"sim.run_until\", \"model\": \"b\", \"backend\": \"z\""
            ),
            "{lines}"
        );
    }
}
