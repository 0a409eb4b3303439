//! In-memory spans around the calls the benchmark makes into each
//! layer, and their reduction to per-layer self times.
//!
//! A span has a name (`layer.call`), start and end (ns since the
//! tracer's origin), an optional parent, and a request id (cell, run,
//! stripe, wave or stream). Per-tick calls are folded: one child span
//! per stripe (or run, or wave) and call, carrying the summed busy time
//! and the call count. Self time is a span's busy time minus the busy
//! time of its children; every worker's root span is named `worker`,
//! whose self time is the `other` remainder, so layer self times add up
//! to traced worker time exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, or `worker` for a worker's root.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Request id: the cell, run, stripe, wave or stream served.
    pub req: u64,
    /// Busy time: `end - start` for a plain span, the summed call time
    /// for a folded one.
    pub busy_ns: u64,
    /// Calls covered (1 for a plain span).
    pub calls: u64,
}

/// Summed busy time and call count of one per-tick call site.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fold {
    /// Summed time inside the call, ns.
    pub busy_ns: u64,
    /// Calls timed.
    pub calls: u64,
}

impl Fold {
    /// Times one call of `f`.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.busy_ns += started.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    /// Adds externally measured busy time for `calls` calls.
    pub fn add(&mut self, busy_ns: u64, calls: u64) {
        self.busy_ns += busy_ns;
        self.calls += calls;
    }
}

/// A span recorder for one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    /// The recorded spans, in open order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder timing from `origin` (share one origin across
    /// threads so spans line up).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
            busy_ns: 0,
            calls: 1,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Runs `f` inside a plain span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Records a folded child of `parent` (spanning the parent's start
    /// to now) unless the fold saw no calls.
    pub fn fold(&mut self, name: &'static str, parent: usize, req: u64, fold: Fold) {
        if fold.calls == 0 {
            return;
        }
        let start_ns = self.spans[parent].start_ns;
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            req,
            busy_ns: fold.busy_ns,
            calls: fold.calls,
        });
    }

    /// Moves another thread's spans in, re-indexing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"busy_ns\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.busy_ns, s.calls
            )?;
        }
        Ok(())
    }

    /// Summed busy time of every span named `name`, ns.
    pub fn busy(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum()
    }

    /// Busy times of every span named `name`, ns, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .collect()
    }

    /// Self time per layer plus the traced worker time.
    pub fn layers(&self) -> LayerTimes {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.busy_ns;
            }
        }
        let mut self_ns: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0u64)).collect();
        let mut worker_ns = 0u64;
        for (s, cover) in self.spans.iter().zip(covered) {
            *self_ns.entry(layer_of(s.name)).or_default() += s.busy_ns.saturating_sub(cover);
            if s.parent.is_none() {
                worker_ns += s.busy_ns;
            }
        }
        LayerTimes { self_ns, worker_ns }
    }
}

/// The layers spans are attributed to; `other` is worker time outside
/// every layer call (scheduling, joins, the benchmark's own glue).
pub const LAYERS: &[&str] = &[
    "sim", "vehicle", "monitor", "harness", "corpus", "serve", "other",
];

/// The layer a span belongs to: the part of its name before the first
/// `.`; a worker root belongs to `other`.
pub fn layer_of(name: &str) -> &'static str {
    let head = name.split('.').next().unwrap_or(name);
    LAYERS
        .iter()
        .copied()
        .find(|&l| l == head)
        .unwrap_or("other")
}

/// The reduction of a trace to layers.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTimes {
    /// Self time per layer, ns (every entry of [`LAYERS`] present).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed busy time of the root spans: traced worker time, ns.
    pub worker_ns: u64,
}

impl LayerTimes {
    /// Sum of the layer self times, `other` included.
    pub fn total_self_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }

    /// Adds another reduction in (for totals across repetitions).
    pub fn add(&mut self, other: &LayerTimes) {
        for (layer, ns) in &other.self_ns {
            *self.self_ns.entry(layer).or_default() += ns;
        }
        self.worker_ns += other.worker_ns;
    }
}

impl Default for LayerTimes {
    fn default() -> Self {
        LayerTimes {
            self_ns: LAYERS.iter().map(|&l| (l, 0u64)).collect(),
            worker_ns: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_worker_time() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("worker", None, 0);
        let stripe = t.open("harness.stripe", Some(root), 1);
        let mut fold = Fold::default();
        for _ in 0..100 {
            fold.time(|| std::hint::black_box((0..100u64).sum::<u64>()));
        }
        t.fold("sim.step", stripe, 1, fold);
        t.close(stripe);
        t.close(root);
        let layers = t.layers();
        assert_eq!(layers.total_self_ns(), layers.worker_ns);
        assert_eq!(layers.self_ns["sim"], fold.busy_ns);
        let folded = t
            .spans
            .iter()
            .find(|s| s.name == "sim.step")
            .expect("folded");
        assert_eq!(folded.calls, 100);
    }
}
