//! The result line: metric names, units, and the JSON the benchmark
//! prints last.

use crate::stats::ratio;
use crate::trace::LayerTimes;
use std::collections::BTreeMap;

/// The end-to-end metrics every workload reports from its untraced run,
/// with their units. What each means per workload is in the
/// benchmark's README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_op_ratio", "ratio"),
    ("ticks_per_s", "1/s"),
    ("result_ms", "ms"),
];

/// The per-layer metrics every workload reports from its traced run
/// (0 where the layer is idle on that workload), with their units and
/// the end-to-end metric each should move.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "sim.step_ns_per_lane_tick",
        "ns",
        "ticks_per_s (mega-sweep); result_ms (grid-archive)",
    ),
    ("sim.lane_ticks", "count", "denominator"),
    (
        "vehicle.probe_ns_per_lane_tick",
        "ns",
        "ticks_per_s (mega-sweep); result_ms (grid-archive)",
    ),
    (
        "monitor.observe_ns_per_lane_tick",
        "ns",
        "ticks_per_s (mega-sweep, grid-archive)",
    ),
    (
        "monitor.scalar_observe_ns_per_tick",
        "ns",
        "result_ms (grid-archive)",
    ),
    (
        "monitor.dag_node_evals",
        "count",
        "ticks_per_s (mega-sweep, grid-archive)",
    ),
    (
        "monitor.lane_occupancy",
        "ratio",
        "ticks_per_s (grid-archive ragged; mega-sweep)",
    ),
    (
        "monitor.correlate_us_per_run",
        "us",
        "ticks_per_s (mega-sweep, grid-archive)",
    ),
    (
        "harness.setup_us_per_run",
        "us",
        "ticks_per_s (mega-sweep); setup_s",
    ),
    (
        "harness.capture_ns_per_tick",
        "ns",
        "result_ms (grid-archive)",
    ),
    (
        "harness.worker_skew",
        "ratio",
        "ticks_per_s (mega-sweep, grid-archive)",
    ),
    (
        "corpus.append_ns_per_tick",
        "ns",
        "result_ms (grid-archive)",
    ),
    (
        "corpus.bytes_written",
        "B",
        "corpus_bytes_per_tick (grid-archive)",
    ),
    ("corpus.bytes_per_tick", "B", "none (deterministic size)"),
    ("corpus.commit_ms", "ms", "result_ms (grid-archive)"),
    ("corpus.open_ms", "ms", "ticks_per_s (grid-archive)"),
    ("corpus.bytes_read", "B", "ticks_per_s (grid-archive)"),
    (
        "corpus.decode_ns_per_lane_tick",
        "ns",
        "ticks_per_s (grid-archive)",
    ),
    (
        "corpus.suite_compile_ms",
        "ms",
        "ticks_per_s (grid-archive)",
    ),
    (
        "serve.wave_us_p50",
        "us",
        "ticks_per_s, result_ms (serve-fleet)",
    ),
    (
        "serve.wave_us_tail",
        "us",
        "ticks_per_s, result_ms (serve-fleet)",
    ),
    (
        "serve.wave_tail_pct",
        "pct",
        "none (percentile of serve.wave_us_tail)",
    ),
    (
        "serve.frames_per_wave",
        "frames",
        "ticks_per_s (serve-fleet)",
    ),
    ("serve.waves", "count", "ticks_per_s (serve-fleet)"),
    (
        "serve.pending_poll_ratio",
        "ratio",
        "result_ms, ticks_per_s (serve-fleet)",
    ),
    ("serve.ingest_lag_us_p50", "us", "result_ms (serve-fleet)"),
    ("serve.report_us_per_event", "us", "result_ms (serve-fleet)"),
    (
        "serve.backlog_max_frames",
        "frames",
        "result_ms (serve-fleet)",
    ),
    (
        "serve.verdict_tail_ms",
        "ms",
        "none (tail of result_ms, too noisy to bound)",
    ),
    (
        "serve.verdict_tail_pct",
        "pct",
        "none (percentile of serve.verdict_tail_ms)",
    ),
    (
        "serve.verdict_samples",
        "count",
        "none (sample count behind the verdict latencies)",
    ),
    ("serve.gen_lag_ms_max", "ms", "none (generator validity)"),
    (
        "serve.polls_per_clock_read",
        "ratio",
        "none (generator validity: one clock read per wave)",
    ),
    (
        "serve.source_ns_per_poll",
        "ns",
        "none (generator validity)",
    ),
    ("trace.overhead_pct", "pct", "none"),
    ("layer.sim_self_ms", "ms", "see sim.*"),
    ("layer.vehicle_self_ms", "ms", "see vehicle.*"),
    ("layer.monitor_self_ms", "ms", "see monitor.*"),
    ("layer.harness_self_ms", "ms", "see harness.*"),
    ("layer.corpus_self_ms", "ms", "see corpus.*"),
    ("layer.serve_self_ms", "ms", "see serve.*"),
    ("layer.other_self_ms", "ms", "none (remainder)"),
    (
        "layer.worker_ms",
        "ms",
        "none (traced worker time = sum of self times)",
    ),
];

/// The per-layer metrics that repeat exactly for a given seed.
pub const COUNTERS: &[&str] = &[
    "sim.lane_ticks",
    "monitor.dag_node_evals",
    "corpus.bytes_written",
    "corpus.bytes_read",
    "serve.waves",
];

/// One workload run's result.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output oracle passed.
    pub correct: bool,
    /// Operations attempted (cells, runs, streams).
    pub attempted: u64,
    /// Operations failed (quarantined cells, failed runs, evicted or
    /// short streams).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// An outcome whose per-layer metrics all start at 0 (idle layer).
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed oracle.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.lines.push(format!("ORACLE FAILED: {}", why.into()));
    }

    /// Records a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The result line for the end-to-end (`traced == false`) or the
    /// per-layer metric set; a metric the workload did not set is a
    /// benchmark bug.
    pub fn json(&self, traced: bool) -> String {
        let units: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        let mut metrics = Vec::with_capacity(units.len());
        let mut correct = self.correct;
        for (name, unit) in units {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Fills every per-layer metric not set by the workload with 0.
    pub fn idle_layers(&mut self) {
        for &(name, _, _) in PER_LAYER {
            self.metrics.entry(name).or_insert(0.0);
        }
    }

    /// Human lines listing each per-layer metric with its unit and the
    /// end-to-end metric it should move; counters that repeat exactly
    /// for a seed are marked `exact`.
    pub fn layer_lines(&mut self) {
        for &(name, unit, moves) in PER_LAYER {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let exact = if COUNTERS.contains(&name) {
                " exact"
            } else {
                ""
            };
            self.lines.push(format!(
                "  {name:<36} {value:>16.3} {unit:<6} -> {moves}{exact}"
            ));
        }
    }
}

/// Max ÷ mean of per-worker busy time (1 = perfectly balanced).
pub fn skew(busy: &[u64]) -> f64 {
    if busy.is_empty() {
        return 0.0;
    }
    let max = *busy.iter().max().expect("non-empty") as f64;
    let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
    ratio(max, mean)
}

/// Sets the `layer.*` self-time metrics (per repetition) and states the
/// self-time identity in the notes.
pub fn set_layers(out: &mut Outcome, layers: &LayerTimes, reps: f64) {
    let ms = |ns: u64| ns as f64 / 1e6 / reps.max(1.0);
    for (layer, name) in [
        ("sim", "layer.sim_self_ms"),
        ("vehicle", "layer.vehicle_self_ms"),
        ("monitor", "layer.monitor_self_ms"),
        ("harness", "layer.harness_self_ms"),
        ("corpus", "layer.corpus_self_ms"),
        ("serve", "layer.serve_self_ms"),
        ("other", "layer.other_self_ms"),
    ] {
        out.set(name, ms(layers.self_ns[layer]));
    }
    out.set("layer.worker_ms", ms(layers.worker_ns));
    let sum = layers.total_self_ns();
    if sum != layers.worker_ns {
        out.fail(format!(
            "layer self times sum to {sum} ns, traced worker time is {} ns",
            layers.worker_ns
        ));
    }
    out.note(format!(
        "  layer self times + other = {:.3} ms = traced worker time {:.3} ms per rep",
        ms(sum),
        ms(layers.worker_ns)
    ));
}

/// A result line read back (the `all` mode reads its children's).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    /// `correct`.
    pub correct: bool,
    /// `attempted`.
    pub attempted: u64,
    /// `failed`.
    pub failed: u64,
    /// `(name, value, unit)` per metric, in line order.
    pub metrics: Vec<(String, String, String)>,
}

/// Parses a line produced by [`Outcome::json`] (not general JSON).
pub fn parse_result(line: &str) -> Option<ParsedResult> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let body = line.split_once("\"metrics\": {")?.1.strip_suffix("}}")?;
    let mut metrics = Vec::new();
    for entry in body.split("}, ").filter(|e| !e.is_empty()) {
        let (name, rest) = entry.split_once(": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": ")?;
        metrics.push((
            name.trim_matches('"').to_owned(),
            value.to_owned(),
            unit.trim_end_matches('}').trim_matches('"').to_owned(),
        ));
    }
    Some(ParsedResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}
