//! `grid-archive`: a seeded subset of the thesis grid recorded into a
//! fresh trace corpus, then re-judged twice from the archive.
//!
//! The write phase is the serial scalar engine (scalar simulator,
//! scalar fused monitor, frame capture, encode, append, fsync commit);
//! the read phase decodes the archive into lane slabs for the batched
//! monitor at the default replay width, once under `thesis` and once
//! under `strict`. Runs have mixed lengths (up to 20 000 ticks, some
//! ending early), so replay stripes are ragged.

use crate::report::{set_layers, skew, Outcome};
use crate::rng::Rng;
use crate::stats::{median, peak_rss_mib, ratio, Budget};
use crate::trace::{Fold, LayerTimes, Tracer};
use esafe_harness::{
    cell_seed, AggregateBuilder, RunReport, Substrate, SweepAggregate, TraceCorpusReader,
    TraceCorpusWriter, DEFAULT_REPLAY_WIDTH,
};
use esafe_logic::{FrameBatch, FrameTrace, RunDecoder};
use esafe_scenarios::{corpus, grid, runner, GridCell};
use esafe_sim::{sample_point, SeriesLog};
use esafe_vehicle::VehicleFamily;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cells in a subset: half the 140-cell grid, the smallest size at
/// which every scenario and every defect configuration can appear
/// equally often (10 × 7 = 14 × 5).
pub const SUBSET: usize = 70;
/// Worker threads of the traced replay (the library's pool uses one
/// per available core).
pub const WORKERS: usize = 2;
const SALT: u64 = 0x6172_6368;
/// The suites the archive is re-judged under, in order.
pub const SUITES: [&str; 2] = ["thesis", "strict"];

/// The seeded subset, balanced so the seed changes which cells run but
/// not the mix of run lengths and defects: the seed splits the 14
/// defect configurations into two random halves and picks five of the
/// ten scenarios to take the first half (the rest take the second), so
/// every scenario runs 7 configurations and every configuration runs
/// under 5 scenarios. Cells come in grid order.
pub fn inputs(seed: u64) -> Vec<GridCell> {
    let full = grid::full_grid();
    let configs = grid::ablation_configs().len();
    let scenarios = full.len() / configs;
    let mut rng = Rng::new(seed, SALT);
    let first_half = rng.sample(configs, configs / 2);
    let first_scenarios = rng.sample(scenarios, scenarios / 2);
    let mut cells = Vec::with_capacity(SUBSET);
    for scenario in 0..scenarios {
        let takes_first = first_scenarios.contains(&scenario);
        for c in 0..configs {
            if first_half.contains(&c) == takes_first {
                cells.push(full[scenario * configs + c].clone());
            }
        }
    }
    cells
}

/// The committed corpus files' total size, from their metadata.
pub fn corpus_len(dir: &Path) -> std::io::Result<u64> {
    let data = std::fs::metadata(dir.join(esafe_harness::corpus::CORPUS_DATA_FILE))?;
    let manifest = std::fs::metadata(dir.join(esafe_harness::corpus::CORPUS_MANIFEST_FILE))?;
    Ok(data.len() + manifest.len())
}

/// The committed corpus files' bytes (data file, then manifest).
pub fn corpus_bytes(dir: &Path) -> std::io::Result<Vec<u8>> {
    let mut bytes = std::fs::read(dir.join(esafe_harness::corpus::CORPUS_DATA_FILE))?;
    bytes.extend(std::fs::read(
        dir.join(esafe_harness::corpus::CORPUS_MANIFEST_FILE),
    )?);
    Ok(bytes)
}

/// One untraced repetition: record, then re-judge under both suites.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Recording aggregate.
    pub recorded: SweepAggregate,
    /// Archived runs and ticks.
    pub runs: usize,
    /// Archived ticks.
    pub ticks: u64,
    /// Committed bytes on disk (data file + manifest).
    pub bytes: u64,
    /// Replay aggregates, in [`SUITES`] order.
    pub replays: Vec<SweepAggregate>,
    /// Ticks re-judged over both suites.
    pub replay_ticks: u64,
    /// Wall time of the recording, commit included.
    pub record_wall: Duration,
    /// Wall time of both replays, each open included.
    pub replay_wall: Duration,
}

/// Records `cells` into a fresh corpus at `dir` and re-judges it under
/// both suites, timing each phase.
///
/// # Errors
///
/// The failing call's error, rendered.
pub fn rep(cells: &[GridCell], dir: &Path) -> Result<Rep, String> {
    let started = Instant::now();
    let (recorded, _, stats) =
        corpus::record_grid_corpus(dir, cells.to_vec()).map_err(|e| e.to_string())?;
    let record_wall = started.elapsed();
    let started = Instant::now();
    let mut replays = Vec::new();
    let mut replay_ticks = 0;
    for suite in SUITES {
        let (replay, _) = corpus::replay_with_suite(dir, suite, DEFAULT_REPLAY_WIDTH)
            .map_err(|e| e.to_string())?;
        replay_ticks += replay.ticks;
        replays.push(replay.aggregate);
    }
    let replay_wall = started.elapsed();
    let bytes = corpus_len(dir).map_err(|e| e.to_string())?;
    Ok(Rep {
        recorded,
        runs: stats.runs,
        ticks: stats.ticks,
        bytes,
        replays,
        replay_ticks,
        record_wall,
        replay_wall,
    })
}

/// The oracles: `thesis` replay equals the recording aggregate bit for
/// bit, `strict` replay equals the live strict reference, every cell
/// was archived, and both suites re-judged every archived tick.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check(cells: usize, strict_reference: &SweepAggregate, rep: &Rep) -> Result<(), String> {
    if rep.runs != cells {
        return Err(format!("archived {} runs of {cells} cells", rep.runs));
    }
    if rep.replays[0] != rep.recorded {
        return Err(format!(
            "thesis replay {:?} differs from the recording aggregate {:?}",
            rep.replays[0], rep.recorded
        ));
    }
    if &rep.replays[1] != strict_reference {
        return Err(format!(
            "strict replay {:?} differs from the live strict reference {strict_reference:?}",
            rep.replays[1]
        ));
    }
    if rep.replay_ticks != rep.ticks * SUITES.len() as u64 {
        return Err(format!(
            "replays re-judged {} ticks, the archive holds {} per suite",
            rep.replay_ticks, rep.ticks
        ));
    }
    Ok(())
}

/// The live `strict` reference for the oracle.
///
/// # Errors
///
/// The failing run's error, rendered.
pub fn strict_reference(cells: &[GridCell]) -> Result<SweepAggregate, String> {
    corpus::live_reference(cells.to_vec(), "strict")
        .map(|(aggregate, _)| aggregate)
        .map_err(|e| e.to_string())
}

/// The traced recording: the executor's serial record loop rebuilt from
/// public calls — `build_simulator`, `Simulator::step`,
/// `Substrate::observe`, `FrameTrace::push`, `MonitorSuite::observe`,
/// `finish`/`correlate`/`take_violations`, `append_trace`, `finish` —
/// with spans around each. Returns the recording aggregate.
///
/// # Errors
///
/// The failing call's error, rendered.
pub fn record_traced(
    cells: &[GridCell],
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(SweepAggregate, u64), String> {
    let config = runner::thesis_config();
    let root = tracer.open("worker", None, 0);
    let family = tracer.span("harness.setup", Some(root), 0, VehicleFamily::default);
    let mut writer = tracer
        .span("corpus.create", Some(root), 0, || {
            TraceCorpusWriter::create(dir, config)
        })
        .map_err(|e| e.to_string())?;
    let mut agg = AggregateBuilder::new();
    let mut archived = 0u64;
    for (i, cell) in cells.iter().enumerate() {
        let req = i as u64;
        let run = tracer.open("harness.run", Some(root), req);
        let setup = tracer.open("harness.setup", Some(run), req);
        let sub = grid::build_cell_in(&family, cell, cell_seed(0, i));
        let template = sub
            .suite_template()
            .expect("vehicle cells carry a template");
        let mut suite = template.instantiate();
        let mut sim = sub.build_simulator();
        let mut observed = sub.signal_table().frame();
        let dt = sim.dt_millis();
        let scheduled_ticks = sub.duration_ms().div_ceil(dt);
        let post_terminal_ticks = config.post_terminal_ms.div_ceil(dt);
        let mut trace = FrameTrace::with_capacity(sub.signal_table(), dt, scheduled_ticks as usize);
        let tracked = sub.tracked_signals();
        let mut buffers: Vec<Vec<(f64, f64)>> = tracked.iter().map(|_| Vec::new()).collect();
        tracer.close(setup);

        let (mut step, mut probe, mut capture, mut observe) = (
            Fold::default(),
            Fold::default(),
            Fold::default(),
            Fold::default(),
        );
        let (mut terminal_tick, mut terminal_event, mut terminated_early) = (None, None, false);
        for tick in 1..=scheduled_ticks {
            step.time(|| {
                sim.step();
            });
            probe.time(|| sub.observe(sim.state(), &mut observed));
            capture.time(|| trace.push(&observed));
            observe
                .time(|| suite.observe(&observed))
                .map_err(|e| e.to_string())?;
            let t = sim.seconds();
            for (buffer, &id) in buffers.iter_mut().zip(tracked) {
                if let Some(x) = sample_point(observed.get(id)) {
                    buffer.push((t, x));
                }
            }
            if terminal_tick.is_none() {
                if let Some(event) = sub.terminal_event(&observed) {
                    terminal_tick = Some(tick);
                    terminal_event = Some(event.to_owned());
                }
            }
            if let Some(at) = terminal_tick {
                if tick >= at + post_terminal_ticks {
                    terminated_early = tick < scheduled_ticks;
                    break;
                }
            }
        }
        tracer.fold("sim.step", run, req, step);
        tracer.fold("vehicle.probe", run, req, probe);
        tracer.fold("harness.capture", run, req, capture);
        tracer.fold("monitor.scalar_observe", run, req, observe);
        let correlate = tracer.open("monitor.correlate", Some(run), req);
        suite.finish();
        let window = config.correlation_window_ms.div_ceil(dt);
        let correlation = suite.correlate(window);
        let violations = suite.take_violations();
        tracer.close(correlate);
        let mut series = SeriesLog::new();
        for (buffer, &id) in buffers.into_iter().zip(tracked) {
            series.append_points(sub.signal_table().name(id), buffer);
        }
        let report = RunReport {
            substrate: sub.name().to_owned(),
            label: sub.label(),
            config,
            dt_millis: dt,
            scheduled_ticks,
            ticks: sim.tick(),
            end_time_s: sim.seconds(),
            terminated_early,
            terminal_event,
            violations,
            correlation,
            series,
            trace: None,
        };
        archived += trace.len() as u64;
        tracer
            .span("corpus.append", Some(run), req, || {
                writer.append_trace(
                    &trace,
                    &report.substrate,
                    &report.label,
                    report.terminated_early,
                    report.terminal_event.as_deref(),
                )
            })
            .map_err(|e| e.to_string())?;
        agg.absorb(&report);
        tracer.close(run);
    }
    tracer
        .span("corpus.commit", Some(root), 0, || writer.finish())
        .map_err(|e| e.to_string())?;
    tracer.close(root);
    Ok((agg.finish(), archived))
}

/// Work counts of one traced replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Lane-ticks decoded and observed.
    pub lane_ticks: u64,
    /// Lane-ticks provisioned in slab passes (width × passes).
    pub provisioned: u64,
    /// Fused DAG node evaluations (unique nodes × provisioned).
    pub node_evals: u64,
    /// Runs re-judged.
    pub runs: u64,
    /// Corpus bytes the open read.
    pub bytes_read: u64,
}

/// The traced replay: `TraceCorpusReader::open`, one suite compile per
/// (table, substrate) group, then stripes of `RunDecoder::write_tick`
/// into a lane slab and `MonitorSuiteBatch::observe_slab` on `workers`
/// threads — the library's replay loop rebuilt with spans. Returns the
/// aggregate and per-worker busy times.
///
/// # Errors
///
/// The failing call's error, rendered.
pub fn replay_traced(
    dir: &Path,
    suite: &str,
    workers: usize,
    tracer: &mut Tracer,
) -> Result<(SweepAggregate, ReplayCounts, Vec<u64>), String> {
    let origin_root = tracer.open("worker", None, 0);
    let reader = tracer
        .span("corpus.open", Some(origin_root), 0, || {
            TraceCorpusReader::open(dir)
        })
        .map_err(|e| e.to_string())?;
    let mut counts = ReplayCounts {
        bytes_read: corpus_len(dir).map_err(|e| e.to_string())?,
        ..ReplayCounts::default()
    };
    let compile = tracer.open("corpus.suite_compile", Some(origin_root), 0);
    let mut groups: Vec<((u32, String), Vec<usize>)> = Vec::new();
    for i in 0..reader.len() {
        let meta = reader.meta(i);
        let key = (meta.table_ref, meta.substrate.clone());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut templates = Vec::new();
    let mut stripes: Vec<(usize, Vec<usize>)> = Vec::new();
    for ((table_ref, substrate), members) in groups {
        let table = reader.table(table_ref).expect("open validated the tables");
        let template = corpus::suite_for(suite, &substrate, table)
            .map_err(|e| e.to_string())?
            .template();
        templates.push((table.clone(), template));
        for chunk in members.chunks(DEFAULT_REPLAY_WIDTH) {
            stripes.push((templates.len() - 1, chunk.to_vec()));
        }
    }
    tracer.close(compile);
    tracer.close(origin_root);

    let origin = tracer.origin();
    let next = AtomicUsize::new(0);
    type WorkerOut = (
        Tracer,
        Vec<(usize, RunReport)>,
        ReplayCounts,
        Result<(), String>,
    );
    let outs: Mutex<Vec<WorkerOut>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (reader, templates, stripes, next, outs) =
                (&reader, &templates, &stripes, &next, &outs);
            scope.spawn(move || {
                let mut t = Tracer::new(origin);
                let root = t.open("worker", None, w as u64 + 1);
                let mut reports = Vec::new();
                let mut counts = ReplayCounts::default();
                let mut status = Ok(());
                loop {
                    let s = next.fetch_add(1, Ordering::Relaxed);
                    let Some((group, chunk)) = stripes.get(s) else {
                        break;
                    };
                    let (table, template) = &templates[*group];
                    match stripe_traced(&mut t, root, s as u64, reader, table, template, chunk) {
                        Ok((stripe_reports, c)) => {
                            reports.extend(stripe_reports);
                            counts.lane_ticks += c.lane_ticks;
                            counts.provisioned += c.provisioned;
                            counts.node_evals += c.node_evals;
                            counts.runs += c.runs;
                        }
                        Err(e) => {
                            status = Err(e);
                            break;
                        }
                    }
                }
                t.close(root);
                outs.lock()
                    .expect("no worker panics while holding the outputs")
                    .push((t, reports, counts, status));
            });
        }
    });
    let mut busy = Vec::new();
    let mut reports = Vec::new();
    for (t, r, c, status) in outs.into_inner().expect("workers joined") {
        status?;
        busy.push(t.spans[0].busy_ns);
        tracer.absorb(t);
        reports.extend(r);
        counts.lane_ticks += c.lane_ticks;
        counts.provisioned += c.provisioned;
        counts.node_evals += c.node_evals;
        counts.runs += c.runs;
    }
    let root = tracer.open("worker", None, 0);
    reports.sort_by_key(|&(i, _)| i);
    let mut agg = AggregateBuilder::new();
    for (_, report) in &reports {
        agg.absorb(report);
    }
    tracer.close(root);
    Ok((agg.finish(), counts, busy))
}

fn stripe_traced(
    t: &mut Tracer,
    root: usize,
    req: u64,
    reader: &TraceCorpusReader,
    table: &std::sync::Arc<esafe_logic::SignalTable>,
    template: &esafe_monitor::SuiteTemplate,
    chunk: &[usize],
) -> Result<(Vec<(usize, RunReport)>, ReplayCounts), String> {
    let w = chunk.len();
    let span = t.open("harness.stripe", Some(root), req);
    let (mut batch, mut slab) = t.span("harness.setup", Some(span), req, || {
        (template.instantiate_batch(w), FrameBatch::new(table, w))
    });
    let mut decoders: Vec<RunDecoder<'_>> = t
        .span("corpus.decoder", Some(span), req, || {
            chunk
                .iter()
                .map(|&i| reader.decoder(i))
                .collect::<Result<_, _>>()
        })
        .map_err(|e| e.to_string())?;
    let lens: Vec<usize> = decoders.iter().map(RunDecoder::len).collect();
    for (lane, &len) in lens.iter().enumerate() {
        if len == 0 {
            batch.retire_lane(lane);
        }
    }
    let longest = lens.iter().copied().max().unwrap_or(0);
    let (mut decode, mut observe) = (Fold::default(), Fold::default());
    for tick in 0..longest {
        decode
            .time(|| {
                for (lane, dec) in decoders.iter_mut().enumerate() {
                    if tick < lens[lane] {
                        dec.write_tick(&mut slab, lane, reader.dict())?;
                    }
                }
                Some(())
            })
            .ok_or_else(|| format!("stripe {req} failed to decode tick {tick}"))?;
        observe
            .time(|| batch.observe_slab(&slab))
            .map_err(|e| e.to_string())?;
        for (lane, &len) in lens.iter().enumerate() {
            if tick + 1 == len {
                batch.retire_lane(lane);
            }
        }
    }
    t.fold("corpus.decode", span, req, decode);
    t.fold("monitor.observe", span, req, observe);
    let correlate = t.open("monitor.correlate", Some(span), req);
    batch.finish();
    let config = reader.config();
    let mut reports = Vec::with_capacity(w);
    for (lane, &i) in chunk.iter().enumerate() {
        let meta = reader.meta(i);
        let window = config.correlation_window_ms.div_ceil(meta.dt_millis);
        let correlation = batch.correlate_lane(lane, window);
        let violations = batch.take_violations_lane(lane);
        reports.push((
            i,
            RunReport {
                substrate: meta.substrate.clone(),
                label: meta.label.clone(),
                config,
                dt_millis: meta.dt_millis,
                scheduled_ticks: meta.ticks,
                ticks: meta.ticks,
                end_time_s: (meta.ticks.saturating_sub(1) * meta.dt_millis) as f64 / 1000.0,
                terminated_early: meta.terminated_early,
                terminal_event: meta.terminal_event.clone(),
                violations,
                correlation,
                ..RunReport::default()
            },
        ));
    }
    t.close(correlate);
    t.close(span);
    let provisioned = (w * longest) as u64;
    Ok((
        reports,
        ReplayCounts {
            lane_ticks: lens.iter().sum::<usize>() as u64,
            provisioned,
            node_evals: provisioned * template.fused_program().unique_nodes() as u64,
            runs: w as u64,
            bytes_read: 0,
        },
    ))
}

/// A fresh, empty directory for one repetition's corpus.
fn fresh(work: &Path, name: &str) -> PathBuf {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn repeat_checked(
    cells: &[GridCell],
    work: &Path,
    name: &str,
    out: &mut Outcome,
) -> Option<(Rep, PathBuf)> {
    let dir = fresh(work, name);
    out.attempted += cells.len() as u64;
    match rep(cells, &dir) {
        Ok(r) => Some((r, dir)),
        Err(e) => {
            out.failed += cells.len() as u64;
            out.fail(format!("grid-archive repetition failed: {e}"));
            None
        }
    }
}

/// The untraced workload: record + re-judge repetitions for `seconds`,
/// then the oracles.
pub fn run(cells: &[GridCell], work: &Path, seconds: f64, out: &mut Outcome) {
    let mut budget = Budget::new(seconds);
    let mut reps = Vec::new();
    let mut first_bytes: Option<Vec<u8>> = None;
    while budget.more() {
        let Some((r, dir)) = repeat_checked(cells, work, "rep", out) else {
            break;
        };
        // Outside the timed calls: every repetition must commit the
        // same bytes.
        match (corpus_bytes(&dir), &first_bytes) {
            (Ok(bytes), None) => first_bytes = Some(bytes),
            (Ok(bytes), Some(first)) if &bytes != first => {
                out.fail("a repeated recording committed different corpus bytes")
            }
            (Err(e), _) => out.fail(format!("corpus files unreadable: {e}")),
            _ => {}
        }
        let _ = std::fs::remove_dir_all(&dir);
        reps.push(r);
    }
    out.set("peak_rss_mb", peak_rss_mib());
    if reps.is_empty() {
        return;
    }
    verify(cells, &reps, out);
    let replay: Vec<f64> = reps
        .iter()
        .map(|r| r.replay_ticks as f64 / r.replay_wall.as_secs_f64())
        .collect();
    let record: Vec<f64> = reps
        .iter()
        .map(|r| r.ticks as f64 / r.record_wall.as_secs_f64())
        .collect();
    let record_ms: Vec<f64> = reps
        .iter()
        .map(|r| r.record_wall.as_secs_f64() * 1e3)
        .collect();
    out.set("ticks_per_s", median(&replay));
    out.set("result_ms", median(&record_ms));
    let r = &reps[0];
    out.note(format!(
        "grid-archive: {} cells, {} archived ticks, {} reps",
        cells.len(),
        r.ticks,
        reps.len()
    ));
    out.note(format!(
        "  record_ticks_per_s = {:.0} 1/s, replay_ticks_per_s = {:.0} 1/s, corpus_bytes_per_tick = {:.3} B",
        median(&record),
        median(&replay),
        r.bytes as f64 / r.ticks as f64
    ));
}

fn verify(cells: &[GridCell], reps: &[Rep], out: &mut Outcome) {
    match strict_reference(cells) {
        Ok(strict) => {
            for r in reps {
                if let Err(e) = check(cells.len(), &strict, r) {
                    out.fail(e);
                }
            }
        }
        Err(e) => out.fail(format!("live strict reference failed: {e}")),
    }
}

/// The traced workload: untraced and traced repetitions alternate; the
/// traced recording must commit byte-identical corpus files and both
/// traced replays must reproduce the untraced aggregates.
pub fn run_traced(
    cells: &[GridCell],
    work: &Path,
    seconds: f64,
    out: &mut Outcome,
) -> Option<Tracer> {
    let mut budget = Budget::new(seconds);
    let mut reps = Vec::new();
    let (mut untraced, mut traced_rates) = (Vec::new(), Vec::new());
    let mut layers = LayerTimes::default();
    let mut last = None;
    let mut sums = Sums::default();
    while budget.more() {
        let Some((r, dir)) = repeat_checked(cells, work, "rep", out) else {
            break;
        };
        untraced.push(r.replay_ticks as f64 / r.replay_wall.as_secs_f64());
        let traced_dir = fresh(work, "traced");
        out.attempted += cells.len() as u64;
        let mut tracer = Tracer::new(Instant::now());
        match traced_rep(cells, &traced_dir, &mut tracer, &r, &dir) {
            Ok(rep) => {
                traced_rates.push(rep.replay_lane_ticks as f64 / rep.replay_wall.as_secs_f64());
                sums.add(&tracer, &rep);
                layers.add(&tracer.layers());
                last = Some(tracer);
            }
            Err(e) => {
                out.failed += cells.len() as u64;
                out.fail(e);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&traced_dir);
        reps.push(r);
    }
    verify(cells, &reps, out);
    let n = sums.reps as f64;
    let record_ticks = sums.record_ticks as f64;
    out.set(
        "sim.step_ns_per_lane_tick",
        ratio(sums.sim as f64, record_ticks),
    );
    out.set("sim.lane_ticks", ratio(record_ticks, n));
    out.set(
        "vehicle.probe_ns_per_lane_tick",
        ratio(sums.probe as f64, record_ticks),
    );
    out.set(
        "monitor.scalar_observe_ns_per_tick",
        ratio(sums.scalar_observe as f64, record_ticks),
    );
    out.set(
        "monitor.observe_ns_per_lane_tick",
        ratio(sums.observe as f64, sums.replay.lane_ticks as f64),
    );
    out.set("monitor.dag_node_evals", ratio(sums.node_evals as f64, n));
    out.set(
        "monitor.lane_occupancy",
        ratio(
            sums.replay.lane_ticks as f64,
            sums.replay.provisioned as f64,
        ),
    );
    out.set(
        "monitor.correlate_us_per_run",
        ratio(sums.correlate as f64 / 1e3, sums.runs as f64),
    );
    out.set(
        "harness.setup_us_per_run",
        ratio(sums.setup as f64 / 1e3, sums.record_runs as f64),
    );
    out.set(
        "harness.capture_ns_per_tick",
        ratio(sums.capture as f64, record_ticks),
    );
    out.set("harness.worker_skew", ratio(sums.skew, n));
    out.set(
        "corpus.append_ns_per_tick",
        ratio(sums.append as f64, record_ticks),
    );
    out.set("corpus.bytes_written", ratio(sums.bytes_written as f64, n));
    out.set(
        "corpus.bytes_per_tick",
        ratio(sums.bytes_written as f64, record_ticks),
    );
    out.set("corpus.commit_ms", ratio(sums.commit as f64 / 1e6, n));
    out.set(
        "corpus.open_ms",
        ratio(sums.open as f64 / 1e6, n * SUITES.len() as f64),
    );
    out.set("corpus.bytes_read", ratio(sums.replay.bytes_read as f64, n));
    out.set(
        "corpus.decode_ns_per_lane_tick",
        ratio(sums.decode as f64, sums.replay.lane_ticks as f64),
    );
    out.set(
        "corpus.suite_compile_ms",
        ratio(sums.compile as f64 / 1e6, n * SUITES.len() as f64),
    );
    let (u, t) = (median(&untraced), median(&traced_rates));
    out.set("trace.overhead_pct", ratio(u - t, u) * 100.0);
    set_layers(out, &layers, n);
    let per = |ns: u64, ticks: f64| ratio(ns as f64, ticks);
    let replay_ticks = sums.replay.lane_ticks as f64;
    out.note(format!(
        "grid-archive traced: {} reps; replay untraced {u:.0} vs traced {t:.0} ticks/s; corpus bytes and aggregates identical",
        sums.reps
    ));
    out.note(format!(
        "  live (record) ns/tick: sim {:.0} + probe {:.0} + observe {:.0} = {:.0} re-simulation; capture {:.0} + append {:.0} archiving",
        per(sums.sim, record_ticks),
        per(sums.probe, record_ticks),
        per(sums.scalar_observe, record_ticks),
        per(sums.sim + sums.probe + sums.scalar_observe, record_ticks),
        per(sums.capture, record_ticks),
        per(sums.append, record_ticks)
    ));
    out.note(format!(
        "  replay ns/lane-tick (summed over workers): decode {:.0} + observe {:.0} + open {:.0} = {:.0}; lane occupancy {:.3}, worker skew {:.2}",
        per(sums.decode, replay_ticks),
        per(sums.observe, replay_ticks),
        per(sums.open, replay_ticks),
        per(sums.decode + sums.observe + sums.open, replay_ticks),
        ratio(replay_ticks, sums.replay.provisioned as f64),
        ratio(sums.skew, n)
    ));
    last
}

/// What one traced repetition measured.
struct TracedRep {
    record_ticks: u64,
    record_runs: u64,
    bytes_written: u64,
    replay: ReplayCounts,
    replay_wall: Duration,
    replay_lane_ticks: u64,
    scalar_evals: u64,
    skew: f64,
}

fn traced_rep(
    cells: &[GridCell],
    dir: &Path,
    tracer: &mut Tracer,
    untraced: &Rep,
    untraced_dir: &Path,
) -> Result<TracedRep, String> {
    let (recorded, archived) = record_traced(cells, dir, tracer)?;
    if recorded != untraced.recorded {
        return Err("traced recording aggregate differs from the untraced one".into());
    }
    let bytes = corpus_bytes(dir).map_err(|e| e.to_string())?;
    if bytes != corpus_bytes(untraced_dir).map_err(|e| e.to_string())? {
        return Err("traced recording committed different corpus bytes".into());
    }
    let family = VehicleFamily::default();
    let scalar_evals = archived * family.template().fused_program().unique_nodes() as u64;
    let started = Instant::now();
    let mut replay = ReplayCounts::default();
    let mut skews = Vec::new();
    for (k, suite) in SUITES.iter().enumerate() {
        let (aggregate, counts, busy) = replay_traced(dir, suite, WORKERS, tracer)?;
        if aggregate != untraced.replays[k] {
            return Err(format!(
                "traced `{suite}` replay aggregate differs from the untraced one"
            ));
        }
        replay.lane_ticks += counts.lane_ticks;
        replay.provisioned += counts.provisioned;
        replay.node_evals += counts.node_evals;
        replay.runs += counts.runs;
        replay.bytes_read += counts.bytes_read;
        skews.push(skew(&busy));
    }
    let replay_wall = started.elapsed();
    Ok(TracedRep {
        record_ticks: archived,
        record_runs: cells.len() as u64,
        bytes_written: bytes.len() as u64,
        replay_lane_ticks: replay.lane_ticks,
        replay,
        replay_wall,
        scalar_evals,
        skew: median(&skews),
    })
}

#[derive(Default)]
struct Sums {
    reps: u64,
    sim: u64,
    probe: u64,
    capture: u64,
    scalar_observe: u64,
    observe: u64,
    correlate: u64,
    setup: u64,
    append: u64,
    commit: u64,
    open: u64,
    decode: u64,
    compile: u64,
    record_ticks: u64,
    record_runs: u64,
    runs: u64,
    bytes_written: u64,
    node_evals: u64,
    skew: f64,
    replay: ReplayCounts,
}

impl Sums {
    fn add(&mut self, t: &Tracer, rep: &TracedRep) {
        self.reps += 1;
        self.sim += t.busy("sim.step");
        self.probe += t.busy("vehicle.probe");
        self.capture += t.busy("harness.capture");
        self.scalar_observe += t.busy("monitor.scalar_observe");
        self.observe += t.busy("monitor.observe");
        self.correlate += t.busy("monitor.correlate");
        self.setup += t
            .spans
            .iter()
            .filter(|s| s.name == "harness.setup")
            .filter(|s| s.parent.is_some_and(|p| t.spans[p].name == "harness.run"))
            .map(|s| s.busy_ns)
            .sum::<u64>();
        self.append += t.busy("corpus.append");
        self.commit += t.busy("corpus.commit");
        self.open += t.busy("corpus.open");
        self.decode += t.busy("corpus.decode") + t.busy("corpus.decoder");
        self.compile += t.busy("corpus.suite_compile");
        self.record_ticks += rep.record_ticks;
        self.record_runs += rep.record_runs;
        self.runs += rep.record_runs + rep.replay.runs;
        self.bytes_written += rep.bytes_written;
        self.node_evals += rep.scalar_evals + rep.replay.node_evals;
        self.skew += rep.skew;
        self.replay.lane_ticks += rep.replay.lane_ticks;
        self.replay.provisioned += rep.replay.provisioned;
        self.replay.bytes_read += rep.replay.bytes_read;
    }
}
