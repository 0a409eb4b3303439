//! `mega-sweep`: a seeded sample of the mega grid through the batched
//! striped sweep on the library's worker pool.
//!
//! Here batched simulation, the probe overlay and the fused DAG pass do
//! nearly all the work: lanes are equal-length (5 s runs, a few ending
//! early on collision) and move in lockstep, and there is no I/O.

use crate::report::{set_layers, skew, Outcome};
use crate::rng::Rng;
use crate::stats::{median, peak_rss_mib, ratio, Budget};
use crate::trace::{Fold, LayerTimes, Tracer};
use esafe_harness::{
    cell_seed, AggregateBuilder, Experiment, RunContext, RunReport, Substrate, SweepAggregate,
};
use esafe_scenarios::mega::{self, MegaCell};
use esafe_scenarios::runner;
use esafe_sim::SeriesLog;
use esafe_vehicle::{VehicleFamily, VehicleSubstrate};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Stripe width of the sweep (explicit: no width calibration runs).
pub const WIDTH: usize = 128;
/// Cells the seed draws from the 10 752-cell grid: four full stripes,
/// two per core.
pub const SAMPLE: usize = 512;
/// Worker threads of the traced driver (the library's pool uses one per
/// available core).
pub const WORKERS: usize = 2;
const SALT: u64 = 0x6D65_6761;

/// The seeded cell sample.
pub fn inputs(seed: u64, size: usize) -> Vec<MegaCell> {
    let grid = mega::mega_grid();
    Rng::new(seed, SALT)
        .sample(grid.len(), size)
        .into_iter()
        .map(|i| grid[i].clone())
        .collect()
}

/// The oracle's answer for a sample: the scalar `Sweep` aggregate and
/// the exact number of monitored lane-ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Aggregate of the scalar (unbatched) sweep over the same cells.
    pub aggregate: SweepAggregate,
    /// Ticks summed over every run.
    pub lane_ticks: u64,
}

/// Runs the scalar sweep over `cells` — the oracle every batched and
/// traced result must equal.
///
/// # Errors
///
/// The first failing cell's error, rendered.
pub fn reference(cells: &[MegaCell]) -> Result<Reference, String> {
    let family = VehicleFamily::default();
    let report = mega::mega_sweep(cells.to_vec())
        .run(|cell, seed| mega::build_mega_cell_in(&family, cell, seed))
        .map_err(|e| e.to_string())?;
    Ok(Reference {
        aggregate: report.aggregate(),
        lane_ticks: report.runs.iter().map(|r| r.ticks).sum(),
    })
}

/// The oracle: a sweep result must equal the scalar aggregate exactly.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check(reference: &Reference, got: &SweepAggregate) -> Result<(), String> {
    if got == &reference.aggregate {
        Ok(())
    } else {
        Err(format!(
            "batched mega aggregate differs from the scalar sweep: {got:?} vs {:?}",
            reference.aggregate
        ))
    }
}

/// One timed call of the library's batched sweep.
pub fn sweep_once(cells: &[MegaCell]) -> (Duration, Result<SweepAggregate, String>) {
    let cells = cells.to_vec();
    let started = Instant::now();
    let result = mega::run_mega_aggregate(cells, WIDTH)
        .map(|(aggregate, _)| aggregate)
        .map_err(|e| e.to_string());
    (started.elapsed(), result)
}

/// What one traced sweep measured.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The traced driver's aggregate (must equal the untraced one).
    pub aggregate: SweepAggregate,
    /// Wall time of the traced sweep.
    pub wall: Duration,
    /// The spans.
    pub tracer: Tracer,
    /// Lane-ticks simulated (sum of per-lane ticks).
    pub lane_ticks: u64,
    /// Lane-ticks the fused DAG was provisioned for (width × passes).
    pub provisioned_lane_ticks: u64,
    /// Unique nodes of the fused suite program.
    pub unique_nodes: u64,
    /// Busy time per worker, ns.
    pub worker_busy_ns: Vec<u64>,
    /// Runs completed.
    pub runs: u64,
}

/// One traced worker's spans, partial aggregate and counts.
struct WorkerOut {
    tracer: Tracer,
    aggregate: AggregateBuilder,
    lane_ticks: u64,
    provisioned: u64,
    runs: u64,
}

/// A lane's per-run state, as the library's stripe keeps it.
struct Lane {
    terminal_tick: Option<u64>,
    terminal_event: Option<String>,
    terminated_early: bool,
}

/// The traced sweep: the library's stripe loop rebuilt from public
/// calls — `build_simulator_batch`, `SimulatorBatch::step`,
/// `observe_lane`, `MonitorSuiteBatch::observe_slab`, lane retirement,
/// `finish`/`correlate_lane`/`take_violations_lane` — on `workers`
/// threads, with spans around every layer call.
pub fn traced_sweep(cells: &[MegaCell], workers: usize) -> Traced {
    let origin = Instant::now();
    let config = runner::thesis_config();
    let mut main = Tracer::new(origin);
    let root = main.open("worker", None, 0);
    let family = main.span("harness.setup", Some(root), 0, VehicleFamily::default);
    let subs: Vec<VehicleSubstrate> = main.span("harness.setup", Some(root), 0, || {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| mega::build_mega_cell_in(&family, c, cell_seed(0, i)))
            .collect()
    });
    let stripes: Vec<Vec<usize>> = (0..subs.len())
        .collect::<Vec<_>>()
        .chunks(WIDTH)
        .map(<[usize]>::to_vec)
        .collect();
    main.close(root);

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<WorkerOut>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (subs, stripes, next, results, family) =
                (&subs, &stripes, &next, &results, &family);
            scope.spawn(move || {
                let mut tracer = Tracer::new(origin);
                let root = tracer.open("worker", None, w as u64 + 1);
                let mut agg = AggregateBuilder::new();
                let (mut lane_ticks, mut provisioned, mut runs) = (0u64, 0u64, 0u64);
                loop {
                    let s = next.fetch_add(1, Ordering::Relaxed);
                    let Some(stripe) = stripes.get(s) else { break };
                    let group: Vec<&VehicleSubstrate> = stripe.iter().map(|&i| &subs[i]).collect();
                    if group.len() == 1 {
                        // The library runs one-cell tails on the scalar path.
                        let span = tracer.open("harness.scalar_run", Some(root), s as u64);
                        let (report, _) = Experiment::new(group[0])
                            .with_config(config)
                            .run_in(&mut RunContext::new())
                            .expect("mega cells run");
                        tracer.close(span);
                        lane_ticks += report.ticks;
                        provisioned += report.ticks;
                        runs += 1;
                        agg.absorb(&report);
                        continue;
                    }
                    let stats = stripe_traced(
                        &mut tracer,
                        root,
                        s as u64,
                        &group,
                        family,
                        config,
                        &mut agg,
                    );
                    lane_ticks += stats.0;
                    provisioned += stats.1;
                    runs += group.len() as u64;
                }
                tracer.close(root);
                results
                    .lock()
                    .expect("no worker panics while holding the results")
                    .push(WorkerOut {
                        tracer,
                        aggregate: agg,
                        lane_ticks,
                        provisioned,
                        runs,
                    });
            });
        }
    });
    let wall = started.elapsed();
    let mut traced = Traced {
        aggregate: SweepAggregate::default(),
        wall,
        tracer: Tracer::new(origin),
        lane_ticks: 0,
        provisioned_lane_ticks: 0,
        unique_nodes: family.template().fused_program().unique_nodes() as u64,
        worker_busy_ns: Vec::new(),
        runs: 0,
    };
    let mut agg = AggregateBuilder::new();
    for w in results.into_inner().expect("workers joined") {
        traced.worker_busy_ns.push(w.tracer.spans[0].busy_ns);
        main.absorb(w.tracer);
        agg.merge(w.aggregate);
        traced.lane_ticks += w.lane_ticks;
        traced.provisioned_lane_ticks += w.provisioned;
        traced.runs += w.runs;
    }
    traced.aggregate = agg.finish();
    traced.tracer = main;
    traced
}

/// One stripe of the traced sweep; returns (useful, provisioned)
/// lane-ticks.
fn stripe_traced(
    tracer: &mut Tracer,
    root: usize,
    req: u64,
    group: &[&VehicleSubstrate],
    family: &VehicleFamily,
    config: esafe_harness::ExperimentConfig,
    agg: &mut AggregateBuilder,
) -> (u64, u64) {
    let width = group.len();
    let span = tracer.open("harness.stripe", Some(root), req);
    let (mut sim, mut batch) = tracer.span("harness.setup", Some(span), req, || {
        (
            VehicleSubstrate::build_simulator_batch(group).expect("vehicles batch natively"),
            family.template().instantiate_batch(width),
        )
    });
    let table = group[0].signal_table().clone();
    let mut raw = table.frame();
    let mut observed = table.frame();
    let dt = sim.dt_millis();
    let scheduled_ticks = group[0].duration_ms().div_ceil(dt);
    let post_terminal_ticks = config.post_terminal_ms.div_ceil(dt);
    let mut lanes: Vec<Lane> = (0..width)
        .map(|_| Lane {
            terminal_tick: None,
            terminal_event: None,
            terminated_early: false,
        })
        .collect();
    let mut live = vec![true; width];
    let mut in_use = width;
    let (mut step, mut probe, mut observe) = (Fold::default(), Fold::default(), Fold::default());
    let mut passes = 0u64;
    for tick in 1..=scheduled_ticks {
        step.time(|| {
            sim.step();
        });
        probe.time(|| {
            for (l, sub) in group.iter().enumerate() {
                if live[l] {
                    sub.observe_lane(sim.state_mut(), l, &mut raw, &mut observed);
                }
            }
        });
        observe
            .time(|| batch.observe_slab(sim.state()))
            .expect("mega frames are complete");
        passes += 1;
        for l in 0..width {
            if !live[l] {
                continue;
            }
            let lane = &mut lanes[l];
            if lane.terminal_tick.is_none() {
                if let Some(event) = group[l].terminal_event_lane(sim.state(), l, &mut raw) {
                    lane.terminal_tick = Some(tick);
                    lane.terminal_event = Some(event.to_owned());
                }
            }
            if let Some(at) = lane.terminal_tick {
                if tick >= at + post_terminal_ticks {
                    lane.terminated_early = tick < scheduled_ticks;
                    live[l] = false;
                    in_use -= 1;
                    batch.retire_lane(l);
                    sim.retire_lane(l);
                }
            }
        }
        if in_use == 0 {
            break;
        }
    }
    tracer.fold("sim.step", span, req, step);
    tracer.fold("vehicle.probe", span, req, probe);
    tracer.fold("monitor.observe", span, req, observe);
    let correlate = tracer.open("monitor.correlate", Some(span), req);
    batch.finish();
    let window = config.correlation_window_ms.div_ceil(dt);
    let mut useful = 0u64;
    let mut reports = Vec::with_capacity(width);
    for (l, lane) in lanes.into_iter().enumerate() {
        let sub = group[l];
        useful += sim.lane_tick(l);
        reports.push(RunReport {
            substrate: sub.name().to_owned(),
            label: sub.label(),
            config,
            dt_millis: dt,
            scheduled_ticks,
            ticks: sim.lane_tick(l),
            end_time_s: sim.lane_seconds(l),
            terminated_early: lane.terminated_early,
            terminal_event: lane.terminal_event,
            correlation: batch.correlate_lane(l, window),
            violations: batch.take_violations_lane(l),
            series: SeriesLog::new(),
            trace: None,
        });
    }
    tracer.close(correlate);
    for report in &reports {
        agg.absorb(report);
    }
    tracer.close(span);
    (useful, passes * width as u64)
}

/// The untraced workload: repeated timed sweeps for `seconds`, each
/// checked against the scalar oracle afterwards.
pub fn run(cells: &[MegaCell], seconds: f64, out: &mut Outcome) {
    let (walls, results) = repeat(cells, seconds);
    out.set("peak_rss_mb", peak_rss_mib());
    let reference = match reference(cells) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("scalar reference sweep failed: {e}"));
            return;
        }
    };
    let rates = verify(cells, &reference, &walls, &results, out);
    out.set("ticks_per_s", median(&rates));
    out.set(
        "result_ms",
        median(&walls.iter().map(|w| w * 1e3).collect::<Vec<_>>()),
    );
    out.note(format!(
        "mega-sweep: {} cells x {} reps, {} lane-ticks per sweep, width {WIDTH}",
        cells.len(),
        walls.len(),
        reference.lane_ticks
    ));
    out.note(format!(
        "  sweep_lane_ticks_per_s = {:.0} 1/s (median), sweep call = {:.2} ms (median)",
        median(&rates),
        median(&walls) * 1e3
    ));
}

fn repeat(cells: &[MegaCell], seconds: f64) -> (Vec<f64>, Vec<Result<SweepAggregate, String>>) {
    let mut budget = Budget::new(seconds);
    let mut walls = Vec::new();
    let mut results = Vec::new();
    while budget.more() {
        let (wall, result) = sweep_once(cells);
        walls.push(wall.as_secs_f64());
        results.push(result);
    }
    (walls, results)
}

/// Checks every repetition against the oracle; returns per-rep rates.
fn verify(
    cells: &[MegaCell],
    reference: &Reference,
    walls: &[f64],
    results: &[Result<SweepAggregate, String>],
    out: &mut Outcome,
) -> Vec<f64> {
    let mut rates = Vec::new();
    for (wall, result) in walls.iter().zip(results) {
        out.attempted += cells.len() as u64;
        match result {
            Ok(aggregate) => {
                out.failed += aggregate.quarantined.len() as u64;
                if let Err(e) = check(reference, aggregate) {
                    out.fail(e);
                }
                rates.push(reference.lane_ticks as f64 / wall);
            }
            Err(e) => {
                out.failed += cells.len() as u64;
                out.fail(format!("sweep failed: {e}"));
            }
        }
    }
    rates
}

/// The traced workload: untraced and traced sweeps alternate for
/// `seconds`; the traced driver must reproduce the aggregate exactly.
pub fn run_traced(cells: &[MegaCell], seconds: f64, out: &mut Outcome) -> Option<Tracer> {
    let reference = match reference(cells) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("scalar reference sweep failed: {e}"));
            return None;
        }
    };
    let mut budget = Budget::new(seconds);
    let (mut untraced, mut traced_rates) = (Vec::new(), Vec::new());
    let mut layers = LayerTimes::default();
    let mut last: Option<Traced> = None;
    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    while budget.more() {
        let (wall, result) = sweep_once(cells);
        out.attempted += cells.len() as u64;
        match result {
            Ok(aggregate) => {
                if let Err(e) = check(&reference, &aggregate) {
                    out.fail(e);
                }
            }
            Err(e) => {
                out.failed += cells.len() as u64;
                out.fail(format!("sweep failed: {e}"));
            }
        }
        untraced.push(reference.lane_ticks as f64 / wall.as_secs_f64());

        let traced = traced_sweep(cells, WORKERS);
        out.attempted += cells.len() as u64;
        if let Err(e) = check(&reference, &traced.aggregate) {
            out.fail(format!("traced driver: {e}"));
        }
        if traced.lane_ticks != reference.lane_ticks {
            out.fail(format!(
                "traced driver simulated {} lane-ticks, the scalar sweep {}",
                traced.lane_ticks, reference.lane_ticks
            ));
        }
        traced_rates.push(traced.lane_ticks as f64 / traced.wall.as_secs_f64());
        let tracer = &traced.tracer;
        layers.add(&tracer.layers());
        totals.0 += tracer.busy("sim.step");
        totals.1 += tracer.busy("vehicle.probe");
        totals.2 += tracer.busy("monitor.observe");
        totals.3 += tracer.busy("monitor.correlate");
        totals.4 += tracer.busy("harness.setup");
        totals.5 += traced.lane_ticks;
        totals.6 += traced.runs;
        last = Some(traced);
    }
    let last = last.expect("at least one traced sweep");
    let lt = totals.5 as f64;
    out.set("sim.step_ns_per_lane_tick", ratio(totals.0 as f64, lt));
    out.set("sim.lane_ticks", last.lane_ticks as f64);
    out.set("vehicle.probe_ns_per_lane_tick", ratio(totals.1 as f64, lt));
    out.set(
        "monitor.observe_ns_per_lane_tick",
        ratio(totals.2 as f64, lt),
    );
    out.set(
        "monitor.dag_node_evals",
        (last.unique_nodes * last.provisioned_lane_ticks) as f64,
    );
    out.set(
        "monitor.lane_occupancy",
        ratio(last.lane_ticks as f64, last.provisioned_lane_ticks as f64),
    );
    out.set(
        "monitor.correlate_us_per_run",
        ratio(totals.3 as f64 / 1e3, totals.6 as f64),
    );
    out.set(
        "harness.setup_us_per_run",
        ratio(totals.4 as f64 / 1e3, totals.6 as f64),
    );
    out.set("harness.worker_skew", skew(&last.worker_busy_ns));
    let (u, t) = (median(&untraced), median(&traced_rates));
    out.set("trace.overhead_pct", ratio(u - t, u) * 100.0);
    set_layers(out, &layers, untraced.len() as f64);
    out.note(format!(
        "mega-sweep traced: {} reps; untraced {u:.0} vs traced {t:.0} lane-ticks/s; aggregate, lane-ticks equal",
        untraced.len()
    ));
    Some(last.tracer)
}
