//! Striped batched sweeps: whole groups of cells simulating *and*
//! monitoring together through lane-major slabs.
//!
//! The scalar sweep runs one cell at a time: each run steps its own
//! simulator and walks the fused monitor DAG once per tick for *its
//! own* frame. The batched sweep instead groups cells that share a
//! compile-once [`SuiteTemplate`](esafe_monitor::SuiteTemplate) (and
//! schedule) into **stripes** of up to `width` cells, advances the
//! whole stripe through one [`SimulatorBatch`] — every subsystem
//! stepping all lanes of a lane-major
//! [`FrameBatch`](esafe_logic::FrameBatch) state slab before the next
//! subsystem runs — and feeds the slab directly to one
//! [`MonitorSuiteBatch`] pass per tick. Monitoring, series sampling,
//! and terminal-event checks all read the slab **in place**: the
//! per-lane `Frame` copy across the sim→observe boundary is gone, and
//! both engines evaluate each node/subsystem across every run in the
//! stripe before moving on, amortizing decode and turning the inner
//! loops into straight-line sweeps over contiguous lanes.
//!
//! Batching is observationally invisible — reports and aggregates are
//! **bit-identical** to the scalar paths ([`Sweep::run`] /
//! [`Sweep::run_aggregate`]), which the workspace's golden sweeps and
//! property tests pin. The shapes that don't fit a stripe degrade
//! gracefully to the scalar fused path, never to different results:
//!
//! * cells without a suite template (self-compiling substrates) run
//!   scalar;
//! * a group of one cell (or any cell at width 1) runs scalar; larger
//!   groups are cut into near-equal stripes, so there is no one-cell
//!   tail;
//! * a run hitting its terminal event mid-stripe is *retired*: its lane
//!   freezes (temporal history, violation trackers, step counter) while
//!   the surviving lanes keep ticking, exactly as if each had run alone;
//! * a monitoring error inside a stripe reruns the whole stripe on the
//!   scalar path, so per-cell errors surface identically to
//!   [`Sweep::run`] (earliest-cell-first);
//! * with a [`Quarantine`] installed via
//!   [`Sweep::with_quarantine`], a panic anywhere in a stripe reruns
//!   every lane on the guarded scalar path: the panicking cell is
//!   quarantined as a typed [`CellFailure`](crate::sweep::CellFailure)
//!   while its stripe-mates reproduce their healthy reports
//!   bit-identically — fault containment at the cell boundary.

use crate::context::{RunContext, RunTiming, SuiteProvenance};
use crate::experiment::{Experiment, ExperimentConfig, ExperimentError, RunReport};
use crate::journal::{CellDelta, JournalRecord, SweepJournal};
use crate::lanes::{plan_stripes, LaneAllocator};
use crate::substrate::Substrate;
use crate::sweep::{
    cell_seed, GuardedOutcome, Partial, Quarantine, Sweep, SweepAggregate, SweepReport, SweepStats,
};
use esafe_logic::SignalId;
use esafe_monitor::MonitorSuiteBatch;
use esafe_sim::{sample_point, SeriesLog, Simulator, SimulatorBatch};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default stripe width for batched sweeps: wide enough to amortize the
/// per-node decode across many lanes, narrow enough that a grid still
/// splits into more stripes than cores. (The mega-grid reproduction
/// calibrates its width empirically; see `esafe-bench`.)
pub const DEFAULT_BATCH_WIDTH: usize = 8;

/// One schedulable piece of a batched sweep: a lock-step stripe of
/// same-template cell indices, or a single cell on the scalar path.
#[derive(Debug)]
enum Unit {
    Stripe(Vec<usize>),
    Scalar(usize),
}

/// Partitions cells into near-equal stripes of at most `width`
/// same-group cells ([`plan_stripes`]) plus scalar singles. Cells group
/// when they share the same suite template, signal table, and scheduled
/// duration (`Arc` identity — the family pattern); template-less cells
/// and one-cell stripes run scalar. `None` cells are planned into
/// **no** unit — they are cells the caller is skipping (already
/// checkpointed) or failed to build (quarantined separately by the
/// guarded planner).
fn plan_units<S: Substrate>(subs: &[Option<S>], width: usize) -> Vec<Unit> {
    let mut units = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<(usize, usize, u64), usize> = HashMap::new();
    for (i, sub) in subs.iter().enumerate() {
        let Some(sub) = sub else { continue };
        match sub.suite_template() {
            None => units.push(Unit::Scalar(i)),
            Some(template) => {
                let key = (
                    Arc::as_ptr(sub.signal_table()) as usize,
                    Arc::as_ptr(template) as usize,
                    sub.duration_ms(),
                );
                let g = *by_key.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(i);
            }
        }
    }
    // One worker: a sweep's plan depends on the grid and the width
    // only, never on the machine's core count. A grid normally yields
    // far more stripes than cores anyway.
    let lens: Vec<usize> = groups.iter().map(Vec::len).collect();
    for (g, range) in plan_stripes(&lens, width, 1) {
        let chunk = &groups[g][range];
        if chunk.len() == 1 {
            units.push(Unit::Scalar(chunk[0]));
        } else {
            units.push(Unit::Stripe(chunk.to_vec()));
        }
    }
    units
}

/// The per-lane run state a stripe carries for one cell: everything the
/// scalar experiment loop keeps per run, minus the monitor suite (which
/// lives lane-indexed in the shared [`MonitorSuiteBatch`]) and the
/// simulator (which lives lane-indexed in the stripe's
/// [`SimulatorBatch`]).
struct Lane<'s> {
    /// The substrate's tracked signal ids, resolved once at stripe
    /// setup rather than re-fetched per tick.
    tracked: &'s [SignalId],
    /// Per-tracked-signal point buffers (the indexed fast path), used
    /// when no signal is tracked twice.
    buffers: Vec<Vec<(f64, f64)>>,
    buffered: bool,
    series: SeriesLog,
    terminal_tick: Option<u64>,
    terminal_event: Option<String>,
    terminated_early: bool,
}

type CellOutcome = (usize, Result<RunReport, ExperimentError>, RunTiming);

/// A planned cell's substrate. Planning only emits units over built
/// (`Some`) cells, so the lookup cannot fail for a planned index.
fn built<S>(subs: &[Option<S>], i: usize) -> &S {
    subs[i].as_ref().expect("planned cells are built")
}

/// Runs one cell on the scalar experiment loop — the fallback for
/// template-less cells, one-cell stripes, and stripes that hit a
/// monitoring error. `budget` is the quarantine's tick budget (always
/// `None` on the unguarded paths), forwarded so fallback runs fail
/// exactly where a guarded scalar run would.
fn run_scalar_cell<S: Substrate>(
    config: ExperimentConfig,
    budget: Option<u64>,
    substrate: &S,
    index: usize,
) -> CellOutcome {
    match Experiment::new(substrate)
        .with_config(config)
        .with_tick_budget(budget)
        .run_in(&mut RunContext::new())
    {
        Ok((report, timing)) => (index, Ok(report), timing),
        Err(e) => (index, Err(e), RunTiming::default()),
    }
}

/// Runs one stripe: one [`SimulatorBatch`] advancing every lane through
/// lane-major state slabs, with monitors, series sampling, and terminal
/// checks all reading the slab **in place** — no per-lane `Frame` copy
/// anywhere in the tick loop (substrates without in-place observe
/// overrides bridge through two stripe-owned scratch frames). Per lane,
/// the loop reproduces the scalar experiment semantics exactly — same
/// tick schedule, same series sampling, same terminal-event grace
/// window, same correlation — so each cell's report is bit-identical to
/// a scalar run of the same substrate.
fn run_stripe<S: Substrate>(
    config: ExperimentConfig,
    budget: Option<u64>,
    subs: &[Option<S>],
    lanes_idx: &[usize],
) -> Vec<CellOutcome> {
    let width = lanes_idx.len();
    let setup_started = Instant::now();
    let template = built(subs, lanes_idx[0])
        .suite_template()
        .expect("planned stripes carry a template");
    let group: Vec<&S> = lanes_idx.iter().map(|&i| built(subs, i)).collect();
    let mut lanes: Vec<Lane<'_>> = group
        .iter()
        .map(|substrate| {
            // Tracked ids are resolved once here, not per tick.
            let tracked = substrate.tracked_signals();
            let buffered = {
                let mut ids: Vec<_> = tracked.to_vec();
                ids.sort_unstable();
                ids.dedup();
                ids.len() == tracked.len()
            };
            Lane {
                tracked,
                buffers: if buffered {
                    tracked.iter().map(|_| Vec::new()).collect()
                } else {
                    Vec::new()
                },
                buffered,
                series: SeriesLog::new(),
                terminal_tick: None,
                terminal_event: None,
                terminated_early: false,
            }
        })
        .collect();
    // A stripe is the static case of the shared lane-occupancy
    // abstraction (see [`LaneAllocator`]): every lane is claimed up
    // front and released as its run retires.
    let mut occupancy = LaneAllocator::new(width);
    for _ in 0..width {
        occupancy.claim();
    }

    let mut sim = match S::build_simulator_batch(&group) {
        Some(sim) => sim,
        None => {
            // No native batched builder: wrap scalar simulators. Their
            // per-lane chains step bit-identically inside the batch.
            let sims: Vec<Simulator> = group.iter().map(|s| s.build_simulator()).collect();
            let dt = sims[0].dt_millis();
            if sims.iter().any(|s| s.dt_millis() != dt) {
                // Mixed tick periods cannot tick in lock-step. Grouping
                // keys on the shared table/template/duration, which in
                // practice fixes dt too — this is a correctness
                // backstop, not a hot path.
                return lanes_idx
                    .iter()
                    .map(|&i| run_scalar_cell(config, budget, built(subs, i), i))
                    .collect();
            }
            SimulatorBatch::from_scalar(sims)
        }
    };
    let dt = sim.dt_millis();

    let mut batch: MonitorSuiteBatch = template.instantiate_batch(width);
    let table = Arc::clone(built(subs, lanes_idx[0]).signal_table());
    // Stripe-owned scratch frames for substrates whose observe /
    // terminal check still runs per lane over a copied frame.
    let mut raw = table.frame();
    let mut observed = table.frame();
    let scheduled_ticks = built(subs, lanes_idx[0]).duration_ms().div_ceil(dt);
    let post_terminal_ticks = config.post_terminal_ms.div_ceil(dt);
    let setup = setup_started.elapsed();

    // Whether the quarantine's tick budget elapsed with lanes still
    // live; those lanes fail exactly where a scalar guarded run would.
    let mut budget_tripped = false;
    let tick_started = Instant::now();
    for tick in 1..=scheduled_ticks {
        if let Some(b) = budget {
            if tick > b {
                budget_tripped = true;
                break;
            }
        }
        sim.step();
        for (l, sub) in group.iter().enumerate().take(width) {
            if occupancy.is_claimed(l) {
                sub.observe_lane(sim.state_mut(), l, &mut raw, &mut observed);
            }
        }
        if batch.observe_slab(sim.state()).is_err() {
            // A monitoring error mid-stripe: rerun every lane on the
            // scalar path so per-cell results (successes *and* the
            // failing cell's error) match `Sweep::run` exactly.
            return lanes_idx
                .iter()
                .map(|&i| run_scalar_cell(config, budget, built(subs, i), i))
                .collect();
        }
        for (l, lane) in lanes.iter_mut().enumerate() {
            if !occupancy.is_claimed(l) {
                continue;
            }
            let t = sim.lane_seconds(l);
            if lane.buffered {
                for (buffer, &id) in lane.buffers.iter_mut().zip(lane.tracked) {
                    if let Some(x) = sample_point(sim.state().get(id, l)) {
                        buffer.push((t, x));
                    }
                }
            } else {
                for &id in lane.tracked {
                    // Same rule as `SeriesLog::sample`, reading the slab.
                    if let Some(x) = sample_point(sim.state().get(id, l)) {
                        lane.series.push(table.name(id), t, x);
                    }
                }
            }
            if lane.terminal_tick.is_none() {
                if let Some(event) = group[l].terminal_event_lane(sim.state(), l, &mut raw) {
                    lane.terminal_tick = Some(tick);
                    lane.terminal_event = Some(event.to_owned());
                }
            }
            if let Some(at) = lane.terminal_tick {
                if tick >= at + post_terminal_ticks {
                    lane.terminated_early = tick < scheduled_ticks;
                    occupancy.release(l);
                    batch.retire_lane(l);
                    sim.retire_lane(l);
                }
            }
        }
        if occupancy.in_use() == 0 {
            break;
        }
    }
    batch.finish();
    let ticking = tick_started.elapsed();

    // Per-lane timing: the stripe's wall-clock split evenly across its
    // lanes, so `SweepStats` totals stay comparable to the scalar paths.
    let lane_timing = RunTiming {
        setup: setup / width as u32,
        ticking: ticking / width as u32,
        suite: SuiteProvenance::Instantiated,
    };
    let window_ticks = config.correlation_window_ms.div_ceil(dt);
    lanes
        .into_iter()
        .enumerate()
        .map(|(l, lane)| {
            let index = lanes_idx[l];
            if budget_tripped && occupancy.is_claimed(l) {
                let budget = budget.expect("budget trips only when armed");
                return (
                    index,
                    Err(ExperimentError::TickBudget { budget }),
                    RunTiming::default(),
                );
            }
            let substrate = built(subs, index);
            let correlation = batch.correlate_lane(l, window_ticks);
            let violations = batch.take_violations_lane(l);
            let mut series = lane.series;
            for (buffer, &id) in lane.buffers.into_iter().zip(lane.tracked) {
                series.append_points(substrate.signal_table().name(id), buffer);
            }
            let report = RunReport {
                substrate: substrate.name().to_owned(),
                label: substrate.label(),
                config,
                dt_millis: dt,
                scheduled_ticks,
                ticks: sim.lane_tick(l),
                end_time_s: sim.lane_seconds(l),
                terminated_early: lane.terminated_early,
                terminal_event: lane.terminal_event,
                violations,
                correlation,
                series,
                trace: None,
            };
            (index, Ok(report), lane_timing)
        })
        .collect()
}

impl<C: Sync> Sweep<C> {
    /// [`Sweep::run`] on the **batched** engine: cells sharing a suite
    /// template are grouped into lock-step stripes of up to `width`
    /// runs, each tick feeding every lane's observed frame to one
    /// [`MonitorSuiteBatch`] pass (see the [module docs](self)).
    /// Reports are bit-identical to the scalar paths, in cell order.
    ///
    /// # Errors
    ///
    /// Returns the first cell's [`ExperimentError`], by cell order.
    pub fn run_batched<S, F>(&self, build: F, width: usize) -> Result<SweepReport, ExperimentError>
    where
        S: Substrate + Sync,
        F: Fn(&C, u64) -> S + Sync,
    {
        self.run_batched_timed(build, width)
            .map(|(report, _)| report)
    }

    /// [`Sweep::run_batched`] plus the aggregated [`SweepStats`]
    /// (stripe wall-clock split evenly across its lanes).
    ///
    /// # Errors
    ///
    /// Returns the first cell's [`ExperimentError`], by cell order.
    pub fn run_batched_timed<S, F>(
        &self,
        build: F,
        width: usize,
    ) -> Result<(SweepReport, SweepStats), ExperimentError>
    where
        S: Substrate + Sync,
        F: Fn(&C, u64) -> S + Sync,
    {
        if let Some(q) = self.quarantine {
            let subs = self.build_all_guarded(&build);
            let units = plan_units_with_unbuilt(&subs, width);
            let per_unit: Vec<Vec<(usize, GuardedOutcome)>> = units
                .into_par_iter()
                .map(|unit| self.run_unit_guarded(q, &subs, &unit, &build))
                .collect();
            let mut slots: Vec<Option<GuardedOutcome>> = (0..subs.len()).map(|_| None).collect();
            for (i, outcome) in per_unit.into_iter().flatten() {
                slots[i] = Some(outcome);
            }
            let results: Vec<GuardedOutcome> = slots
                .into_iter()
                .map(|slot| slot.expect("every cell is planned into exactly one unit"))
                .collect();
            return Ok(Self::collect_guarded(results));
        }
        let subs = self.build_all(&build);
        let units = plan_units(&subs, width);
        let per_unit: Vec<Vec<CellOutcome>> = units
            .into_par_iter()
            .map(|unit| run_unit(self.config, &subs, &unit))
            .collect();
        let mut slots: Vec<Option<(Result<RunReport, ExperimentError>, RunTiming)>> =
            (0..subs.len()).map(|_| None).collect();
        for (i, result, timing) in per_unit.into_iter().flatten() {
            slots[i] = Some((result, timing));
        }
        let results: Vec<_> = slots
            .into_iter()
            .map(|slot| slot.expect("every cell is planned into exactly one unit"))
            .collect();
        Self::collect_reports(results)
    }

    /// [`Sweep::run_aggregate`] on the **batched** engine: stripes run
    /// in parallel, and every lane's report folds into a per-worker
    /// partial aggregate the moment its stripe completes — no report
    /// outlives its stripe, so memory is O(workers × width) regardless
    /// of grid size. The aggregate is identical to every other sweep
    /// path (pinned by the workspace's regression tests); this is the
    /// engine behind `repro --grid` and `repro --mega-grid`.
    ///
    /// # Errors
    ///
    /// Returns the first cell's [`ExperimentError`], by cell order.
    pub fn run_aggregate_batched<S, F>(
        &self,
        build: F,
        width: usize,
    ) -> Result<(SweepAggregate, SweepStats), ExperimentError>
    where
        S: Substrate + Sync,
        F: Fn(&C, u64) -> S + Sync,
    {
        if let Some(q) = self.quarantine {
            let subs = self.build_all_guarded(&build);
            let units = plan_units_with_unbuilt(&subs, width);
            let partial = units
                .into_par_iter()
                .map_init(
                    || (),
                    |(), unit| self.run_unit_guarded(q, &subs, &unit, &build),
                )
                .fold(Partial::default, |acc: Partial, outcomes| {
                    outcomes
                        .into_iter()
                        .fold(acc, |acc, (_, outcome)| acc.absorbed_guarded(outcome))
                })
                .reduce(Partial::default, Partial::merged);
            return partial.finish();
        }
        let subs = self.build_all(&build);
        let units = plan_units(&subs, width);
        let partial = units
            .into_par_iter()
            // `map_init` only for its `fold` hook — stripes carry no
            // per-worker pooled state (scalar fallbacks build their own
            // `RunContext`).
            .map_init(|| (), |(), unit| run_unit(self.config, &subs, &unit))
            .fold(Partial::default, |acc: Partial, outcomes| {
                outcomes.into_iter().fold(acc, |acc, (i, result, timing)| {
                    acc.absorbed(i, (result, timing))
                })
            })
            .reduce(Partial::default, Partial::merged);
        partial.finish()
    }

    /// [`Sweep::run_aggregate_batched`] with durable progress: every
    /// finished cell (healthy or quarantined) is appended to `journal`
    /// the moment its unit completes, and cells the journal already
    /// marks done are **skipped** — their contributions replay from the
    /// journal's records instead of re-running. Interrupt the process
    /// at any point, reopen the journal ([`SweepJournal::open`] — torn
    /// tails are truncated), and call this again: the final aggregate
    /// is bit-identical to an uninterrupted run, because per-cell seeds
    /// are deterministic ([`cell_seed`]) and every aggregate total is a
    /// commutative sum over per-cell deltas.
    ///
    /// Fault isolation is always on here (the sweep's
    /// [`Quarantine`] if installed, else the default policy): a sweep
    /// durable enough to checkpoint should not abort on one bad cell.
    /// The returned [`SweepStats`] covers only the cells run by *this*
    /// call — resumed cells contribute no timing.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Journal`] if the journal does not
    /// describe this sweep (seed, cell count, or timing policy
    /// mismatch) or on journal I/O failure.
    pub fn run_aggregate_batched_checkpointed<S, F>(
        &self,
        build: F,
        width: usize,
        journal: &mut SweepJournal,
    ) -> Result<(SweepAggregate, SweepStats), ExperimentError>
    where
        S: Substrate + Sync,
        F: Fn(&C, u64) -> S + Sync,
    {
        if journal.base_seed() != self.base_seed
            || journal.cells() != self.cells.len()
            || journal.config() != self.config
        {
            return Err(ExperimentError::Journal(format!(
                "journal describes a different sweep: journal has seed {} / {} cells / {:?}, \
                 this sweep has seed {} / {} cells / {:?}",
                journal.base_seed(),
                journal.cells(),
                journal.config(),
                self.base_seed,
                self.cells.len(),
                self.config,
            )));
        }
        let q = self.quarantine.unwrap_or_default();
        // Completed cells are `None` (skip); incomplete cells build
        // under `catch_unwind` like the guarded path.
        let subs: Vec<Option<S>> = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                if journal.is_completed(i) {
                    None
                } else {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        build(cell, cell_seed(self.base_seed, i))
                    }))
                    .ok()
                }
            })
            .collect();
        let mut units = plan_units(&subs, width);
        for (i, sub) in subs.iter().enumerate() {
            if sub.is_none() && !journal.is_completed(i) {
                units.push(Unit::Scalar(i));
            }
        }
        // Workers funnel records through one mutex; the first append
        // error latches and surfaces after the join (remaining cells
        // still run — they are simply no longer durable).
        let sink = Mutex::new((journal, None::<ExperimentError>));
        let stats = units
            .into_par_iter()
            .map_init(
                || (),
                |(), unit| {
                    let outcomes = self.run_unit_guarded(q, &subs, &unit, &build);
                    let mut stats = SweepStats::default();
                    let mut records = Vec::with_capacity(outcomes.len());
                    for (i, (result, retries)) in outcomes {
                        match result {
                            Ok((report, timing)) => {
                                stats.absorb(timing);
                                records.push(JournalRecord::Completed(CellDelta::from_report(
                                    i, retries, &report,
                                )));
                            }
                            Err(failure) => records.push(JournalRecord::Quarantined(failure)),
                        }
                    }
                    let mut guard = sink.lock().unwrap_or_else(|e| e.into_inner());
                    for record in records {
                        if guard.1.is_some() {
                            break;
                        }
                        if let Err(e) = guard.0.append(record) {
                            guard.1 = Some(e);
                        }
                    }
                    stats
                },
            )
            .fold(SweepStats::default, |mut a, b| {
                a.merge(b);
                a
            })
            .reduce(SweepStats::default, |mut a, b| {
                a.merge(b);
                a
            });
        let (journal, error) = sink.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = error {
            return Err(e);
        }
        journal.sync()?;
        Ok((journal.partial().finish(), stats))
    }

    /// Builds every cell's substrate up front (cells must be inspected
    /// — table, template, duration — before they can be grouped into
    /// stripes). Substrate construction is the cheap, amortized part of
    /// a run; simulators and suites are still built per stripe. Every
    /// slot is `Some` — the `Option` is the planner's shared currency
    /// with the guarded and checkpoint-resume paths, which skip cells.
    pub(crate) fn build_all<S, F>(&self, build: &F) -> Vec<Option<S>>
    where
        S: Substrate,
        F: Fn(&C, u64) -> S,
    {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, cell)| Some(build(cell, cell_seed(self.base_seed, i))))
            .collect()
    }

    /// [`Sweep::build_all`] under `catch_unwind`: a cell whose *build*
    /// panics becomes `None` and is later quarantined through the
    /// guarded scalar ladder (which retries the build per policy).
    fn build_all_guarded<S, F>(&self, build: &F) -> Vec<Option<S>>
    where
        S: Substrate,
        F: Fn(&C, u64) -> S,
    {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    build(cell, cell_seed(self.base_seed, i))
                }))
                .ok()
            })
            .collect()
    }

    /// Executes one planned unit with fault isolation. Healthy stripe
    /// lanes keep their (bit-identical) batched reports; any failing
    /// lane — and, after a panic, the whole stripe — re-runs the full
    /// guarded scalar ladder so provenance and retries match
    /// [`Sweep::run_cell_quarantined`] exactly.
    fn run_unit_guarded<S, F>(
        &self,
        q: Quarantine,
        subs: &[Option<S>],
        unit: &Unit,
        build: &F,
    ) -> Vec<(usize, GuardedOutcome)>
    where
        S: Substrate + Sync,
        F: Fn(&C, u64) -> S + Sync,
    {
        let guarded_scalar = |i: usize| {
            (
                i,
                self.run_cell_quarantined(q, &mut RunContext::new(), i, build),
            )
        };
        match unit {
            Unit::Scalar(i) => vec![guarded_scalar(*i)],
            Unit::Stripe(lanes) => {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_stripe(self.config, q.tick_budget, subs, lanes)
                }));
                match caught {
                    Ok(outcomes) => outcomes
                        .into_iter()
                        .map(|(i, result, timing)| match result {
                            Ok(report) => (i, (Ok((report, timing)), 0)),
                            Err(_) => guarded_scalar(i),
                        })
                        .collect(),
                    // A panic anywhere in the stripe: every lane re-runs
                    // guarded-scalar. The faulty cell is quarantined with
                    // its own panic payload; stripe-mates reproduce their
                    // healthy reports bit-identically.
                    Err(_) => lanes.iter().map(|&i| guarded_scalar(i)).collect(),
                }
            }
        }
    }
}

/// Executes one planned unit.
fn run_unit<S: Substrate>(
    config: ExperimentConfig,
    subs: &[Option<S>],
    unit: &Unit,
) -> Vec<CellOutcome> {
    match unit {
        Unit::Scalar(i) => vec![run_scalar_cell(config, None, built(subs, *i), *i)],
        Unit::Stripe(lanes) => run_stripe(config, None, subs, lanes),
    }
}

/// [`plan_units`] plus explicit scalar units for unbuilt (`None`) cells,
/// so the guarded runner can rebuild and quarantine them with
/// provenance. Only the guarded paths use this — on a checkpoint resume
/// `None` means "already completed, skip", not "rebuild".
fn plan_units_with_unbuilt<S: Substrate>(subs: &[Option<S>], width: usize) -> Vec<Unit> {
    let mut units = plan_units(subs, width);
    for (i, sub) in subs.iter().enumerate() {
        if sub.is_none() {
            units.push(Unit::Scalar(i));
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use esafe_logic::{parse, EvalError, Frame, SignalId, SignalTable};
    use esafe_monitor::{Location, MonitorSuite, SuiteTemplate};
    use esafe_sim::{SimTime, Subsystem};

    /// A ramp that climbs by `slope` per tick.
    struct Ramp {
        x: SignalId,
        slope: f64,
    }

    impl Subsystem for Ramp {
        fn name(&self) -> &str {
            "ramp"
        }
        fn step(&mut self, _t: &SimTime, prev: &Frame, next: &mut Frame) {
            next.set(self.x, prev.real_or(self.x, 0.0) + self.slope);
        }
    }

    /// A family of ramp substrates sharing one table + suite template:
    /// per-cell `slope` controls when (or whether) the terminal limit is
    /// hit, so a stripe mixes clean, early-terminating, and
    /// limit-at-the-boundary lanes.
    struct RampFamily {
        table: Arc<SignalTable>,
        x: SignalId,
        template: Arc<SuiteTemplate>,
    }

    impl RampFamily {
        fn new() -> Self {
            let mut b = SignalTable::builder();
            let x = b.real("x");
            let table = b.finish();
            let mut suite = MonitorSuite::new(table.clone());
            suite
                .add_goal("G", Location::new("Ramp"), parse("x < 40.0").unwrap())
                .unwrap();
            suite
                .add_subgoal(
                    "G.A",
                    "G",
                    Location::new("Sub"),
                    parse("held_for(x < 35.0, 2ticks)").unwrap(),
                )
                .unwrap();
            let template = Arc::new(suite.template());
            RampFamily { table, x, template }
        }

        fn substrate(&self, slope: f64) -> RampCell {
            RampCell {
                table: self.table.clone(),
                x: self.x,
                slope,
                template: Some(Arc::clone(&self.template)),
                tracked: vec![self.x],
                panic_at: None,
            }
        }

        /// A cell whose simulator panics mid-run, once `x` reaches
        /// `at` — for fault-isolation tests.
        fn panicking_substrate(&self, slope: f64, at: f64) -> RampCell {
            let mut cell = self.substrate(slope);
            cell.panic_at = Some(at);
            cell
        }
    }

    /// Panics the tick after `x` reaches `at`.
    struct PanicAt {
        x: SignalId,
        at: f64,
    }

    impl Subsystem for PanicAt {
        fn name(&self) -> &str {
            "panic-at"
        }
        fn step(&mut self, _t: &SimTime, prev: &Frame, _next: &mut Frame) {
            let x = prev.real_or(self.x, 0.0);
            if x >= self.at {
                panic!("lane melted down at x={x}");
            }
        }
    }

    struct RampCell {
        table: Arc<SignalTable>,
        x: SignalId,
        slope: f64,
        template: Option<Arc<SuiteTemplate>>,
        tracked: Vec<SignalId>,
        panic_at: Option<f64>,
    }

    impl Substrate for RampCell {
        fn name(&self) -> &str {
            "ramp"
        }
        fn label(&self) -> String {
            format!("slope-{}", self.slope)
        }
        fn duration_ms(&self) -> u64 {
            600
        }
        fn signal_table(&self) -> &Arc<SignalTable> {
            &self.table
        }
        fn build_simulator(&self) -> Simulator {
            let mut sim = Simulator::new(10, &self.table);
            sim.add(Ramp {
                x: self.x,
                slope: self.slope,
            });
            if let Some(at) = self.panic_at {
                sim.add(PanicAt { x: self.x, at });
            }
            sim.init_with(|f| f.set(self.x, 0.0));
            sim
        }
        fn build_monitors(&self) -> Result<MonitorSuite, EvalError> {
            let mut suite = MonitorSuite::new(self.table.clone());
            suite.add_goal("G", Location::new("Ramp"), parse("x < 40.0").unwrap())?;
            suite.add_subgoal(
                "G.A",
                "G",
                Location::new("Sub"),
                parse("held_for(x < 35.0, 2ticks)").unwrap(),
            )?;
            Ok(suite)
        }
        fn suite_template(&self) -> Option<&Arc<SuiteTemplate>> {
            self.template.as_ref()
        }
        fn terminal_event(&self, observed: &Frame) -> Option<&'static str> {
            (observed.real_or(self.x, 0.0) >= 50.0).then_some("limit")
        }
        fn tracked_signals(&self) -> &[SignalId] {
            &self.tracked
        }
    }

    /// Slopes chosen so lanes terminate at different ticks: slope 2.0
    /// hits the terminal limit at tick 25 (mid-stripe), slope 1.0 at
    /// tick 50, slope 0.25 never.
    fn mixed_slopes() -> Vec<f64> {
        vec![2.0, 0.25, 1.0, 0.5, 3.0, 0.75, 1.5, 0.1, 2.5, 0.3, 4.0]
    }

    #[test]
    fn plan_cuts_near_equal_stripes_and_keeps_the_mega_sweep_shape() {
        let family = RampFamily::new();
        let stripe_sizes = |cells: usize, width: usize| -> Vec<usize> {
            let subs: Vec<Option<RampCell>> =
                (0..cells).map(|_| Some(family.substrate(1.0))).collect();
            plan_units(&subs, width)
                .iter()
                .map(|unit| match unit {
                    Unit::Stripe(lanes) => lanes.len(),
                    Unit::Scalar(_) => 1,
                })
                .collect()
        };
        // The mega-sweep's sample: 512 cells at width 128.
        assert_eq!(stripe_sizes(512, 128), vec![128; 4]);
        // A ragged group is cut evenly instead of leaving a one-cell tail.
        assert_eq!(stripe_sizes(9, 8), vec![5, 4]);
        assert_eq!(stripe_sizes(1, 8), vec![1]);
    }

    #[test]
    fn batched_sweep_matches_scalar_sweep_bit_for_bit() {
        let family = RampFamily::new();
        let sweep = Sweep::new(mixed_slopes()).with_base_seed(11);
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let scalar = sweep.run_serial(build).unwrap();
        for width in [2, 3, 8, 64] {
            let batched = sweep.run_batched(build, width).unwrap();
            assert_eq!(batched, scalar, "width {width} diverged from scalar");
        }
    }

    /// The early-termination-inside-a-stripe regression: a lane that
    /// hits its terminal event mid-stripe (slope 4.0 terminates at tick
    /// ~13 of 60) must leave every surviving lane's verdicts, series,
    /// and violation intervals bit-identical to scalar execution.
    #[test]
    fn early_termination_mid_stripe_leaves_survivors_bit_identical() {
        let family = RampFamily::new();
        // One stripe: the fast lane dies first, the slow lanes run the
        // full schedule.
        let sweep = Sweep::new(vec![4.0, 0.2, 1.0, 0.4]).with_base_seed(3);
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let scalar = sweep.run_serial(build).unwrap();
        let batched = sweep.run_batched(build, 4).unwrap();
        assert!(
            batched.runs[0].terminated_early,
            "the fast lane must terminate early"
        );
        assert!(
            !batched.runs[1].terminated_early,
            "the slow lane must run its schedule"
        );
        assert_ne!(
            batched.runs[0].ticks, batched.runs[2].ticks,
            "lanes must terminate at different ticks"
        );
        assert_eq!(batched, scalar);
    }

    #[test]
    fn batched_aggregate_matches_scalar_aggregate() {
        let family = RampFamily::new();
        let sweep = Sweep::new(mixed_slopes()).with_base_seed(7);
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let (scalar, scalar_stats) = sweep.run_aggregate(build).unwrap();
        let (batched, stats) = sweep.run_aggregate_batched(build, 4).unwrap();
        assert_eq!(batched, scalar);
        assert_eq!(stats.runs(), scalar_stats.runs());
        assert_eq!(stats.suites_compiled, 0, "stripes never recompile");
    }

    #[test]
    fn template_less_cells_fall_back_to_the_scalar_path() {
        // RampCell with template stripped: still correct, just scalar.
        let family = RampFamily::new();
        let sweep = Sweep::new(vec![2.0, 1.0, 0.5]).with_base_seed(5);
        let strip = |slope: &f64, _seed: u64| {
            let mut cell = family.substrate(*slope);
            cell.template = None;
            cell
        };
        let batched = sweep.run_batched(strip, 4).unwrap();
        let scalar = sweep.run_serial(strip).unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn width_one_and_empty_sweeps_are_fine() {
        let family = RampFamily::new();
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let sweep = Sweep::new(vec![1.0, 2.0]).with_base_seed(9);
        assert_eq!(
            sweep.run_batched(build, 1).unwrap(),
            sweep.run_serial(build).unwrap()
        );
        let empty = Sweep::new(Vec::<f64>::new());
        assert_eq!(empty.run_batched(build, 8).unwrap().runs.len(), 0);
        let (agg, stats) = empty.run_aggregate_batched(build, 8).unwrap();
        assert_eq!(agg, SweepAggregate::default());
        assert_eq!(stats.runs(), 0);
    }

    /// A family whose goal references a signal the simulator never sets
    /// — the batch pass errors on the first tick and the stripe must
    /// rerun scalar, reporting the earliest cell's error exactly like
    /// the scalar sweep does.
    #[test]
    fn stripe_monitoring_errors_match_the_scalar_path() {
        let mut b = SignalTable::builder();
        let x = b.real("x");
        b.real("ghost");
        let table = b.finish();
        let mut suite = MonitorSuite::new(table.clone());
        suite
            .add_goal("G", Location::new("Ramp"), parse("ghost < 1.0").unwrap())
            .unwrap();
        let broken = RampFamily {
            table,
            x,
            template: Arc::new(suite.template()),
        };
        let sweep = Sweep::new(vec![1.0, 2.0, 3.0]).with_base_seed(1);
        let build = |slope: &f64, _seed: u64| broken.substrate(*slope);
        let batched = sweep.run_batched(build, 4);
        let scalar = sweep.run_serial(build);
        match (batched, scalar) {
            (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}")),
            (a, b) => panic!("both paths must fail: {a:?} vs {b:?}"),
        }
    }

    /// The fault-isolation contract at stripe granularity: one cell
    /// panicking mid-stripe is quarantined with full provenance while
    /// every stripe-mate's report stays bit-identical to an all-healthy
    /// run — at every width from degenerate to wider-than-the-grid.
    #[test]
    fn panicking_lane_is_quarantined_and_stripe_mates_stay_bit_identical() {
        use crate::sweep::FailureReason;

        let family = RampFamily::new();
        let slopes = mixed_slopes();
        // Cell 4 (slope 3.0) reaches x = 21 at tick 7 — well before any
        // lane terminates, so the panic fires mid-stripe.
        let victim = 4usize;
        let base = 21u64;
        let healthy = |slope: &f64, _seed: u64| family.substrate(*slope);
        let poisoned = |slope: &f64, _seed: u64| {
            if *slope == slopes[victim] {
                family.panicking_substrate(*slope, 21.0)
            } else {
                family.substrate(*slope)
            }
        };
        let sweep = Sweep::new(slopes.clone()).with_base_seed(base);
        let baseline = sweep.run_serial(healthy).unwrap();
        let mut expected = baseline.runs.clone();
        expected.remove(victim);
        let guarded = sweep.clone().with_quarantine(Quarantine::default());

        for width in [1, 2, 3, 5, 8, 16, 33, 64] {
            let report = guarded.run_batched(poisoned, width).unwrap();
            assert_eq!(
                report.runs, expected,
                "width {width}: stripe-mates diverged"
            );
            assert_eq!(report.quarantined.len(), 1, "width {width}");
            let failure = &report.quarantined[0];
            assert_eq!(failure.cell, victim);
            assert_eq!(failure.seed, cell_seed(base, victim));
            assert_eq!(failure.retries, 0);
            assert!(
                matches!(&failure.reason, FailureReason::Panic { message }
                    if message.contains("melted down")),
                "width {width}: {:?}",
                failure.reason
            );
            // The streaming-aggregate form of the same width agrees.
            let (agg, _) = guarded.run_aggregate_batched(poisoned, width).unwrap();
            assert_eq!(agg, report.aggregate(), "width {width} aggregate diverged");
        }
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("esafe-batch-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// The checkpoint/resume contract: interrupt a checkpointed sweep
    /// anywhere — a clean record boundary or a torn mid-record tail —
    /// reopen the journal, resume, and the final aggregate is
    /// bit-identical to the uninterrupted run, with only the lost cells
    /// re-running.
    #[test]
    fn checkpointed_sweep_resumes_bit_identically() {
        use crate::journal::{decode_record, DecodeOutcome, HEADER_BYTES};

        let family = RampFamily::new();
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let slopes = mixed_slopes();
        let cells = slopes.len();
        let sweep = Sweep::new(slopes).with_base_seed(17);
        let (reference, _) = sweep.run_aggregate_batched(build, 4).unwrap();

        // An uninterrupted checkpointed run matches the plain aggregate.
        let full_path = temp_journal("full");
        let mut journal =
            SweepJournal::create(&full_path, 17, cells, ExperimentConfig::default()).unwrap();
        let (agg, stats) = sweep
            .run_aggregate_batched_checkpointed(build, 4, &mut journal)
            .unwrap();
        assert_eq!(agg, reference);
        assert_eq!(stats.runs(), cells);
        assert_eq!(journal.completed_cells(), cells);
        drop(journal);

        // Simulate a crash: keep the header, the first three records,
        // and a torn fragment of the fourth.
        let bytes = std::fs::read(&full_path).unwrap();
        let mut boundary = HEADER_BYTES;
        for _ in 0..3 {
            match decode_record(&bytes[boundary..]) {
                DecodeOutcome::Record(_, consumed) => boundary += consumed,
                other => panic!("journal must hold intact records: {other:?}"),
            }
        }
        for (name, cut) in [("boundary", boundary), ("torn", boundary + 9)] {
            let cut_path = temp_journal(name);
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            let mut resumed = SweepJournal::open(&cut_path).unwrap();
            assert_eq!(resumed.recovered_records(), 3, "{name}");
            let (resumed_agg, resumed_stats) = sweep
                .run_aggregate_batched_checkpointed(build, 4, &mut resumed)
                .unwrap();
            assert_eq!(
                resumed_agg, reference,
                "{name}: resume must be bit-identical"
            );
            assert_eq!(
                resumed_stats.runs(),
                cells - 3,
                "{name}: only the lost cells re-run"
            );
            drop(resumed);

            // Resuming the now-complete journal runs nothing and still
            // reproduces the aggregate, purely from records.
            let mut done = SweepJournal::open(&cut_path).unwrap();
            let (replayed, replay_stats) = sweep
                .run_aggregate_batched_checkpointed(build, 4, &mut done)
                .unwrap();
            assert_eq!(replayed, reference, "{name}");
            assert_eq!(replay_stats.runs(), 0, "{name}");
            std::fs::remove_file(&cut_path).unwrap();
        }
        std::fs::remove_file(&full_path).unwrap();
    }

    /// Quarantined cells are durable too: a resume replays the failure
    /// provenance from the journal instead of re-running the cell.
    #[test]
    fn checkpointed_resume_replays_quarantined_cells() {
        let family = RampFamily::new();
        let slopes = vec![4.0, 0.2, 1.0, 0.4];
        let poisoned = |slope: &f64, _seed: u64| {
            if *slope == 1.0 {
                family.panicking_substrate(*slope, 15.0)
            } else {
                family.substrate(*slope)
            }
        };
        let sweep = Sweep::new(slopes.clone()).with_base_seed(5);
        let path = temp_journal("quarantined");
        let mut journal =
            SweepJournal::create(&path, 5, slopes.len(), ExperimentConfig::default()).unwrap();
        // Checkpointed runs quarantine by default — no explicit policy.
        let (agg, _) = sweep
            .run_aggregate_batched_checkpointed(poisoned, 2, &mut journal)
            .unwrap();
        assert_eq!(agg.quarantined.len(), 1);
        assert_eq!(agg.quarantined[0].cell, 2);
        assert_eq!(agg.runs, 3);
        drop(journal);

        let mut reopened = SweepJournal::open(&path).unwrap();
        let (replayed, stats) = sweep
            .run_aggregate_batched_checkpointed(poisoned, 2, &mut reopened)
            .unwrap();
        assert_eq!(replayed, agg, "provenance must survive the journal");
        assert_eq!(stats.runs(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_rejects_a_journal_for_a_different_sweep() {
        let family = RampFamily::new();
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let sweep = Sweep::new(vec![1.0, 2.0]).with_base_seed(3);
        let path = temp_journal("mismatch");
        // Wrong seed and wrong cell count.
        let mut journal = SweepJournal::create(&path, 99, 7, ExperimentConfig::default()).unwrap();
        let err = sweep
            .run_aggregate_batched_checkpointed(build, 4, &mut journal)
            .unwrap_err();
        assert!(
            format!("{err}").contains("different sweep"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
