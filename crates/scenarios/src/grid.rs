//! Scenario × defect sweep grids: the batch-parallel evaluation axis.
//!
//! A [`GridCell`] names one (scenario, defect configuration) pair; the
//! grid builders produce cell vectors for [`esafe_harness::Sweep`] to
//! fan across cores. Because every vehicle run is fully deterministic,
//! the parallel sweep is bit-identical to the serial one — which the
//! workspace's determinism tests pin.

use crate::catalog;
use crate::runner;
use esafe_harness::{
    ExperimentError, Sweep, SweepAggregate, SweepReport, SweepStats, DEFAULT_BATCH_WIDTH,
};
use esafe_vehicle::config::DefectSet;
use esafe_vehicle::substrate::{VehicleFamily, VehicleSubstrate};
use std::sync::Arc;

/// One cell of a scenario × defect grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Scenario number, 1–10.
    pub scenario: u8,
    /// The defect configuration's label (e.g. `"thesis (all)"`),
    /// shared by every cell of the configuration.
    pub config: Arc<str>,
    /// The defect configuration.
    pub defects: DefectSet,
}

/// The defect-ablation axis: the fixed system, the thesis's full defect
/// population, and every single-defect configuration.
pub fn ablation_configs() -> Vec<(String, DefectSet)> {
    let mut configs = vec![
        ("none".to_owned(), DefectSet::none()),
        ("thesis (all)".to_owned(), DefectSet::thesis()),
    ];
    configs.extend(
        DefectSet::singles()
            .into_iter()
            .map(|(name, set)| (name.to_owned(), set)),
    );
    configs
}

/// The cells of `scenarios` × `configs`, scenario-major.
pub fn cells(scenarios: &[u8], configs: &[(String, DefectSet)]) -> Vec<GridCell> {
    let configs: Vec<(Arc<str>, DefectSet)> = configs
        .iter()
        .map(|(label, defects)| (Arc::from(label.as_str()), *defects))
        .collect();
    scenarios
        .iter()
        .flat_map(|&scenario| {
            configs.iter().map(move |(config, defects)| GridCell {
                scenario,
                config: Arc::clone(config),
                defects: *defects,
            })
        })
        .collect()
}

/// The full evaluation grid: all ten scenarios × the full ablation axis
/// (140 monitored runs).
pub fn full_grid() -> Vec<GridCell> {
    let scenarios: Vec<u8> = (1..=10).collect();
    cells(&scenarios, &ablation_configs())
}

/// The substrate for one grid cell, self-compiling its monitors per run
/// (the per-run-compile reference path the template-backed sweep is
/// golden-tested against; vehicle runs are deterministic, so the
/// per-cell seed is unused).
pub fn build_cell(cell: &GridCell, _seed: u64) -> VehicleSubstrate {
    let scenario = catalog::scenario(cell.scenario);
    runner::substrate(&scenario, cell.defects)
        .with_label(format!("scenario-{}/{}", cell.scenario, cell.config))
}

/// The substrate for one grid cell within a shared [`VehicleFamily`]:
/// the cell reuses the family's signal table and compile-once suite
/// template.
pub fn build_cell_in(family: &VehicleFamily, cell: &GridCell, _seed: u64) -> VehicleSubstrate {
    let scenario = catalog::scenario(cell.scenario);
    runner::substrate_in(family, &scenario, cell.defects)
        .with_label(format!("scenario-{}/{}", cell.scenario, cell.config))
}

/// A sweep over the given cells under the thesis timing policy.
pub fn sweep(grid: Vec<GridCell>) -> Sweep<GridCell> {
    Sweep::new(grid).with_config(runner::thesis_config())
}

/// Runs a grid in parallel across cores on the **batched** engine:
/// suite compilation amortized through one [`VehicleFamily`] built for
/// the whole sweep, and same-template cells grouped into lock-step
/// stripes whose monitors evaluate through one slab-of-lanes pass per
/// tick ([`Sweep::run_batched`]). Reports are bit-identical to the
/// scalar paths — pinned against [`run_serial`] and the per-run-compile
/// reference by the workspace's golden sweep tests.
///
/// # Errors
///
/// Returns the first failing cell's [`ExperimentError`].
pub fn run_parallel(grid: Vec<GridCell>) -> Result<SweepReport, ExperimentError> {
    run_parallel_timed(grid).map(|(report, _)| report)
}

/// [`run_parallel`] plus the sweep's [`SweepStats`] (setup/tick split,
/// suite amortization counters) for the benchmark trajectory.
///
/// # Errors
///
/// Returns the first failing cell's [`ExperimentError`].
pub fn run_parallel_timed(
    grid: Vec<GridCell>,
) -> Result<(SweepReport, SweepStats), ExperimentError> {
    let family = VehicleFamily::default();
    sweep(grid).run_batched_timed(
        |cell, seed| build_cell_in(&family, cell, seed),
        DEFAULT_BATCH_WIDTH,
    )
}

/// Runs a grid serially (the reference the parallel path must match),
/// on the same family-amortized path as [`run_parallel`].
///
/// # Errors
///
/// Returns the first failing cell's [`ExperimentError`].
pub fn run_serial(grid: Vec<GridCell>) -> Result<SweepReport, ExperimentError> {
    let family = VehicleFamily::default();
    sweep(grid).run_serial(|cell, seed| build_cell_in(&family, cell, seed))
}

/// Runs a grid in parallel as a **batched streaming reduction**: cells
/// group into lock-step stripes (one batched monitor pass per tick for
/// a whole stripe), and every stripe's reports fold into a per-worker
/// partial aggregate the moment the stripe completes, so no report is
/// retained and memory stays O(workers × stripe width) no matter how
/// many cells the grid holds. The aggregate is identical to
/// `run_parallel(..).aggregate()` (pinned by the workspace's regression
/// tests); use the collect-all paths when per-run detail is needed.
/// This is the engine behind `repro --grid` and `repro --mega-grid`.
///
/// # Errors
///
/// Returns the first failing cell's [`ExperimentError`], by cell order.
pub fn run_parallel_aggregate(
    grid: Vec<GridCell>,
) -> Result<(SweepAggregate, SweepStats), ExperimentError> {
    let family = VehicleFamily::default();
    sweep(grid).run_aggregate_batched(
        |cell, seed| build_cell_in(&family, cell, seed),
        DEFAULT_BATCH_WIDTH,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_is_scenarios_times_configs() {
        let grid = full_grid();
        assert_eq!(grid.len(), 10 * 14);
        assert_eq!(grid[0].scenario, 1);
        assert_eq!(&*grid[0].config, "none");
        assert_eq!(grid[14].scenario, 2);
    }

    #[test]
    fn family_grid_matches_per_run_compile_grid() {
        // The template-amortized sweep (the production path) against the
        // reference sweep that recompiles every cell's suite.
        let grid = cells(
            &[1, 2],
            &[
                ("none".to_owned(), DefectSet::none()),
                ("thesis (all)".to_owned(), DefectSet::thesis()),
            ],
        );
        let (amortized, stats) = run_parallel_timed(grid.clone()).unwrap();
        let reference = sweep(grid).run(build_cell).unwrap();
        assert_eq!(amortized, reference, "template path must be bit-identical");
        assert_eq!(stats.suites_compiled, 0, "no cell may recompile the suite");
        assert_eq!(stats.suites_instantiated + stats.suites_reused, 4);
    }

    #[test]
    fn parallel_grid_matches_serial_grid() {
        // A small but representative slice: two early-terminating
        // scenarios × three configs, parallel vs serial.
        let configs = vec![
            ("none".to_owned(), DefectSet::none()),
            ("thesis (all)".to_owned(), DefectSet::thesis()),
            (
                "ca_intermittent_braking".to_owned(),
                DefectSet {
                    ca_intermittent_braking: true,
                    ..DefectSet::none()
                },
            ),
        ];
        let grid = cells(&[1, 2], &configs);
        let parallel = run_parallel(grid.clone()).unwrap();
        let serial = run_serial(grid).unwrap();
        assert_eq!(parallel, serial, "rayon path must be bit-identical");
        assert_eq!(parallel.aggregate(), serial.aggregate());
        assert_eq!(parallel.runs.len(), 6);
    }
}
