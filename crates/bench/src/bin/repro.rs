//! `repro` — regenerates every table and figure of the thesis's
//! evaluation from the Rust reproduction.
//!
//! ```text
//! repro --table 5.1|5.2|5.3|4.1|4.5|b1..b13|d1..d10
//! repro --figure 5.1..5.15
//! repro --ablation [scenario]
//! repro --grid                 # full scenario × defect sweep, in parallel
//! repro --grid --json <path>   # …plus a machine-readable timing summary
//! repro --mega-grid            # ≥10⁴-cell scenario-parameter sweep (batched)
//! repro --mega-grid --json <path>  # …plus the schema-v6 summary
//! repro --mega-grid --subset <n>   # only the grid's first n cells
//! repro --mega-grid --width <w>    # force the stripe width (skip calibration)
//! repro --mega-grid --checkpoint <path> [--resume]  # durable journal; resume
//!                                  # an interrupted sweep bit-identically
//! repro --serve-bench          # 1000-stream fleet through the monitor service
//! repro --serve-bench --json <path>  # …plus the serve-bench-v2 summary
//! repro --serve-bench --faulty <pct> [--json <path>]  # hostile fleet: pct% faulty streams
//! repro --grid --record-corpus <dir> [--subset <n>]       # archive the sweep's
//!                                  # traces into an on-disk columnar corpus
//! repro --mega-grid --record-corpus <dir> [--subset <n>]  # same, mega cells
//! repro --replay-corpus <dir> [--suite <name>] [--width <w>]  # re-monitor the
//!                                  # archive with a registered suite, zero simulation
//! repro --grid --suite <name> [--subset <n>]  # live reference for the same suite
//! repro --all                  # everything, in thesis order
//! repro --json <scenario>      # dump a scenario's figure series as JSON
//! ```
//!
//! Flags are order-insensitive: `repro --json out.json --mega-grid`
//! and `repro --mega-grid --json out.json` are the same invocation.

use esafe_bench::{
    ablation, batch_calibration, corpus_summary_json, figure_map, full_grid_timed,
    full_mega_checkpointed, grid_summary_json, mega_cells_subset, mega_summary_json,
    mega_timed_over, observe_calibration, record_corpus_timed, replay_corpus_timed, serve_bench,
    serve_summary_json, suite_reference_timed, thesis_run, MegaCheckpointInfo,
};
use esafe_core::render;
use esafe_elevator::ElevatorParams;
use esafe_scenarios::tables;
use esafe_vehicle::config::VehicleParams;

const USAGE: &str = "usage: repro --table <id> | --figure <id> | --ablation [n] \
     | --grid [--suite <name> | --record-corpus <dir>] [--subset <n>] [--json <path>] \
     | --mega-grid [--subset <n>] [--width <w>] [--checkpoint <path> [--resume]] \
       [--record-corpus <dir>] [--json <path>] \
     | --replay-corpus <dir> [--suite <name>] [--width <w>] [--json <path>] \
     | --serve-bench [--faulty <pct>] [--json <path>] \
     | --json <n> | --all";

/// Which evaluation artifact one invocation regenerates.
enum Command {
    Table(String),
    Figure(String),
    Ablation(u8),
    Grid,
    MegaGrid,
    ReplayCorpus(String),
    ServeBench,
    All,
}

/// The parsed command line: one command plus order-insensitive
/// modifier flags (each validated against the command at dispatch).
struct Cli {
    command: Option<Command>,
    json: Option<String>,
    faulty: Option<u32>,
    checkpoint: Option<String>,
    resume: bool,
    subset: Option<usize>,
    width: Option<usize>,
    record_corpus: Option<String>,
    suite: Option<String>,
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Parses flags in any order. Every flag may appear at most once; a
/// second command flag is an error.
fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        command: None,
        json: None,
        faulty: None,
        checkpoint: None,
        resume: false,
        subset: None,
        width: None,
        record_corpus: None,
        suite: None,
    };
    let set_command = |cli: &mut Cli, command: Command, flag: &str| {
        if cli.command.is_some() {
            usage_error(&format!("`{flag}` conflicts with an earlier command flag"));
        }
        cli.command = Some(command);
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        // A flag's value is the next argument, which must exist and
        // must not itself look like a flag.
        let value = |i: usize| -> &str {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => v,
                _ => usage_error(&format!("`{flag}` wants a value")),
            }
        };
        let parsed = |i: usize| -> usize {
            value(i)
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("`{flag}` wants a number")))
        };
        match flag {
            "--table" => {
                set_command(&mut cli, Command::Table(value(i).to_owned()), flag);
                i += 2;
            }
            "--figure" => {
                set_command(&mut cli, Command::Figure(value(i).to_owned()), flag);
                i += 2;
            }
            "--ablation" => {
                // The scenario number is optional (default 3).
                let scenario = match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        i += 1;
                        v.parse().unwrap_or(3)
                    }
                    _ => 3,
                };
                set_command(&mut cli, Command::Ablation(scenario), flag);
                i += 1;
            }
            "--grid" => {
                set_command(&mut cli, Command::Grid, flag);
                i += 1;
            }
            "--mega-grid" => {
                set_command(&mut cli, Command::MegaGrid, flag);
                i += 1;
            }
            "--replay-corpus" => {
                set_command(&mut cli, Command::ReplayCorpus(value(i).to_owned()), flag);
                i += 2;
            }
            "--serve-bench" => {
                set_command(&mut cli, Command::ServeBench, flag);
                i += 1;
            }
            "--all" => {
                set_command(&mut cli, Command::All, flag);
                i += 1;
            }
            "--json" => {
                cli.json = Some(value(i).to_owned());
                i += 2;
            }
            "--faulty" => {
                cli.faulty = Some(parse_pct(value(i)));
                i += 2;
            }
            "--checkpoint" => {
                cli.checkpoint = Some(value(i).to_owned());
                i += 2;
            }
            "--resume" => {
                cli.resume = true;
                i += 1;
            }
            "--subset" => {
                cli.subset = Some(parsed(i));
                i += 2;
            }
            "--record-corpus" => {
                cli.record_corpus = Some(value(i).to_owned());
                i += 2;
            }
            "--suite" => {
                cli.suite = Some(value(i).to_owned());
                i += 2;
            }
            "--width" => {
                let w = parsed(i);
                if w == 0 {
                    usage_error("`--width` wants a stripe width >= 1");
                }
                cli.width = Some(w);
                i += 2;
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    cli
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_error("no command given");
    }
    let cli = parse_cli(&args);
    // Modifier flags only make sense under their command.
    if cli.faulty.is_some() && !matches!(cli.command, Some(Command::ServeBench)) {
        usage_error("`--faulty` only applies to --serve-bench");
    }
    let mega = matches!(cli.command, Some(Command::MegaGrid));
    let grid = matches!(cli.command, Some(Command::Grid));
    let replay = matches!(cli.command, Some(Command::ReplayCorpus(_)));
    if cli.checkpoint.is_some() && !mega {
        usage_error("`--checkpoint` only applies to --mega-grid");
    }
    if cli.subset.is_some() && !(mega || grid) {
        usage_error("`--subset` only applies to --grid and --mega-grid");
    }
    if cli.width.is_some() && !(mega || replay) {
        usage_error("`--width` only applies to --mega-grid and --replay-corpus");
    }
    if cli.resume && cli.checkpoint.is_none() {
        usage_error("`--resume` wants a `--checkpoint <path>` to resume from");
    }
    if cli.record_corpus.is_some() && !(mega || grid) {
        usage_error("`--record-corpus` only applies to --grid and --mega-grid");
    }
    if cli.record_corpus.is_some() && (cli.suite.is_some() || cli.checkpoint.is_some()) {
        usage_error("`--record-corpus` conflicts with `--suite` and `--checkpoint`");
    }
    if cli.suite.is_some() && !(grid || replay) {
        usage_error("`--suite` only applies to --grid and --replay-corpus");
    }
    match &cli.command {
        Some(Command::Table(id)) => print_table(id),
        Some(Command::Figure(id)) => print_figure(id),
        Some(Command::Ablation(scenario)) => print_ablation(*scenario),
        Some(Command::Grid) => match (&cli.record_corpus, &cli.suite) {
            (Some(dir), _) => print_record_corpus(dir, false, cli.subset, cli.json.as_deref()),
            (None, Some(suite)) => print_suite_reference(suite, cli.subset, cli.json.as_deref()),
            (None, None) => {
                if cli.subset.is_some() {
                    usage_error(
                        "`--grid --subset` wants `--suite <name>` or `--record-corpus <dir>` \
                         (the plain grid always runs all 140 cells)",
                    );
                }
                print_grid(cli.json.as_deref());
            }
        },
        Some(Command::MegaGrid) => match &cli.record_corpus {
            Some(dir) => print_record_corpus(dir, true, cli.subset, cli.json.as_deref()),
            None => print_mega_grid(&cli),
        },
        Some(Command::ReplayCorpus(dir)) => print_replay_corpus(
            dir,
            cli.suite.as_deref().unwrap_or("thesis"),
            cli.width.unwrap_or(esafe_harness::DEFAULT_REPLAY_WIDTH),
            cli.json.as_deref(),
        ),
        Some(Command::ServeBench) => {
            print_serve_bench(cli.json.as_deref(), cli.faulty.unwrap_or(0));
        }
        Some(Command::All) => print_all(),
        None => match &cli.json {
            // Bare `--json <n>` dumps a scenario's figure series.
            Some(raw) => {
                let n: u8 = raw
                    .parse()
                    .unwrap_or_else(|_| usage_error("bare `--json` wants a scenario number"));
                let report = thesis_run(n);
                println!("{}", tables::series_json(&report).expect("serializable"));
            }
            None => usage_error("no command given"),
        },
    }
}

/// Runs the ≥10⁴-cell scenario-parameter mega grid (or its `--subset`
/// prefix): calibrate the stripe width on live mega-cell stripes (sim +
/// observe) unless `--width` forces one, stream the space through the
/// batched striped engine with O(workers × width) memory — durably
/// journaled under `--checkpoint`, resuming bit-identically under
/// `--resume` — and (with `--json`) write the schema-v6
/// `BENCH_megagrid.json` summary.
fn print_mega_grid(cli: &Cli) {
    let cells = mega_cells_subset(cli.subset);
    let cell_count = cells.len();
    let (width, calibration) = match cli.width {
        Some(w) => {
            println!("stripe width forced to {w} (--width given, calibration skipped)");
            (w, None)
        }
        None => {
            let calibration = batch_calibration();
            println!(
                "batch-width calibration over {} live mega-cell ticks (sim + 49-monitor fused observe):",
                calibration.ticks
            );
            println!(
                "  scalar    {:>8.1} ns/tick/run",
                calibration.scalar_ns_per_tick_per_run
            );
            for point in &calibration.widths {
                println!(
                    "  width {:>3} {:>8.1} ns/tick/run  (sim {:.1} + observe {:.1})",
                    point.width,
                    point.ns_per_tick_per_run,
                    point.sim_ns_per_tick_per_run,
                    point.observe_ns_per_tick_per_run
                );
            }
            let width = calibration.best_width();
            println!("selected stripe width: {width}");
            (width, Some(calibration))
        }
    };

    let started = std::time::Instant::now();
    let (aggregate, stats, checkpoint): (_, _, Option<MegaCheckpointInfo>) = match &cli.checkpoint {
        Some(path) => {
            let (aggregate, stats, _, info) =
                full_mega_checkpointed(cells, width, path, cli.resume).unwrap_or_else(|e| {
                    eprintln!("checkpointed mega grid failed: {e}");
                    std::process::exit(1);
                });
            (aggregate, stats, Some(info))
        }
        None => {
            let (aggregate, stats) = mega_timed_over(cells, width);
            (aggregate, stats, None)
        }
    };
    let wall = started.elapsed();
    println!(
        "Mega grid: {} cells swept, {} runs ({} early terminations, {} collisions)",
        cell_count, aggregate.runs, aggregate.terminated_early, aggregate.terminal_events
    );
    println!(
        "Classification totals: {} hits, {} false negatives, {} false positives",
        aggregate.hits, aggregate.false_negatives, aggregate.false_positives
    );
    if let Some(info) = &checkpoint {
        match &info.resumed_from {
            Some(journal) => println!(
                "checkpoint: resumed {} completed cells from {journal}; {} records journaled",
                info.resumed_cells, info.journal_records
            ),
            None => println!("checkpoint: {} records journaled", info.journal_records),
        }
    }
    if !aggregate.quarantined.is_empty() || aggregate.retries > 0 {
        println!(
            "fault isolation: {} cells quarantined, {} retries",
            aggregate.quarantined.len(),
            aggregate.retries
        );
        for failure in &aggregate.quarantined {
            println!(
                "  cell {} (seed {:#018x}, {} retries): {:?}",
                failure.cell, failure.seed, failure.retries, failure.reason
            );
        }
    }
    println!(
        "wall clock: {:.3} s ({:.2} ms/run); worker time: {:.3} s setup + {:.3} s ticking",
        wall.as_secs_f64(),
        wall.as_secs_f64() * 1000.0 / aggregate.runs.max(1) as f64,
        stats.setup.as_secs_f64(),
        stats.ticking.as_secs_f64()
    );
    println!(
        "suites: {} compiled, {} instantiated, {} reused",
        stats.suites_compiled, stats.suites_instantiated, stats.suites_reused
    );
    if let Some(path) = &cli.json {
        let json = mega_summary_json(
            &aggregate,
            wall,
            &stats,
            calibration.as_ref(),
            cell_count,
            width,
            checkpoint.as_ref(),
        )
        .expect("summary serializes");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
        println!("summary written to {path}");
    }
}

/// Records a grid or mega-grid cell prefix into a fresh on-disk trace
/// corpus: runs execute on every core with their observed frames
/// streamed into column encoders, each is archived in cell order as
/// soon as every earlier cell is, and the commit manifest is published
/// atomically at the end. With `--json`, writes the schema-v7
/// `corpus-record` summary.
fn print_record_corpus(dir: &str, mega: bool, subset: Option<usize>, json_path: Option<&str>) {
    let workload = if mega { "--mega-grid" } else { "--grid" };
    match subset {
        Some(n) => println!("recording the first {n} {workload} cells into corpus {dir}"),
        None => println!("recording the full {workload} sweep into corpus {dir}"),
    }
    let summary = record_corpus_timed(dir, mega, subset).unwrap_or_else(|e| {
        eprintln!("corpus recording failed: {e}");
        std::process::exit(1);
    });
    println!(
        "archived {} runs / {} ticks in {:.3} s: {} bytes ({:.2} bytes/tick), \
         {} dictionary symbols, {} signal tables",
        summary.corpus_runs,
        summary.corpus_ticks,
        summary.wall_clock_ms / 1000.0,
        summary.corpus_bytes,
        summary.bytes_per_tick,
        summary.dict_entries,
        summary.tables
    );
    println!(
        "recording aggregate: {} runs, {} hits, {} false negatives, {} false positives",
        summary.aggregate.runs,
        summary.aggregate.hits,
        summary.aggregate.false_negatives,
        summary.aggregate.false_positives
    );
    if let Some(path) = json_path {
        let json = corpus_summary_json(&summary).expect("summary serializes");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
        println!("summary written to {path}");
    }
}

/// Re-monitors an archived corpus with a registered goal suite —
/// including one the corpus was never recorded with — at batched-
/// observe speed with zero simulation. With `--json`, writes the
/// schema-v7 `corpus-replay` summary.
fn print_replay_corpus(dir: &str, suite: &str, width: usize, json_path: Option<&str>) {
    println!("replaying corpus {dir} with suite `{suite}` at stripe width {width}");
    let summary = replay_corpus_timed(dir, suite, width).unwrap_or_else(|e| {
        eprintln!("corpus replay failed: {e}");
        std::process::exit(1);
    });
    if summary.recovered {
        println!(
            "corpus had no commit manifest (torn recording): recovered {} complete runs",
            summary.corpus_runs
        );
    }
    println!(
        "re-monitored {} runs / {} ticks in {:.3} s \
         (open {:.1} ms + replay engine {:.1} ns/tick/run)",
        summary.corpus_runs,
        summary.corpus_ticks,
        summary.wall_clock_ms / 1000.0,
        summary.open_ms,
        summary.replay_ns_per_tick_per_run
    );
    println!(
        "replay aggregate: {} runs, {} hits, {} false negatives, {} false positives, \
         {} early terminations, {} collisions",
        summary.aggregate.runs,
        summary.aggregate.hits,
        summary.aggregate.false_negatives,
        summary.aggregate.false_positives,
        summary.aggregate.terminated_early,
        summary.aggregate.terminal_events
    );
    println!("{:<24} total violation intervals", "monitor");
    for (id, count) in &summary.aggregate.violations_by_monitor {
        println!("{id:<24} {count}");
    }
    if let Some(path) = json_path {
        let json = corpus_summary_json(&summary).expect("summary serializes");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
        println!("summary written to {path}");
    }
}

/// Runs a grid cell prefix live and scores the recorded runs with a
/// registered suite — the reference a `--replay-corpus --suite` run
/// over the same cells is pinned against. With `--json`, writes the
/// schema-v7 `suite-reference` summary.
fn print_suite_reference(suite: &str, subset: Option<usize>, json_path: Option<&str>) {
    match subset {
        Some(n) => println!("live reference: first {n} grid cells scored with suite `{suite}`"),
        None => println!("live reference: full grid scored with suite `{suite}`"),
    }
    let summary = suite_reference_timed(subset, suite).unwrap_or_else(|e| {
        eprintln!("live suite reference failed: {e}");
        std::process::exit(1);
    });
    println!(
        "scored {} cells in {:.3} s",
        summary.cells,
        summary.wall_clock_ms / 1000.0
    );
    println!(
        "reference aggregate: {} runs, {} hits, {} false negatives, {} false positives",
        summary.aggregate.runs,
        summary.aggregate.hits,
        summary.aggregate.false_negatives,
        summary.aggregate.false_positives
    );
    if let Some(path) = json_path {
        let json = corpus_summary_json(&summary).expect("summary serializes");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
        println!("summary written to {path}");
    }
}

/// Parses the `--faulty` percentage argument.
fn parse_pct(raw: &str) -> u32 {
    let pct: u32 = raw.parse().unwrap_or_else(|_| {
        eprintln!("--faulty wants a percentage 0..=100, got `{raw}`");
        std::process::exit(2);
    });
    if pct > 100 {
        eprintln!("--faulty wants a percentage 0..=100, got {pct}");
        std::process::exit(2);
    }
    pct
}

/// Runs the fleet-service benchmark: 1000 concurrent replayed elevator
/// streams held live on one `esafe-serve` shard worker (2000 streams
/// total — every close is immediately replaced), and (with `json_path`)
/// writes the serve-bench-v2 `BENCH_serve.json` summary. With
/// `faulty_pct > 0`, that share of the fleet misbehaves under seeded
/// fault plans (stalls, disconnects, corrupt frames, shuffled ticks)
/// and the degradation counters show how the service coped.
fn print_serve_bench(json_path: Option<&str>, faulty_pct: u32) {
    const CONCURRENT: usize = 1000;
    const TOTAL: usize = 2000;
    const TICKS_PER_STREAM: u64 = 400;
    println!(
        "serve bench: {CONCURRENT} concurrent streams, {TOTAL} total, \
         {TICKS_PER_STREAM} ticks each, one shard worker, {faulty_pct}% faulty"
    );
    let summary = serve_bench(CONCURRENT, TOTAL, TICKS_PER_STREAM, faulty_pct);
    println!(
        "monitored {} stream-ticks x {} monitors in {:.3} s",
        summary.stream_ticks, summary.monitors, summary.wall_clock_s
    );
    println!(
        "throughput: {:.0} stream-ticks/s ({:.1} ns/stream-tick); \
         {} violation intervals reported",
        summary.stream_ticks_per_s, summary.ns_per_stream_tick, summary.violation_intervals
    );
    if faulty_pct > 0 {
        println!(
            "degradation: {} faulty streams; {} evicted ({} stalled, {} corrupt); \
             {} shard restarts; {} reports dropped",
            summary.faulty_streams,
            summary.evicted_streams,
            summary.stalled_evictions,
            summary.corrupt_evictions,
            summary.shard_restarts,
            summary.reports_dropped
        );
    }
    if let Some(path) = json_path {
        let json = serve_summary_json(&summary).expect("summary serializes");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
        println!("summary written to {path}");
    }
}

/// Runs the full 10-scenario × 14-configuration grid in parallel —
/// streaming each worker's reports into a partial aggregate, so memory
/// stays O(workers) however large the grid — and prints the
/// order-independent aggregate. With `json_path`, also writes the
/// machine-readable timing/result summary so future changes have a
/// benchmark trajectory to compare against.
fn print_grid(json_path: Option<&str>) {
    let started = std::time::Instant::now();
    let (aggregate, stats) = full_grid_timed();
    let wall = started.elapsed();
    println!(
        "Full evaluation grid: {} runs ({} early terminations, {} collisions)",
        aggregate.runs, aggregate.terminated_early, aggregate.terminal_events
    );
    println!(
        "Classification totals: {} hits, {} false negatives, {} false positives",
        aggregate.hits, aggregate.false_negatives, aggregate.false_positives
    );
    println!("{:<10} total violation intervals", "monitor");
    for (id, count) in &aggregate.violations_by_monitor {
        println!("{id:<10} {count}");
    }
    println!("wall clock: {:.3} s", wall.as_secs_f64());
    println!(
        "worker time: {:.3} s setup + {:.3} s ticking; suites: {} compiled, \
         {} instantiated, {} reused",
        stats.setup.as_secs_f64(),
        stats.ticking.as_secs_f64(),
        stats.suites_compiled,
        stats.suites_instantiated,
        stats.suites_reused
    );
    let calibration = observe_calibration();
    println!(
        "fused observe: {:.0} ns/tick over {} monitors; CSE: {} -> {} nodes \
         ({:.2}x shared)",
        calibration.observe_ns_per_tick,
        calibration.monitors,
        calibration.cse_source_nodes,
        calibration.cse_unique_nodes,
        calibration.cse_source_nodes as f64 / calibration.cse_unique_nodes as f64
    );
    if let Some(path) = json_path {
        let json =
            grid_summary_json(&aggregate, wall, &stats, &calibration).expect("summary serializes");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
        println!("summary written to {path}");
    }
}

fn print_all() {
    for t in ["5.1", "5.2", "5.3", "4.1", "4.6", "4.9", "4.5"] {
        print_table(t);
        println!();
    }
    print_figure("5.1");
    for n in 2..=15 {
        print_figure(&format!("5.{n}"));
        println!();
    }
    for n in 1..=10 {
        print_table(&format!("d{n}"));
        println!();
    }
    print_ablation(3);
}

fn print_table(id: &str) {
    let vparams = VehicleParams::default();
    let eparams = ElevatorParams::default();
    match id {
        // Tables 5.1/5.2: the nine vehicle safety goals as KAOS cards.
        "5.1" | "5.2" => {
            let specs = esafe_vehicle::goals::specs(&vparams);
            let range: &[usize] = if id == "5.1" {
                &[0, 1, 2, 3]
            } else {
                &[4, 5, 6, 7, 8]
            };
            println!("Safety goals for a semi-autonomous vehicle (Table {id})");
            for &i in range {
                println!("{}. {}", i + 1, render::goal_card(&specs[i].goal));
            }
        }
        "5.3" => print!("{}", tables::monitoring_matrix()),
        // Chapter 4 elevator ICPA tables.
        "4.1" | "4.2" | "4.3" | "4.4" => {
            println!("Elevator ICPA for Maintain[DoorClosedOrElevatorStopped] (Tables 4.1-4.4)");
            print!(
                "{}",
                render::icpa_table(&esafe_elevator::icpa::door_or_stopped_icpa(&eparams))
            );
        }
        "4.6" => print!(
            "{}",
            render::icpa_table(&esafe_elevator::icpa::overweight_icpa(&eparams))
        ),
        "4.9" => print!(
            "{}",
            render::icpa_table(&esafe_elevator::icpa::hoistway_icpa(&eparams))
        ),
        // Table 4.5 and Appendix B: realizability patterns.
        "4.5" => {
            let tables_b = esafe_core::catalog::appendix_b();
            println!(
                "{}",
                render::catalog_markdown("Table 4.5 / B.1", &tables_b[0].1)
            );
        }
        b if b.starts_with('b') => {
            let idx: usize = b[1..].parse().unwrap_or(0);
            let tables_b = esafe_core::catalog::appendix_b();
            match tables_b.get(idx.wrapping_sub(1)) {
                Some((name, rows)) => {
                    println!("{}", render::catalog_markdown(name, rows));
                }
                None => eprintln!("no appendix table {b} (b1..b13)"),
            }
        }
        // Tables D.1–D.11: per-scenario violations.
        d if d.starts_with('d') => {
            let n: u8 = d[1..].parse().unwrap_or(0);
            if (1..=10).contains(&n) {
                let report = thesis_run(n);
                print!("{}", tables::violation_table(&report));
            } else {
                eprintln!("no violation table {d} (d1..d10)");
            }
        }
        other => eprintln!("unknown table id `{other}`"),
    }
}

fn print_figure(id: &str) {
    if id == "5.1" {
        // The architecture diagram, rendered as a wiring list.
        println!("Figure 5.1: semi-autonomous automotive system (wiring)");
        let graph = esafe_vehicle::icpa_model::control_graph();
        for agent in graph.agents() {
            let controls: Vec<&str> = agent.controlled_vars().iter().map(String::as_str).collect();
            let monitors: Vec<&str> = agent.monitored_vars().iter().map(String::as_str).collect();
            println!(
                "  {:<20} writes [{}] reads [{}]",
                agent.name(),
                controls.join(", "),
                monitors.join(", ")
            );
        }
        return;
    }
    let Some((scenario, signals)) = figure_map(id) else {
        eprintln!("unknown figure id `{id}` (5.1..5.15)");
        return;
    };
    println!("Figure {id} (from scenario {scenario}):");
    let report = thesis_run(scenario);
    for signal in signals {
        print!("{}", tables::ascii_figure(&report, signal, 72));
    }
}

fn print_ablation(scenario: u8) {
    println!("Defect ablation for scenario {scenario} (parallel sweep):");
    println!("{:<32} violated monitors", "configuration");
    for (label, ids) in ablation(scenario) {
        let list = if ids.is_empty() {
            "(none)".to_owned()
        } else {
            ids.join(", ")
        };
        println!("{label:<32} {list}");
    }
}
