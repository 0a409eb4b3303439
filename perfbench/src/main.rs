//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mega-sweep|grid-archive|serve-fleet|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload runs in this process: set-up (repeated, median
//! reported), the timed window, then the output oracles. Human-readable
//! lines come first; the last line of standard output is the JSON
//! result. `--trace 0` reports the end-to-end metrics of the untraced
//! run, `--trace 1` the per-layer metrics of the traced run. `--workload
//! all` runs every workload in its own child process and prints every
//! metric. The exit code is non-zero when an output oracle fails;
//! failed operations are counted in the result line.

use esafe_perfbench::report::Outcome;
use esafe_perfbench::stats::{median, peak_rss_mib};
use esafe_perfbench::trace::Tracer;
use esafe_perfbench::{archive, fleet, mega};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["mega-sweep", "grid-archive", "serve-fleet"];
/// Set-up repeats at least this often, and until it has run
/// [`SETUP_REPS_MAX`] times or for [`SETUP_BUDGET_S`]; `setup_s` is the
/// median.
const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 21;
const SETUP_BUDGET_S: f64 = 0.5;
/// Where repetitions write their corpora (removed at exit).
const WORK_DIR: &str = ".perfbench-work";
/// Where traced runs write their spans.
const SPAN_DIR: &str = ".perfbench-out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let work = Path::new(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let mut out = Outcome::new();
    out.note(format!(
        "workload {} seed {} seconds {} trace {} (held-out confirmation seed: {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        esafe_perfbench::HELD_OUT_SEED
    ));
    let tracer = run_workload(&args, &work, &mut out, process_start);
    let _ = std::fs::remove_dir_all(&work);
    if let Some(tracer) = tracer {
        if let Err(e) = write_spans(&args, &tracer, &mut out) {
            out.note(format!("spans not written: {e}"));
        }
    }
    if args.trace {
        out.idle_layers();
        out.layer_lines();
    } else {
        // Workloads read it when their timed window ends, before the
        // oracles run; this covers a run that failed before that.
        out.metrics
            .entry("peak_rss_mb")
            .or_insert_with(peak_rss_mib);
        let attempted = out.attempted.max(1) as f64;
        out.set("ok_op_ratio", 1.0 - out.failed as f64 / attempted);
    }
    if out.attempted == 0 {
        out.fail("no operation was attempted");
    }
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", out.json(args.trace));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Repeats `setup`, reporting the median as `setup_s`; the first
/// repetition also counts the time since process start. Returns the
/// last repetition's inputs.
fn timed_setup<T>(out: &mut Outcome, process_start: Instant, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUP_REPS_MAX);
    let mut inputs = None;
    let budget = Instant::now();
    while times.len() < SETUP_REPS_MIN
        || (times.len() < SETUP_REPS_MAX && budget.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let started = if times.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        inputs = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&times));
    inputs.expect("at least one set-up")
}

fn run_workload(
    args: &Args,
    work: &Path,
    out: &mut Outcome,
    process_start: Instant,
) -> Option<Tracer> {
    match args.workload.as_str() {
        "mega-sweep" => {
            let cells = timed_setup(out, process_start, || mega::inputs(args.seed, mega::SAMPLE));
            if args.trace {
                mega::run_traced(&cells, args.seconds, out)
            } else {
                mega::run(&cells, args.seconds, out);
                None
            }
        }
        "grid-archive" => {
            let cells = timed_setup(out, process_start, || archive::inputs(args.seed));
            if let Err(e) = std::fs::create_dir_all(work) {
                out.fail(format!("cannot create {}: {e}", work.display()));
                return None;
            }
            if args.trace {
                archive::run_traced(&cells, work, args.seconds, out)
            } else {
                archive::run(&cells, work, args.seconds, out);
                None
            }
        }
        "serve-fleet" => {
            let fleet = timed_setup(out, process_start, || fleet::inputs(args.seed));
            if args.trace {
                fleet::run_traced(&fleet, args.seconds, out)
            } else {
                fleet::run(&fleet, args.seconds, out);
                None
            }
        }
        other => unreachable!("workload {other} was validated"),
    }
}

fn write_spans(args: &Args, tracer: &Tracer, out: &mut Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path =
        PathBuf::from(SPAN_DIR).join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_jsonl(&mut file)?;
    std::io::Write::flush(&mut file)?;
    out.note(format!(
        "{} spans of the last traced repetition written to {}",
        tracer.spans.len(),
        path.display()
    ));
    Ok(())
}

/// Runs every workload in its own child process, relays their lines,
/// and prints one combined result with metrics named
/// `<workload>/<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {workload} did not start: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().unwrap_or("");
        for line in lines {
            println!("[{workload}] {line}");
        }
        match esafe_perfbench::report::parse_result(result) {
            Some(r) => {
                correct &= r.correct && output.status.success();
                attempted += r.attempted;
                failed += r.failed;
                for (name, value, unit) in r.metrics {
                    println!("[{workload}] {name} = {value} {unit}");
                    metrics.push(format!(
                        "\"{workload}/{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                    ));
                }
            }
            None => {
                println!("[{workload}] no result line (exit {})", output.status);
                correct = false;
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
