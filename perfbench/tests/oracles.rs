//! Each output oracle rejects a tampered result, and a small fixed-seed
//! run of each workload's traced driver reproduces its work counters
//! exactly.

use esafe_perfbench::trace::Tracer;
use esafe_perfbench::{archive, fleet, mega};
use std::path::PathBuf;
use std::time::Instant;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn mega_oracle_rejects_a_tampered_aggregate() {
    let cells = mega::inputs(3, 16);
    let reference = mega::reference(&cells).expect("scalar sweep runs");
    let (_, batched) = mega::sweep_once(&cells);
    let batched = batched.expect("batched sweep runs");
    assert_eq!(mega::check(&reference, &batched), Ok(()));

    let mut tampered = batched.clone();
    tampered.hits += 1;
    assert!(mega::check(&reference, &tampered).is_err());
    let mut tampered = batched;
    tampered.terminal_events ^= 1;
    assert!(mega::check(&reference, &tampered).is_err());
}

#[test]
fn archive_oracles_reject_tampered_replays() {
    let cells: Vec<_> = archive::inputs(5).into_iter().take(3).collect();
    let dir = scratch("archive-oracle");
    let rep = archive::rep(&cells, &dir).expect("record and replay run");
    let strict = archive::strict_reference(&cells).expect("live reference runs");
    assert_eq!(archive::check(cells.len(), &strict, &rep), Ok(()));

    let mut thesis = rep.clone();
    thesis.replays[0].false_negatives += 1;
    assert!(archive::check(cells.len(), &strict, &thesis).is_err());
    let mut strict_tampered = rep.clone();
    strict_tampered.replays[1].false_positives += 1;
    assert!(archive::check(cells.len(), &strict, &strict_tampered).is_err());
    let mut short = rep.clone();
    short.replay_ticks -= 1;
    assert!(archive::check(cells.len(), &strict, &short).is_err());
    assert!(archive::check(cells.len() + 1, &strict, &rep).is_err());
    std::fs::remove_dir_all(&dir).expect("scratch corpus removable");
}

#[test]
fn fleet_oracle_rejects_tampered_verdicts_and_lost_frames() {
    let fleet = fleet::inputs(11);
    let mut oracle = fleet::Oracle::default();
    // A stream whose window reports violations, so tampering with an
    // interval is possible.
    let (i, spec) = (0..200)
        .map(|i| (i, fleet.saturated(i)))
        .find(|(_, spec)| !oracle.expected(&fleet, spec).is_empty())
        .expect("the faulty traces report violations");
    let honest = fleet::Closed {
        ticks: spec.frames,
        verdicts: oracle.expected(&fleet, &spec).clone(),
    };
    assert_eq!(oracle.check(&fleet, i, &spec, &honest), Ok(()));

    let mut shifted = honest.clone();
    let intervals = shifted.verdicts.values_mut().next().expect("non-empty");
    intervals[0].end_tick += 1;
    assert!(oracle.check(&fleet, i, &spec, &shifted).is_err());
    let mut dropped = honest.clone();
    dropped.verdicts.clear();
    assert!(oracle.check(&fleet, i, &spec, &dropped).is_err());
    let mut lost = honest;
    lost.ticks -= 1;
    assert!(oracle.check(&fleet, i, &spec, &lost).is_err());
}

#[test]
fn mega_counters_are_pinned() {
    let cells = mega::inputs(7, 40);
    let traced = mega::traced_sweep(&cells, 2);
    let reference = mega::reference(&cells).expect("scalar sweep runs");
    assert_eq!(mega::check(&reference, &traced.aggregate), Ok(()));
    assert_eq!(traced.lane_ticks, reference.lane_ticks);
    assert_eq!(traced.lane_ticks, MEGA_LANE_TICKS);
    assert_eq!(
        traced.unique_nodes * traced.provisioned_lane_ticks,
        MEGA_DAG_NODE_EVALS
    );
}

#[test]
fn archive_counters_are_pinned() {
    let cells: Vec<_> = archive::inputs(7).into_iter().take(4).collect();
    let dir = scratch("archive-pin");
    let mut tracer = Tracer::new(Instant::now());
    let (recorded, ticks) = archive::record_traced(&cells, &dir, &mut tracer).expect("records");
    let bytes = archive::corpus_bytes(&dir).expect("committed").len() as u64;
    let (replayed, counts, _) =
        archive::replay_traced(&dir, "thesis", 2, &mut tracer).expect("replays");
    assert_eq!(replayed, recorded, "thesis replay equals the recording");
    assert_eq!(ticks, ARCHIVE_TICKS);
    assert_eq!(bytes, ARCHIVE_BYTES_WRITTEN);
    assert_eq!(counts.bytes_read, ARCHIVE_BYTES_WRITTEN);
    assert_eq!(counts.lane_ticks, ARCHIVE_TICKS);
    assert_eq!(counts.node_evals, ARCHIVE_REPLAY_NODE_EVALS);
    let layers = tracer.layers();
    assert_eq!(layers.total_self_ns(), layers.worker_ns);
    std::fs::remove_dir_all(&dir).expect("scratch corpus removable");
}

#[test]
fn serve_counters_are_pinned() {
    let fleet = fleet::inputs(7);
    let mut tracer = Tracer::new(Instant::now());
    let run = fleet::saturated_traced(&fleet, 64, 200, &mut tracer);
    let mut oracle = fleet::Oracle::default();
    for (i, c) in run.windows() {
        assert_eq!(oracle.check(&fleet, i, &fleet.saturated(i), c), Ok(()));
    }
    assert!(run.errors().is_empty(), "{:?}", run.errors());
    assert_eq!(run.closed(), 200);
    assert_eq!(run.waves, SERVE_WAVES);
    assert_eq!(run.frames, SERVE_FRAMES);
    let layers = tracer.layers();
    assert_eq!(layers.total_self_ns(), layers.worker_ns);
}

// The pinned counts: machine-independent work for the fixed seeds above.
const MEGA_LANE_TICKS: u64 = 200_000;
const MEGA_DAG_NODE_EVALS: u64 = 36_800_000;
const ARCHIVE_TICKS: u64 = 65_588;
const ARCHIVE_BYTES_WRITTEN: u64 = 2_625_825;
const ARCHIVE_REPLAY_NODE_EVALS: u64 = 14_720_000;
const SERVE_WAVES: u64 = 1_604;
const SERVE_FRAMES: u64 = 82_304;
