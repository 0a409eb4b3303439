//! Offline re-monitoring golden: a recorded grid subset, re-judged by
//! the `strict` suite (which the corpus was **not** recorded with),
//! must produce an aggregate byte-identical to running the strict
//! suite live over the same cells — and both are pinned against
//! `tests/golden/corpus_strict_replay_aggregate.json`.
//!
//! The pin makes suite-semantics drift visible: a change to the goal
//! formulas, the monitor engine, the corpus codec, or the batched
//! replay backend that alters *any* strict verdict on the archived
//! evidence fails this test with a JSON diff.
//!
//! The recording itself is pinned too: the length and CRC-32 of the
//! corpus data file and manifest
//! (`tests/golden/corpus_pinned_bytes.txt`), so a change to the codec,
//! the writer, or the order runs are committed in cannot alter the
//! archived bytes unnoticed.
//!
//! Regenerate (after an intentional semantic or format change) with:
//! `UPDATE_GOLDEN=1 cargo test --test corpus_replay_golden`.

use emergent_safety::harness::corpus::{CORPUS_DATA_FILE, CORPUS_MANIFEST_FILE};
use emergent_safety::scenarios::{corpus, grid};
use std::path::Path;

const GOLDEN: &str = include_str!("golden/corpus_strict_replay_aggregate.json");
const BYTES_GOLDEN: &str = include_str!("golden/corpus_pinned_bytes.txt");

/// Bitwise CRC-32 (IEEE, reflected), independent of the crate's own
/// table-driven implementation.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// The byte pin of a committed corpus: each file's length and CRC-32.
/// The manifest's CRC skips its 4-byte trailing checksum — a CRC-32
/// over a message followed by its own little-endian CRC is the same
/// constant for every message, so it would pin nothing.
fn byte_pin(dir: &Path) -> String {
    let data = std::fs::read(dir.join(CORPUS_DATA_FILE)).unwrap();
    let manifest = std::fs::read(dir.join(CORPUS_MANIFEST_FILE)).unwrap();
    let body = &manifest[..manifest.len() - 4];
    format!(
        "# file, length in bytes, CRC-32\n\
         {CORPUS_DATA_FILE} {} {:#010x}\n\
         {CORPUS_MANIFEST_FILE} {} {:#010x} (without its trailing checksum)\n",
        data.len(),
        crc32(&data),
        manifest.len(),
        crc32(body),
    )
}

/// The pinned subset: scenarios 1 and 2 across `none`, `thesis (all)`,
/// and the first single-defect ablation — colliding, clean, and
/// partially-degraded cells.
fn pinned_cells() -> Vec<grid::GridCell> {
    grid::cells(&[1, 2], &grid::ablation_configs()[..3])
}

#[test]
fn strict_replay_of_a_recorded_grid_matches_live_and_the_golden_pin() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("esafe-corpus-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (recorded, _, stats) = corpus::record_grid_corpus(&dir, pinned_cells()).unwrap();
    assert_eq!(stats.runs, 6);
    let pin = byte_pin(&dir);

    // Replay the archive with the strict suite at two stripe widths:
    // both must agree (width is an execution detail, not semantics).
    let (wide, reader) = corpus::replay_with_suite(&dir, "strict", 8).unwrap();
    let (narrow, _) = corpus::replay_with_suite(&dir, "strict", 1).unwrap();
    assert!(!reader.recovered());
    assert_eq!(wide.aggregate, narrow.aggregate);
    assert_ne!(
        wide.aggregate, recorded,
        "strict must judge the archived runs differently than the recording suite"
    );

    // The live reference: same cells, same dynamics, strict monitoring.
    let (live, _) = corpus::live_reference(pinned_cells(), "strict").unwrap();
    let replayed_json = serde_json::to_string_pretty(&wide.aggregate).unwrap();
    let live_json = serde_json::to_string_pretty(&live).unwrap();
    assert_eq!(
        replayed_json, live_json,
        "offline strict replay diverged from live strict monitoring"
    );

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/corpus_strict_replay_aggregate.json"
        );
        std::fs::write(path, format!("{replayed_json}\n")).unwrap();
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/corpus_pinned_bytes.txt"
        );
        std::fs::write(path, &pin).unwrap();
    } else {
        assert_eq!(
            pin, BYTES_GOLDEN,
            "the recorded corpus bytes diverged from the golden pin"
        );
        assert_eq!(
            replayed_json.trim(),
            GOLDEN.trim(),
            "strict replay aggregate diverged from the golden pin"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
