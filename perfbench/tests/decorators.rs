//! The timing decorators observe without changing results: the engine
//! reaches the same verdicts through `Timed`, and the daemon renders the
//! same reports through `CountingVfs`. Their counts repeat exactly.
//!
//! Run with `cargo test --release` from this package; debug builds work
//! but are slow.

use r2d3_core::chaos::MemFs;
use r2d3_perfbench::campaign::{behavioral_system, engine_pass, netlist_substrate};
use r2d3_perfbench::counting_vfs::{CountingVfs, FileClass};
use r2d3_perfbench::served;
use r2d3_perfbench::timed_substrate::{Bucket, LayerTimes, Timed};
use std::sync::Arc;

const SEED: u64 = 11;

#[test]
fn timed_substrate_leaves_engine_verdicts_unchanged() {
    let (bare, _) =
        engine_pass(SEED, 2, || behavioral_system(SEED), |s| s, |_| LayerTimes::default());
    let (timed, t) = engine_pass(SEED, 2, || behavioral_system(SEED), Timed::new, Timed::times);
    assert_eq!(bare, timed);
    assert!(bare.metrics.iter().any(|m| m.detections > 0), "the pass must exercise detection");
    assert!(t.forwarded.calls(Bucket::Run) > 0 && t.forwarded.calls(Bucket::Replay) > 0);

    let template = netlist_substrate(SEED);
    let (bare, _) = engine_pass(SEED, 2, || template.clone(), |s| s, |_| LayerTimes::default());
    let (timed, _) = engine_pass(SEED, 2, || template.clone(), Timed::new, Timed::times);
    assert_eq!(bare, timed);
}

#[test]
fn engine_pass_call_counts_repeat_exactly() {
    let run = || engine_pass(SEED, 2, || behavioral_system(SEED), Timed::new, Timed::times).1;
    let (a, b) = (run(), run());
    for bucket in Bucket::ALL {
        assert_eq!(a.forwarded.calls(bucket), b.forwarded.calls(bucket), "{}", bucket.name());
    }
    assert_eq!((a.epochs, a.retired, a.cycles), (b.epochs, b.retired, b.cycles));
}

#[test]
fn counting_vfs_leaves_served_reports_byte_identical() {
    let (mut plain, _) = served::start("test-plain", Arc::new(MemFs::new())).unwrap();
    let reference = plain.load(SEED, [2, 2]);
    plain.stop();

    let mut counts = Vec::new();
    for tag in ["test-counted-a", "test-counted-b"] {
        let vfs = CountingVfs::new(Arc::new(MemFs::new()));
        let (mut counted, _) = served::start(tag, Arc::new(vfs.clone())).unwrap();
        let load = counted.load(SEED, [2, 2]);
        counted.stop();
        assert_eq!(load.client_errors, 0);
        assert_eq!(load.jobs.len(), reference.jobs.len());
        for (a, b) in load.jobs.iter().zip(&reference.jobs) {
            assert_eq!(a.end, "completed");
            assert_eq!(a.result, b.result, "served report changed under the counting Vfs");
        }
        let specs: Vec<_> = load.jobs.iter().map(|j| j.spec.clone()).collect();
        assert_eq!(served::wrong_jobs(&load, &served::batch(&specs)), 0);
        counts.push(vfs.counts());
    }
    let (a, b) = (&counts[0], &counts[1]);
    assert!(a.file_syncs > 0 && a.renames > 0 && a.bytes_of(FileClass::Manifest) > 0);
    assert_eq!(
        (a.opens, a.file_syncs, a.dir_syncs, a.renames, a.reads, a.removes),
        (b.opens, b.file_syncs, b.dir_syncs, b.renames, b.reads, b.removes),
        "i/o operation counts must repeat exactly for one job set"
    );
    for class in [FileClass::UnitState, FileClass::ShardReport, FileClass::Report] {
        assert_eq!(a.bytes_of(class), b.bytes_of(class), "{} bytes", class.name());
    }
    // Manifests and event lines record the job-wide progress of both
    // shards, which run concurrently, so their length can differ by the
    // digits of a progress count between two runs of the same jobs.
    for class in [FileClass::Manifest, FileClass::Events] {
        let (x, y) = (a.bytes_of(class) as f64, b.bytes_of(class) as f64);
        assert!((x - y).abs() <= 0.01 * x, "{} bytes {x} vs {y}", class.name());
    }
}
