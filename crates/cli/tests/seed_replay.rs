//! Replay handles printed by the CLI must reproduce the run when pasted
//! back: a campaign announces its seed in hex, and feeding that token to
//! `--seed` must yield a byte-identical report.

use std::path::{Path, PathBuf};
use std::process::Command;

fn r2d3(args: &[&str]) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_r2d3")).args(args).output().expect("spawn r2d3");
    assert!(out.status.success(), "r2d3 {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    out
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a small behavioral campaign, writing its report to `out`, and
/// returns its stderr.
fn campaign(out: &Path, extra: &[&str]) -> String {
    let out = out.to_str().unwrap();
    let mut args = vec!["campaign", "--substrate", "behavioral", "--scenarios", "6", "--out", out];
    args.extend_from_slice(extra);
    String::from_utf8(r2d3(&args).stderr).unwrap()
}

#[test]
fn printed_hex_seed_replays_to_a_byte_identical_report() {
    let dir = scratch_dir("seed_replay");
    let first = dir.join("first.json");
    let log = campaign(&first, &[]);
    let seed = log
        .split_once("seed ")
        .and_then(|(_, rest)| rest.split(',').next())
        .unwrap_or_else(|| panic!("no seed announced in:\n{log}"));
    assert!(seed.starts_with("0x"), "campaign announces its seed in hex, got `{seed}`");

    let replayed = dir.join("replayed.json");
    campaign(&replayed, &["--seed", seed]);
    let first = std::fs::read(&first).unwrap();
    assert_eq!(first, std::fs::read(&replayed).unwrap(), "--seed {seed} must replay the run");

    // The report records the same seed in decimal; that token replays too.
    let text = String::from_utf8(first.clone()).unwrap();
    let decimal = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"seed\": "))
        .map(|v| v.trim_end_matches(','))
        .expect("report records its seed");
    let from_decimal = dir.join("decimal.json");
    campaign(&from_decimal, &["--seed", decimal]);
    assert_eq!(
        first,
        std::fs::read(&from_decimal).unwrap(),
        "--seed {decimal} must replay the run"
    );
}

#[test]
fn chaos_accepts_the_hex_seed_it_prints() {
    let out = r2d3(&["chaos", "--seed", "0xBADD", "--schedules", "5"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("chaos sweep: seed 0xbadd, 5 schedule(s)"), "{text}");
    assert_eq!(
        text,
        String::from_utf8(r2d3(&["chaos", "--seed", "47837", "--schedules", "5"]).stdout).unwrap()
    );
}
