//! `r2d3-perfbench --workload <lifetime_fig5c|served_mix>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it measures the workload's end-to-end metrics; with
//! `--trace 1` it runs every traced pass — the campaign sweep and engine
//! pass, the lifetime sweep, the served job set — and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is non-zero when any correctness check fails.

use r2d3_core::chaos::MemFs;
use r2d3_perfbench::stats::{
    median, peak_rss_mb, percentile, reset_peak_rss, result_line, tail_percentile, Metrics,
};
use r2d3_perfbench::{campaign, lifetime, served, Deadline};
use std::process::{Command, ExitCode};
use std::sync::Arc;

const WORKLOADS: [&str; 2] = ["lifetime_fig5c", "served_mix"];

/// Fresh processes whose cold set-up time the `setup_s` median is over.
const SETUP_PROBES: usize = 31;

/// The tail percentile is the highest with ten samples beyond it, at
/// most this.
const TAIL_CAP: u32 = 90;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, setup_probe: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--setup-probe" => {
                args.workload = value()?;
                args.setup_probe = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// One cold set-up of `workload` in this process, in seconds.
fn setup_once(workload: &str, seed: u64) -> Result<f64, String> {
    Ok(match workload {
        "lifetime_fig5c" => lifetime::setup(seed).as_secs_f64(),
        _ => {
            let (s, elapsed) = served::start("probe", Arc::new(MemFs::new()))
                .map_err(|e| format!("daemon start: {e}"))?;
            s.stop();
            elapsed.as_secs_f64()
        }
    })
}

/// Median cold set-up time over [`SETUP_PROBES`] fresh processes, each
/// started, measured and waited for in turn.
fn setup_s(workload: &str, seed: u64) -> Result<(f64, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(["--setup-probe", workload, "--seed", &seed.to_string()])
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let value =
            text.trim().parse::<f64>().ok().filter(|_| out.status.success()).ok_or_else(|| {
                format!("set-up probe failed: {}", String::from_utf8_lossy(&out.stderr))
            })?;
        samples.push(value);
    }
    Ok((median(&samples).unwrap_or(0.0), samples))
}

/// What a run reports, before printing.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    notes: Vec<String>,
}

/// The workload's unit operations as latency metrics.
fn push_latency(m: &mut Metrics, notes: &mut Vec<String>, op: &str, op_ms: &[f64]) {
    let n = op_ms.len();
    let p50 = percentile(op_ms, 50.0).unwrap_or(0.0);
    m.push("op_p50_ms", p50, "ms", format!("{op}, n={n}"));
    match tail_percentile(n, TAIL_CAP) {
        Some(q) => {
            let v = percentile(op_ms, f64::from(q)).unwrap_or(0.0);
            m.push("op_tail_ms", v, "ms", format!("{op}, p{q}, n={n}"));
        }
        None => notes.push(format!("only {n} {op} samples: no tail percentile")),
    }
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let (setup, samples) = setup_s(&args.workload, args.seed)?;
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    m.push(
        "setup_s",
        setup,
        "s",
        format!(
            "median of {SETUP_PROBES} cold processes, range {:.6}..{:.6}",
            min(&samples),
            max(&samples)
        ),
    );
    let rss_span =
        if args.workload == "served_mix" { "the first round" } else { "the measured window" };
    let rss_base = if reset_peak_rss() {
        format!("peak over {rss_span}")
    } else {
        "peak over the process".into()
    };
    let deadline = Deadline::after(args.seconds);
    let (correct, attempted, failed, peak_rss) = match args.workload.as_str() {
        "lifetime_fig5c" => {
            let r = lifetime::measure(args.seed, &deadline);
            let peak = peak_rss_mb().unwrap_or(0.0);
            let best = r.best_ms.iter().sum::<f64>() / 1e3;
            let (slow, fast) = r.speed.factor_range();
            m.push(
                "units_per_s",
                r.replica_months_per_sweep as f64 / best,
                "1/s",
                format!(
                    "replica-months: {} at each run's fastest of {} sweeps, {best:.3}s at the \
                     reference speed ({:.3}s as measured; {} reference jobs, factor \
                     {slow:.2}..{fast:.2})",
                    r.replica_months_per_sweep,
                    r.sweeps,
                    r.raw_best_ms.iter().sum::<f64>() / 1e3,
                    r.speed.len(),
                ),
            );
            push_latency(&mut m, &mut notes, "LifetimeSim::run at the reference speed", &r.op_ms);
            if !r.correct {
                notes.push(
                    "lifetime check failed: series differ between sweeps or Pro < NoRecon".into(),
                );
            }
            (r.correct && r.failed == 0, r.runs, r.failed, peak)
        }
        _ => {
            let r = served::measure(args.seed, &deadline)?;
            let secs = r.window_s();
            let jobs = r.jobs();
            let rounds = r.rounds.len();
            let (slow, fast) = r.speed.factor_range();
            m.push(
                "units_per_s",
                jobs as f64 / secs,
                "1/s",
                format!(
                    "jobs: {jobs} in {rounds} rounds, {secs:.3}s at the reference speed \
                     ({:.3}s as measured; {} reference jobs, factor {slow:.2}..{fast:.2})",
                    r.raw_window_s(),
                    r.speed.len(),
                ),
            );
            push_latency(
                &mut m,
                &mut notes,
                "job submit->terminal at the reference speed",
                &r.job_ms(),
            );
            if r.wrong > 0 {
                notes.push(format!(
                    "{} jobs did not complete with the batch executor's result",
                    r.wrong
                ));
            }
            let errors = r.client_errors();
            (
                r.wrong == 0 && errors == 0 && jobs > 0,
                jobs + errors,
                r.wrong + errors,
                r.peak_rss_mb,
            )
        }
    };
    m.push("peak_rss_mb", peak_rss, "MiB", format!("VmHWM, {rss_base}"));
    Ok(Outcome { correct, attempted, failed, metrics: m, notes })
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let (c, c_ok) = campaign::traced(args.seed);
    let (l, l_ok) = lifetime::traced(args.seed);
    let (s, s_ok) = served::traced(args.seed)?;
    for (name, ok) in [("campaign", c_ok), ("lifetime_fig5c", l_ok), ("served_mix", s_ok)] {
        if !ok {
            notes.push(format!("traced {name} pass failed its correctness check"));
        }
    }
    m.extend(c);
    m.extend(l);
    m.extend(s);
    let attempted =
        4 * campaign::SCENARIOS as u64 + 2 * 12 + 4 + 2 * served::ROUND_JOBS.iter().sum::<u64>();
    let failed = u64::from(!c_ok) + u64::from(!l_ok) + u64::from(!s_ok);
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics: m, notes })
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match setup_once(&args.workload, args.seed) {
            Ok(s) => {
                println!("{s:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = if args.trace { traced(&args) } else { end_to_end(&args) };
    let out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "r2d3-perfbench workload={} seed={} seconds={} trace={} host_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    print!("{}", out.metrics.render_lines());
    for note in &out.notes {
        println!("  note: {note}");
    }
    println!("{}", result_line(out.correct, out.attempted, out.failed, &out.metrics));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
