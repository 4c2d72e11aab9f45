//! The campaign's traced pass: the `r2d3 campaign --scenarios 64` sweep
//! (64 scenarios on each of the behavioral and netlist substrates, all
//! 14 fault kinds, one thread; every other setting the default) split by
//! substrate and fault kind, its set-up split, and the engine pass.
//!
//! The sweep is not an end-to-end workload: its host time spread too
//! widely between runs on the host this was tuned on (see the package
//! README). The campaign and inject jobs of `served_mix` run the same
//! code end to end.

use crate::ms;
use crate::stats::{percentile, Metrics};
use crate::timed_substrate::{Bucket, LayerTimes, Timed};
use r2d3_core::api::{execute_local, render_outcome, JobKind, JobSpec};
use r2d3_core::campaign::{
    campaign_engine_config, generate_scenarios_with, render_report, run_campaign_durable,
    CampaignConfig, CampaignReport, KindId, ScenarioSpace, INJECTABLE_UNITS,
};
use r2d3_core::chaos::splitmix64;
use r2d3_core::engine::EngineEvent;
use r2d3_core::substrate::{NetlistSubstrate, NetlistSubstrateConfig, ReliabilitySubstrate};
use r2d3_core::{MetricsSnapshot, NullSink, R2d3Engine};
use r2d3_isa::kernels::trap_mix;
use r2d3_pipeline_sim::{StageId, System3d, SystemConfig};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Substrate names, in sweep order.
pub const SUBSTRATES: [&str; 2] = ["behavioral", "netlist"];

/// Scenarios per substrate. A quarter of the CLI default keeps the
/// traced run short; 64 still cycle through each fault kind four or five
/// times.
pub const SCENARIOS: usize = 64;

/// The job spec `r2d3 campaign --seed S --scenarios 64` builds.
///
/// # Panics
///
/// Never: the spec is valid.
#[must_use]
pub fn spec(seed: u64) -> JobSpec {
    JobSpec::campaign().seed(seed).scenarios(SCENARIOS).build().expect("campaign spec is valid")
}

/// The campaign configuration of [`spec`].
///
/// # Panics
///
/// Never: the default spec names no core file.
#[must_use]
pub fn config(seed: u64) -> CampaignConfig {
    let JobKind::Campaign(c) = &spec(seed).kind else { unreachable!("campaign spec") };
    c.to_config().expect("no core file to load")
}

/// Host time of each set-up step the sweep performs before its first
/// scenario.
#[derive(Debug, Clone, Copy)]
pub struct SetupSplit {
    /// `generate_scenarios_with` over the full kind universe.
    pub scenario_gen: Duration,
    /// The `trap_mix` workload programs of every pipeline.
    pub programs: Duration,
    /// `NetlistSubstrate::new`: stage netlist synthesis.
    pub netlist_synth: Duration,
}

impl SetupSplit {
    /// All three steps.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.scenario_gen + self.programs + self.netlist_synth
    }
}

/// Runs the sweep's set-up steps once, through the same public calls
/// the campaign runner makes.
#[must_use]
pub fn setup(seed: u64) -> SetupSplit {
    let cfg = config(seed);
    let space = ScenarioSpace {
        seed: cfg.seed,
        count: cfg.scenarios_per_substrate,
        pipelines: cfg.pipelines,
        layers: cfg.layers,
        settle_epochs: cfg.settle_epochs,
    };
    let t = Instant::now();
    black_box(generate_scenarios_with(&space, &cfg.kinds));
    let scenario_gen = t.elapsed();
    let t = Instant::now();
    black_box(behavioral_programs(&cfg));
    let programs = t.elapsed();
    let t = Instant::now();
    black_box(NetlistSubstrate::new(&netlist_config(&cfg)));
    let netlist_synth = t.elapsed();
    SetupSplit { scenario_gen, programs, netlist_synth }
}

fn behavioral_programs(cfg: &CampaignConfig) -> Vec<r2d3_isa::program::Program> {
    (0..cfg.pipelines)
        .map(|p| trap_mix(4096, cfg.seed ^ (p as u64 + 1)).program().clone())
        .collect()
}

fn netlist_config(cfg: &CampaignConfig) -> NetlistSubstrateConfig {
    NetlistSubstrateConfig { pipelines: cfg.pipelines, layers: cfg.layers, ..Default::default() }
}

/// One durable sweep with a timestamp-only observer.
#[derive(Debug)]
pub struct Sweep {
    /// The finished report.
    pub report: CampaignReport,
    /// Host time of the whole call.
    pub wall: Duration,
    /// Host time between consecutive observer calls, per substrate, in
    /// scenario order. The first interval of a substrate also holds its
    /// preparation (and, for the first substrate, scenario generation).
    pub scenario_times: [Vec<Duration>; 2],
}

/// Runs the sweep through `run_campaign_durable`, which executes the
/// same per-scenario code as `execute_local`, reading one timestamp per
/// completed scenario.
///
/// # Panics
///
/// If the durable runner reports an error, which it cannot without a
/// resume state.
#[must_use]
pub fn timed_sweep(cfg: &CampaignConfig) -> Sweep {
    let mut scenario_times: [Vec<Duration>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut last = start;
    let report = run_campaign_durable(cfg, None, None, |st| {
        let now = Instant::now();
        scenario_times[st.substrate()].push(now - last);
        last = now;
        Ok(ControlFlow::Continue(()))
    })
    .expect("fresh durable sweep cannot fail")
    .expect("observer never stops the sweep");
    Sweep { report, wall: start.elapsed(), scenario_times }
}

/// The traced pass: set-up split, the sweep through `execute_local` as
/// the untraced reference, the same sweep through the durable runner
/// with per-scenario timestamps, and the engine pass.
///
/// Returns the metrics and whether the traced report was byte-identical
/// to the untraced one with zero failures.
#[must_use]
pub fn traced(seed: u64) -> (Metrics, bool) {
    let mut out = Metrics::default();
    let split = setup(seed);
    out.push("setup.scenario_gen_ms", ms(split.scenario_gen), "ms", "1 cold call");
    out.push("setup.programs_ms", ms(split.programs), "ms", "1 cold call, 5 trap_mix programs");
    out.push("setup.netlist_synth_ms", ms(split.netlist_synth), "ms", "1 cold call");

    let job = spec(seed);
    let t = Instant::now();
    let outcome = execute_local(&job).expect("campaign job runs");
    let untraced_wall = t.elapsed();
    let t = Instant::now();
    let reference = render_outcome(&job, &outcome);
    let render = t.elapsed();
    out.push(
        "report.render_ms",
        ms(render),
        "ms",
        format!("render_outcome of the {}-scenario report", 2 * SCENARIOS),
    );
    out.push("report.bytes", reference.len() as f64, "B", "rendered report");

    let sweep = timed_sweep(&config(seed));
    let ok = render_report(&sweep.report) == reference && sweep.report.failures() == 0;
    let wall = sweep.wall.as_secs_f64();
    let mut busy_total = 0.0;
    for (sb, (times, sub)) in
        SUBSTRATES.iter().zip(sweep.scenario_times.iter().zip(&sweep.report.substrates))
    {
        let samples: Vec<f64> = times.iter().map(|d| ms(*d)).collect();
        let busy: f64 = times.iter().map(Duration::as_secs_f64).sum();
        busy_total += busy;
        let n = samples.len();
        out.push(&format!("campaign.{sb}.busy_s"), busy, "s", format!("{n} scenarios"));
        out.push(
            &format!("campaign.{sb}.scenario_p50_ms"),
            percentile(&samples, 50.0).unwrap_or(0.0),
            "ms",
            format!("n={n}"),
        );
        out.push(
            &format!("campaign.{sb}.scenario_p95_ms"),
            percentile(&samples, 95.0).unwrap_or(0.0),
            "ms",
            format!("n={n}"),
        );
        for kind in KindId::ALL {
            let of_kind: Vec<f64> = sub
                .results
                .iter()
                .zip(&samples)
                .filter(|(r, _)| r.kind == kind.name())
                .map(|(_, t)| *t)
                .collect();
            let mean = of_kind.iter().sum::<f64>() / of_kind.len().max(1) as f64;
            out.push(
                &format!("campaign.{sb}.{}.mean_ms", kind.name()),
                mean,
                "ms",
                format!("n={}", of_kind.len()),
            );
        }
        out.push(&format!("share.campaign.{sb}"), busy / wall, "ratio", "of the traced sweep wall");
    }
    out.push(
        "share.campaign.setup",
        split.total().as_secs_f64() / wall,
        "ratio",
        "inside the first scenario of each substrate",
    );
    out.push(
        "share.campaign.report",
        render.as_secs_f64() / wall,
        "ratio",
        "of the traced sweep wall",
    );
    out.push(
        "share.campaign.unattributed",
        (wall - busy_total - render.as_secs_f64()) / wall,
        "ratio",
        "sweep wall minus both substrates and the report",
    );
    out.push(
        "overhead.campaign_share",
        (wall - untraced_wall.as_secs_f64()) / untraced_wall.as_secs_f64(),
        "ratio",
        format!("traced {wall:.3}s vs execute_local {:.3}s", untraced_wall.as_secs_f64()),
    );
    out.extend(engine_metrics(seed));
    (out, ok)
}

/// Epochs per engine-pass scenario.
pub const PASS_EPOCHS: u64 = 12;
/// Scenarios per substrate in the engine pass.
pub const PASS_SCENARIOS: u64 = 6;

/// What one engine pass observed, for the decorator identity check.
#[derive(Debug, Clone, PartialEq)]
pub struct PassVerdicts {
    /// Engine events of every epoch, in order.
    pub events: Vec<Vec<EngineEvent>>,
    /// Final engine metrics of every scenario.
    pub metrics: Vec<MetricsSnapshot>,
}

/// Host time and counts an engine pass accumulated inside `run_epoch`.
#[derive(Debug, Default, Clone)]
pub struct PassTimes {
    /// Host time inside `run_epoch`.
    pub epoch: Duration,
    /// Forwarded substrate calls made from inside `run_epoch`.
    pub forwarded: LayerTimes,
    /// Epochs run.
    pub epochs: u64,
    /// Instructions retired during `run_epoch`.
    pub retired: u64,
    /// Simulated cycles stepped during `run_epoch`.
    pub cycles: u64,
}

/// A fresh behavioral system as the campaign builds one.
///
/// # Panics
///
/// If a workload program fails to load, which the campaign rules out.
#[must_use]
pub fn behavioral_system(seed: u64) -> System3d {
    let cfg = config(seed);
    let mut sys = System3d::new(&SystemConfig {
        pipelines: cfg.pipelines,
        layers: cfg.layers,
        ..Default::default()
    });
    for (p, prog) in behavioral_programs(&cfg).into_iter().enumerate() {
        sys.load_program(p, prog).expect("campaign workload loads");
    }
    sys
}

/// A fresh netlist substrate as the campaign builds one.
#[must_use]
pub fn netlist_substrate(seed: u64) -> NetlistSubstrate {
    NetlistSubstrate::new(&netlist_config(&config(seed)))
}

/// Drives `R2d3Engine::run_epoch` with the campaign engine configuration
/// over `scenarios` short scenarios of [`PASS_EPOCHS`] epochs, each
/// injecting one seeded
/// permanent fault and one seeded transient through the substrate trait.
/// `wrap` turns each fresh substrate into the one the engine drives;
/// `forwarded` reads the decorator's timers (zero for a bare substrate).
///
/// # Panics
///
/// If the engine configuration is rejected or an epoch fails.
pub fn engine_pass<S, W>(
    seed: u64,
    scenarios: u64,
    make: impl Fn() -> S,
    wrap: impl Fn(S) -> W,
    forwarded: impl Fn(&W) -> LayerTimes,
) -> (PassVerdicts, PassTimes)
where
    S: ReliabilitySubstrate,
    W: ReliabilitySubstrate,
{
    let mut verdicts = PassVerdicts { events: Vec::new(), metrics: Vec::new() };
    let mut times = PassTimes::default();
    for j in 0..scenarios {
        let mut sys = wrap(make());
        let mut engine: R2d3Engine<W, NullSink> = R2d3Engine::builder()
            .config(campaign_engine_config())
            .build()
            .expect("campaign engine configuration is valid");
        let h = splitmix64(seed ^ j);
        let pipes = sys.pipeline_count();
        let victim =
            StageId::new((h % pipes as u64) as usize, INJECTABLE_UNITS[(h >> 8) as usize % 4]);
        let upset = StageId::new(
            ((h >> 16) % pipes as u64) as usize,
            INJECTABLE_UNITS[(h >> 24) as usize % 4],
        );
        let mut last_retired = vec![0u64; pipes];
        for epoch in 0..PASS_EPOCHS {
            // Injection failures mean the target is already retired; the
            // scenario is simply less eventful.
            if epoch == 1 {
                let _ = sys.inject_permanent_seeded(victim, h);
            }
            if epoch == 5 {
                let _ = sys.inject_transient_seeded(upset, h.rotate_left(7));
            }
            let before = forwarded(&sys);
            let retired_before: u64 = (0..pipes).map(|p| sys.retired(p)).sum();
            let now_before = sys.now();
            let t = Instant::now();
            let events = engine.run_epoch(&mut sys).expect("engine epoch runs");
            times.epoch += t.elapsed();
            let mut inside = forwarded(&sys);
            inside.subtract(&before);
            times.forwarded.absorb(&inside);
            times.cycles += sys.now() - now_before;
            times.retired +=
                (0..pipes).map(|p| sys.retired(p)).sum::<u64>().saturating_sub(retired_before);
            times.epochs += 1;
            verdicts.events.push(events);
            // The campaign runner's keep-alive: restart finished,
            // uncorrupted programs so detection keeps seeing traffic.
            for (p, last) in last_retired.iter_mut().enumerate() {
                if sys.retired(p) == *last && !sys.pipeline_corrupted(p) {
                    let _ = sys.restart_program(p);
                }
                *last = sys.retired(p);
            }
        }
        verdicts.metrics.push(engine.metrics());
    }
    (verdicts, times)
}

/// Per-layer metrics of the engine pass on both substrates.
fn engine_metrics(seed: u64) -> Metrics {
    let mut out = Metrics::default();
    let behavioral =
        engine_pass(seed, PASS_SCENARIOS, || behavioral_system(seed), Timed::new, Timed::times);
    let template = netlist_substrate(seed);
    let netlist = engine_pass(seed, PASS_SCENARIOS, || template.clone(), Timed::new, Timed::times);
    for (sb, (_, t)) in SUBSTRATES.iter().zip([behavioral, netlist]) {
        let epoch_s = t.epoch.as_secs_f64();
        let base = format!("{} epochs, {:.3}s in run_epoch", t.epochs, epoch_s);
        out.push(&format!("engine.{sb}.epoch_ms"), ms(t.epoch) / t.epochs as f64, "ms", &base);
        out.push(
            &format!("engine.{sb}.self_share"),
            (epoch_s - t.forwarded.total().as_secs_f64()) / epoch_s,
            "ratio",
            &base,
        );
        for bucket in Bucket::ALL {
            out.push(
                &format!("substrate.{sb}.{}_share", bucket.name()),
                t.forwarded.time(bucket).as_secs_f64() / epoch_s,
                "ratio",
                &base,
            );
        }
        out.push(
            &format!("substrate.{sb}.replay_calls_per_epoch"),
            t.forwarded.calls(Bucket::Replay) as f64 / t.epochs as f64,
            "count",
            format!("{} calls / {} epochs", t.forwarded.calls(Bucket::Replay), t.epochs),
        );
        let run_s = t.forwarded.time(Bucket::Run).as_secs_f64();
        out.push(
            &format!("pipeline.{sb}.retired_per_s"),
            t.retired as f64 / run_s,
            "1/s",
            format!("{} retired / {run_s:.3}s in run", t.retired),
        );
        out.push(
            &format!("substrate.{sb}.cycles_per_s"),
            t.cycles as f64 / run_s,
            "1/s",
            format!("{} cycles / {run_s:.3}s in run", t.cycles),
        );
    }
    out
}
