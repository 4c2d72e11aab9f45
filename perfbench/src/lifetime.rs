//! The `lifetime_fig5c` workload: the Fig. 5(c) sweep — 3 kernels × 4
//! policies, 8 replicas × 96 months each — through `LifetimeSim::run`
//! on 2 worker threads.

use crate::host_speed::SpeedTrace;
use crate::stats::{percentile, process_cpu_s, Metrics};
use crate::{ms, Deadline};
use r2d3_bench::quick_lifetime_config;
use r2d3_core::api::{policy_token, workload_token};
use r2d3_core::chaos::splitmix64;
use r2d3_core::lifetime::{LifetimeConfig, LifetimeOutcome, LifetimeSim};
use r2d3_core::policy::PolicyKind;
use r2d3_isa::kernels::KernelKind;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Kernels in Fig. 5(c) order.
pub const KERNELS: [KernelKind; 3] = [KernelKind::Fft, KernelKind::Gemv, KernelKind::Gemm];

/// Worker threads of every run.
pub const THREADS: usize = 2;

/// Replica-months one configuration simulates.
#[must_use]
pub fn replica_months(cfg: &LifetimeConfig) -> u64 {
    (cfg.replicas * cfg.months) as u64
}

/// The 12 configurations of one sweep, kernel-major.
#[must_use]
pub fn configs(seed: u64) -> Vec<LifetimeConfig> {
    let mut out = Vec::new();
    for (k, &kernel) in KERNELS.iter().enumerate() {
        for (p, &policy) in PolicyKind::ALL.iter().enumerate() {
            let mut cfg = quick_lifetime_config(policy, kernel);
            cfg.threads = THREADS;
            cfg.seed = splitmix64(seed ^ ((k * 4 + p) as u64));
            out.push(cfg);
        }
    }
    out
}

/// Host time of building every simulator of one sweep.
#[must_use]
pub fn setup(seed: u64) -> Duration {
    let configs = configs(seed);
    let t = Instant::now();
    let sims: Vec<LifetimeSim> = configs.into_iter().map(LifetimeSim::new).collect();
    let elapsed = t.elapsed();
    drop(std::hint::black_box(sims));
    elapsed
}

/// One sweep's outcomes with the host time of each run.
#[derive(Debug)]
pub struct Sweep {
    /// Outcomes in [`configs`] order; `Err` text for a failed run.
    pub outcomes: Vec<Result<LifetimeOutcome, String>>,
    /// Host time of each `LifetimeSim::run`.
    pub run_times: Vec<Duration>,
    /// When each run started and ended.
    pub run_spans: Vec<(Instant, Instant)>,
}

/// Runs one sweep. With `speed`, it also runs a reference job before
/// each run, outside the run's time.
#[must_use]
pub fn sweep(seed: u64, mut speed: Option<&mut SpeedTrace>) -> Sweep {
    let mut s = Sweep { outcomes: Vec::new(), run_times: Vec::new(), run_spans: Vec::new() };
    for cfg in configs(seed) {
        if let Some(trace) = speed.as_deref_mut() {
            trace.sample();
        }
        let sim = LifetimeSim::new(cfg);
        let t = Instant::now();
        let out = sim.run().map_err(|e| e.to_string());
        let end = Instant::now();
        s.run_times.push(end - t);
        s.run_spans.push((t, end));
        s.outcomes.push(out);
    }
    s
}

/// The paper's Fig. 5(c) ordering at year 8: R2D3-Pro keeps at least
/// NoRecon's normalised IPC on every kernel. `None` when a run failed.
#[must_use]
pub fn pro_beats_norecon(s: &Sweep) -> Option<bool> {
    let mut ok = true;
    for k in 0..KERNELS.len() {
        let at = |p: PolicyKind| -> Option<f64> {
            let i = k * 4 + PolicyKind::ALL.iter().position(|&q| q == p)?;
            s.outcomes[i].as_ref().ok()?.series.norm_ipc.last().copied()
        };
        ok &= at(PolicyKind::Pro)? >= at(PolicyKind::NoRecon)?;
    }
    Some(ok)
}

/// What the untraced workload measured.
#[derive(Debug)]
pub struct Measured {
    /// Completed sweeps, all of the same inputs.
    pub sweeps: usize,
    /// `LifetimeSim::run` calls.
    pub runs: u64,
    /// Runs that returned `Err`.
    pub failed: u64,
    /// Replica-months one sweep simulates.
    pub replica_months_per_sweep: u64,
    /// Per configuration, its fastest run over the sweeps at the
    /// reference speed, ms.
    pub best_ms: Vec<f64>,
    /// [`Measured::best_ms`] without scaling to the reference speed.
    pub raw_best_ms: Vec<f64>,
    /// Every run at the reference speed, ms.
    pub op_ms: Vec<f64>,
    /// The reference jobs run beside the sweeps.
    pub speed: SpeedTrace,
    /// Every sweep returned identical series and kept Pro ≥ NoRecon.
    pub correct: bool,
}

/// Runs whole sweeps while another still fits before the deadline (at
/// least one), sampling host speed beside them.
#[must_use]
pub fn measure(seed: u64, deadline: &Deadline) -> Measured {
    let mut m = Measured {
        sweeps: 0,
        runs: 0,
        failed: 0,
        replica_months_per_sweep: configs(seed).iter().map(replica_months).sum(),
        best_ms: Vec::new(),
        raw_best_ms: Vec::new(),
        op_ms: Vec::new(),
        speed: SpeedTrace::default(),
        correct: true,
    };
    let mut first: Option<Vec<Vec<u64>>> = None;
    let mut spans = Vec::new();
    let mut last = Duration::ZERO;
    while m.sweeps == 0 || deadline.has_room_for(last) {
        let t = Instant::now();
        let s = sweep(seed, Some(&mut m.speed));
        last = t.elapsed();
        m.sweeps += 1;
        m.runs += s.outcomes.len() as u64;
        m.failed += s.outcomes.iter().filter(|o| o.is_err()).count() as u64;
        // Correctness, outside the timed window.
        m.correct &= pro_beats_norecon(&s) == Some(true);
        let bits = series_bits(&s);
        match &first {
            None => first = Some(bits),
            Some(f) => m.correct &= *f == bits,
        }
        spans.push(s.run_spans);
    }
    // Scale once every reference job is in, so a run's speed comes from
    // samples on both sides of it.
    for sweep in &spans {
        for (i, &(from, to)) in sweep.iter().enumerate() {
            let raw = ms(to - from);
            let scaled = raw * m.speed.factor_between(from, to);
            m.op_ms.push(scaled);
            if i < m.best_ms.len() {
                m.best_ms[i] = m.best_ms[i].min(scaled);
                m.raw_best_ms[i] = m.raw_best_ms[i].min(raw);
            } else {
                m.best_ms.push(scaled);
                m.raw_best_ms.push(raw);
            }
        }
    }
    m
}

/// Every series value of a sweep as raw bits, for exact comparison.
fn series_bits(s: &Sweep) -> Vec<Vec<u64>> {
    s.outcomes
        .iter()
        .map(|o| match o {
            Ok(out) => {
                let se = &out.series;
                se.max_vth
                    .iter()
                    .chain(&se.mttf_months)
                    .chain(&se.norm_ipc)
                    .chain(&se.hottest_layer_temp)
                    .map(|v| v.to_bits())
                    .collect()
            }
            Err(_) => Vec::new(),
        })
        .collect()
}

/// The traced pass: a timed sweep split by policy and kernel with the
/// process CPU time, then a serial `run_durable` pass on one kernel
/// whose observer timestamps every simulated month.
#[must_use]
pub fn traced(seed: u64) -> (Metrics, bool) {
    let mut out = Metrics::default();
    let untraced = sweep(seed, None);
    let untraced_wall: f64 = untraced.run_times.iter().map(Duration::as_secs_f64).sum();

    let cpu0 = process_cpu_s().unwrap_or(0.0);
    let traced = sweep(seed, None);
    let cpu = process_cpu_s().unwrap_or(0.0) - cpu0;
    let wall: f64 = traced.run_times.iter().map(Duration::as_secs_f64).sum();
    let ok = pro_beats_norecon(&traced) == Some(true)
        && series_bits(&traced) == series_bits(&untraced)
        && traced.outcomes.iter().all(Result::is_ok);

    for (p, &policy) in PolicyKind::ALL.iter().enumerate() {
        let s: f64 = (0..KERNELS.len()).map(|k| traced.run_times[k * 4 + p].as_secs_f64()).sum();
        out.push(&format!("lifetime.{}.run_s", policy_token(policy)), s, "s", "3 kernels");
    }
    for (k, &kernel) in KERNELS.iter().enumerate() {
        let s: f64 = traced.run_times[k * 4..k * 4 + 4].iter().map(Duration::as_secs_f64).sum();
        out.push(&format!("lifetime.{}.run_s", workload_token(kernel)), s, "s", "4 policies");
    }
    out.push("lifetime.cpu_s", cpu, "s", format!("process CPU over a {wall:.3}s sweep"));
    out.push("lifetime.cpu_per_wall", cpu / wall, "ratio", format!("{THREADS} worker threads"));
    out.push(
        "overhead.lifetime_share",
        (wall - untraced_wall) / untraced_wall,
        "ratio",
        format!("traced {wall:.3}s vs untraced {untraced_wall:.3}s"),
    );

    // Serial pass: month host times, replica 0 (cold thermal cache)
    // against later replicas (cache shared across replicas).
    let mut months: Vec<f64> = Vec::new();
    let (mut first_replica, mut later) = (Vec::new(), Vec::new());
    let gemm = &configs(seed)[8..12];
    for cfg in gemm {
        let sim = LifetimeSim::new(LifetimeConfig { threads: 1, ..cfg.clone() });
        let mut last = Instant::now();
        let res = sim.run_durable(None, |st| {
            let now = Instant::now();
            let t = ms(now - last);
            last = now;
            months.push(t);
            if st.replica() == 0 {
                first_replica.push(t);
            } else {
                later.push(t);
            }
            Ok(ControlFlow::Continue(()))
        });
        if !matches!(res, Ok(Some(_))) {
            return (out, false);
        }
    }
    let n = months.len();
    out.push(
        "lifetime.month_p50_ms",
        percentile(&months, 50.0).unwrap_or(0.0),
        "ms",
        format!("n={n}, serial GEMM row"),
    );
    out.push(
        "lifetime.month_p95_ms",
        percentile(&months, 95.0).unwrap_or(0.0),
        "ms",
        format!("n={n}, serial GEMM row"),
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.push(
        "lifetime.replica0_month_ms",
        mean(&first_replica),
        "ms",
        format!("mean of n={}, thermal cache cold", first_replica.len()),
    );
    out.push(
        "lifetime.later_replica_month_ms",
        mean(&later),
        "ms",
        format!("mean of n={}, thermal cache shared", later.len()),
    );
    (out, ok)
}
