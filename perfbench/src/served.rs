//! The `served_mix` workload: an in-process `r2d3 serve` daemon with 2
//! workers and per-step checkpoints, driven in a closed loop by two
//! clients over one unix-socket connection each.
//!
//! * `sweep` submits 2-shard campaign jobs of 4, 8 or 16 scenarios per
//!   substrate;
//! * `aging` alternates 12-month lifetime jobs with inject jobs.
//!
//! Each client submits a job, watches it to its terminal event, fetches
//! the result, and only then submits the next. The daemon keeps its
//! state on an in-memory filesystem (`MemFs`), so snapshot encoding,
//! `Vfs` calls and event logs are timed without the host disk's fsync
//! latency; the unix socket lives in a run directory under the working
//! directory.

use crate::counting_vfs::{CountingVfs, FileClass};
use crate::host_speed::SpeedTrace;
use crate::stats::{median, peak_rss_mb, Metrics};
use crate::{ms, Deadline};
use r2d3_core::api::{execute_local, render_outcome, JobEvent, JobSpec};
use r2d3_core::campaign::{SubstrateKind, INJECTABLE_UNITS};
use r2d3_core::chaos::{splitmix64, IoEnv, MemFs, Vfs};
use r2d3_core::policy::PolicyKind;
use r2d3_core::serve::{Client, Daemon, Listen, ServeConfig, ServeError};
use r2d3_core::telemetry::OverflowPolicy;
use r2d3_isa::kernels::KernelKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client names, in the order their threads start.
pub const CLIENTS: [&str; 2] = ["sweep", "aging"];

/// Daemon worker threads.
pub const WORKERS: usize = 2;

/// Campaign job sizes (scenarios per substrate) the `sweep` client
/// cycles through.
pub const SWEEP_SIZES: [usize; 3] = [4, 8, 16];

/// The `i`-th job a client submits; a pure function of `(seed, client, i)`.
/// The job mix is the same for every seed: sizes, kinds, policies,
/// kernels and substrates cycle in a fixed order, and the seed picks the
/// job seeds, inject targets and fault bits.
///
/// # Panics
///
/// Never: every generated spec is valid.
#[must_use]
pub fn job(seed: u64, client: usize, i: u64) -> JobSpec {
    let h =
        splitmix64(seed ^ splitmix64(client as u64 + 1) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let job_seed = splitmix64(h);
    let i = i as usize;
    if client == 0 {
        JobSpec::campaign()
            .seed(job_seed)
            .scenarios(SWEEP_SIZES[i % SWEEP_SIZES.len()])
            .shards(2)
            .build()
            .expect("valid campaign job")
    } else if i.is_multiple_of(2) {
        let kernels = [KernelKind::Fft, KernelKind::Gemv, KernelKind::Gemm];
        JobSpec::lifetime()
            .months(12)
            .policy(PolicyKind::ALL[(i / 2) % 4])
            .workload(kernels[(i / 8) % 3])
            .seed(job_seed)
            .build()
            .expect("valid lifetime job")
    } else {
        let substrate = if (i / 2).is_multiple_of(2) {
            SubstrateKind::Behavioral
        } else {
            SubstrateKind::Netlist
        };
        JobSpec::inject(INJECTABLE_UNITS[(h % 4) as usize], ((h >> 8) % 8) as usize)
            .bit(((h >> 16) % 8) as u8)
            .substrate(substrate)
            .seed(job_seed)
            .build()
            .expect("valid inject job")
    }
}

/// A private run directory under the working directory, removed on drop.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `.perfbench-run/<pid>-<tag>` (relative, so the socket path
    /// stays short).
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new(tag: &str) -> std::io::Result<RunDir> {
        let path = Path::new(".perfbench-run").join(format!("{}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind; fails harmlessly while another
        // run directory still lives there.
        let _ = std::fs::remove_dir(".perfbench-run");
    }
}

/// A started daemon with its two connected clients.
pub struct Served {
    daemon: Daemon,
    clients: Vec<Client>,
    _dir: RunDir,
}

/// Starts the daemon in a fresh run directory with `vfs` as its
/// filesystem and connects both clients; returns the host time of
/// `Daemon::start` plus the two `Client::connect` calls.
///
/// # Errors
///
/// Any daemon start or connect failure.
pub fn start(tag: &str, vfs: Arc<dyn Vfs>) -> Result<(Served, Duration), ServeError> {
    let dir = RunDir::new(tag)?;
    let listen = Listen::Unix(dir.path().join("d.sock"));
    let config = ServeConfig {
        state_dir: dir.path().join("state"),
        workers: WORKERS,
        io: IoEnv { vfs, ..IoEnv::default() },
        ..ServeConfig::default()
    };
    let t = Instant::now();
    let daemon = Daemon::start(config, &listen)?;
    let clients = CLIENTS.iter().map(|_| Client::connect(&listen)).collect::<Result<Vec<_>, _>>();
    let elapsed = t.elapsed();
    let served = Served { daemon, clients: Vec::new(), _dir: dir };
    match clients {
        Ok(clients) => Ok((Served { clients, ..served }, elapsed)),
        Err(e) => {
            served.stop();
            Err(e)
        }
    }
}

impl Served {
    /// Closes the clients, stops the daemon and waits for its threads.
    pub fn stop(self) {
        drop(self.clients);
        self.daemon.shutdown();
        self.daemon.join();
    }
}

/// One job as the client saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Submit call issued.
    pub submitted: Instant,
    /// Submit reply received.
    pub accepted: Instant,
    /// First `started` event received.
    pub first_started: Option<Instant>,
    /// Terminal event received.
    pub terminal: Instant,
    /// Result fetched.
    pub fetched: Instant,
    /// Terminal event name.
    pub end: &'static str,
    /// Events the watch stream delivered.
    pub events: u64,
    /// Sum over units of `unit_done` − `started` receipt times.
    pub unit_busy: Duration,
    /// The fetched result (empty unless completed).
    pub result: String,
}

impl JobRecord {
    /// Submit → terminal event.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.terminal - self.submitted
    }
}

/// Everything one load phase produced.
#[derive(Debug, Default)]
pub struct Load {
    /// Jobs in completion order per client, concatenated.
    pub jobs: Vec<JobRecord>,
    /// Client-side errors (failed submit/watch/result calls).
    pub client_errors: u64,
    /// First submit to last terminal event.
    pub window: Duration,
}

fn drive(
    client: &mut Client,
    name: &str,
    index: usize,
    seed: u64,
    jobs: u64,
) -> (Vec<JobRecord>, u64) {
    let mut out = Vec::new();
    for i in 0..jobs {
        match run_one(client, name, job(seed, index, i)) {
            Ok(r) => out.push(r),
            Err(_) => return (out, 1),
        }
    }
    (out, 0)
}

fn run_one(client: &mut Client, name: &str, spec: JobSpec) -> Result<JobRecord, ServeError> {
    let submitted = Instant::now();
    let id = client.submit(name, &spec)?;
    let accepted = Instant::now();
    let mut first_started = None;
    let mut unit_start: Vec<(u64, Instant)> = Vec::new();
    let mut unit_busy = Duration::ZERO;
    let mut events = 0;
    let end = client.watch(id, OverflowPolicy::Block, |ev| {
        let now = Instant::now();
        events += 1;
        match ev {
            JobEvent::Started { unit, .. } => {
                first_started.get_or_insert(now);
                unit_start.push((*unit, now));
            }
            JobEvent::UnitDone { unit, .. } => {
                if let Some(&(_, t)) = unit_start.iter().rev().find(|(u, _)| u == unit) {
                    unit_busy += now - t;
                }
            }
            _ => {}
        }
    })?;
    let terminal = Instant::now();
    let result = match end {
        JobEvent::Completed { .. } => client.result(id)?,
        _ => String::new(),
    };
    Ok(JobRecord {
        spec,
        submitted,
        accepted,
        first_started,
        terminal,
        fetched: Instant::now(),
        end: end.name(),
        events,
        unit_busy,
        result,
    })
}

impl Served {
    /// Runs both clients in a closed loop, `jobs[i]` jobs for client `i`.
    pub fn load(&mut self, seed: u64, jobs: [u64; 2]) -> Load {
        let per_client: Vec<(Vec<JobRecord>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(i, c)| s.spawn(move || drive(c, CLIENTS[i], i, seed, jobs[i])))
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut load = Load::default();
        for (jobs, errors) in per_client {
            load.jobs.extend(jobs);
            load.client_errors += errors;
        }
        let first = load.jobs.iter().map(|j| j.submitted).min();
        let last = load.jobs.iter().map(|j| j.terminal).max();
        if let (Some(a), Some(b)) = (first, last) {
            load.window = b - a;
        }
        load
    }
}

/// The batch answer for each job, `render_outcome(execute_local(spec))`,
/// with its host time; computed on [`WORKERS`] threads.
///
/// # Panics
///
/// If a batch thread panics.
#[must_use]
pub fn batch(specs: &[JobSpec]) -> Vec<(Option<String>, Duration)> {
    let mut out: Vec<(Option<String>, Duration)> = vec![(None, Duration::ZERO); specs.len()];
    std::thread::scope(|s| {
        for (w, chunk) in out.chunks_mut(specs.len().div_ceil(WORKERS).max(1)).enumerate() {
            let base = w * specs.len().div_ceil(WORKERS).max(1);
            s.spawn(move || {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let spec = &specs[base + j];
                    let t = Instant::now();
                    let rendered = execute_local(spec).ok().map(|o| render_outcome(spec, &o));
                    *slot = (rendered, t.elapsed());
                }
            });
        }
    });
    out
}

/// Jobs that did not complete, or whose result differs from the batch
/// answer.
#[must_use]
pub fn wrong_jobs(load: &Load, expected: &[(Option<String>, Duration)]) -> u64 {
    load.jobs
        .iter()
        .zip(expected)
        .filter(|(j, (want, _))| j.end != "completed" || want.as_deref() != Some(j.result.as_str()))
        .count() as u64
}

/// [`start`] with the set-up time dropped and a failure as error text.
fn started(tag: &str, vfs: Arc<dyn Vfs>) -> Result<Served, String> {
    start(tag, vfs).map(|(s, _)| s).map_err(|e| format!("daemon start: {e}"))
}

/// Jobs each client (in [`CLIENTS`] order) submits in one round of the
/// untraced workload and in the traced pass: eight cycles of `sweep`'s
/// job sizes and two full cycles of `aging`'s policies and kernels. The
/// round then holds as many campaign as lifetime as inject jobs, so
/// neither the median nor the tail latency falls on the gap between two
/// job kinds (with one cycle of `aging`, half the jobs were campaigns
/// and the median jumped between the kinds: ten runs spread by 0.17
/// between their quartiles), and both clients stay busy for most of the
/// round.
pub const ROUND_JOBS: [u64; 2] = [24, 48];

/// Rounds every run makes, deadline or not.
pub const MIN_ROUNDS: usize = 3;

/// Reference jobs run between two rounds to sample host speed.
pub const PROBES_BETWEEN_ROUNDS: usize = 8;

/// One round of the untraced workload.
#[derive(Debug)]
pub struct Round {
    /// The load phase.
    pub load: Load,
    /// Scales the round's host times to the reference speed.
    pub factor: f64,
}

/// What the untraced workload measured.
#[derive(Debug)]
pub struct Measured {
    /// Every round, in order; each ran the same job set on a fresh
    /// daemon.
    pub rounds: Vec<Round>,
    /// The reference jobs run between the rounds.
    pub speed: SpeedTrace,
    /// Jobs not completed or not equal to their batch answer, over all
    /// rounds.
    pub wrong: u64,
    /// Peak resident set size over the first round, MiB.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Load windows of all rounds at the reference speed, s.
    #[must_use]
    pub fn window_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.load.window.as_secs_f64() * r.factor).sum()
    }

    /// [`Measured::window_s`] without scaling to the reference speed.
    #[must_use]
    pub fn raw_window_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.load.window.as_secs_f64()).sum()
    }

    /// Submit → terminal latency of every job of every round at the
    /// reference speed, ms.
    #[must_use]
    pub fn job_ms(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.load.jobs.iter().map(|j| ms(j.latency()) * r.factor))
            .collect()
    }

    /// Jobs submitted, over all rounds.
    #[must_use]
    pub fn jobs(&self) -> u64 {
        self.rounds.iter().map(|r| r.load.jobs.len() as u64).sum()
    }

    /// Client-side errors, over all rounds.
    #[must_use]
    pub fn client_errors(&self) -> u64 {
        self.rounds.iter().map(|r| r.load.client_errors).sum()
    }
}

/// Runs the job set in rounds, each on a fresh daemon over a fresh
/// in-memory filesystem, while another round still fits before the
/// deadline (at least [`MIN_ROUNDS`]), with reference jobs before,
/// between and after the rounds; then checks every result against the
/// batch executor, outside the timed window.
///
/// # Errors
///
/// When the daemon cannot start.
pub fn measure(seed: u64, deadline: &Deadline) -> Result<Measured, String> {
    let mut speed = SpeedTrace::default();
    let mut spans: Vec<(Load, Instant, Instant)> = Vec::new();
    let mut peak_rss = None;
    let mut last = Duration::ZERO;
    while spans.len() < MIN_ROUNDS || deadline.has_room_for(last) {
        let t = Instant::now();
        for _ in 0..PROBES_BETWEEN_ROUNDS {
            speed.sample();
        }
        let from = Instant::now();
        let mut served = started("measure", Arc::new(MemFs::new()))?;
        let load = served.load(seed, ROUND_JOBS);
        served.stop();
        spans.push((load, from, Instant::now()));
        peak_rss.get_or_insert_with(|| peak_rss_mb().unwrap_or(0.0));
        last = t.elapsed();
    }
    for _ in 0..PROBES_BETWEEN_ROUNDS {
        speed.sample();
    }
    let rounds: Vec<Round> = spans
        .into_iter()
        .map(|(load, from, to)| Round { load, factor: speed.factor_between(from, to) })
        .collect();
    let specs: Vec<JobSpec> = rounds[0].load.jobs.iter().map(|j| j.spec.clone()).collect();
    let expected = batch(&specs);
    let wrong = rounds.iter().map(|r| wrong_jobs(&r.load, &expected)).sum();
    Ok(Measured { rounds, speed, wrong, peak_rss_mb: peak_rss.unwrap_or(0.0) })
}

/// The traced pass: one round's job set once on a plain in-memory
/// filesystem (untraced reference) and once through the counting `Vfs`
/// over another, then the same specs through the batch executor. The
/// job set is fixed, so I/O counts repeat exactly for a seed.
///
/// # Errors
///
/// When the daemon cannot start.
pub fn traced(seed: u64) -> Result<(Metrics, bool), String> {
    let mut plain = started("plain", Arc::new(MemFs::new()))?;
    let reference = plain.load(seed, ROUND_JOBS);
    plain.stop();

    let vfs = CountingVfs::new(Arc::new(MemFs::new()));
    let mut counted = started("counted", Arc::new(vfs.clone()))?;
    let load = counted.load(seed, ROUND_JOBS);
    counted.stop();
    let io = vfs.counts();

    let specs: Vec<JobSpec> = load.jobs.iter().map(|j| j.spec.clone()).collect();
    let expected = batch(&specs);
    let ok = load.client_errors == 0
        && reference.client_errors == 0
        && wrong_jobs(&load, &expected) == 0
        && load.jobs.len() == reference.jobs.len()
        && load.jobs.iter().zip(&reference.jobs).all(|(a, b)| a.result == b.result);

    let mut out = Metrics::default();
    let n = load.jobs.len() as f64;
    let jobs_base = format!("{} jobs", load.jobs.len());
    out.push(
        "io.syncs_per_job",
        (io.file_syncs + io.dir_syncs) as f64 / n,
        "count",
        format!("{} file + {} dir syncs / {jobs_base}", io.file_syncs, io.dir_syncs),
    );
    out.push(
        "io.renames_per_job",
        io.renames as f64 / n,
        "count",
        format!("{} / {jobs_base}", io.renames),
    );
    out.push(
        "io.bytes_written_per_job",
        io.bytes_total() as f64 / n,
        "B",
        format!("{} / {jobs_base}", io.bytes_total()),
    );
    out.push("io.busy_s", io.busy.as_secs_f64(), "s", format!("all Vfs calls, {jobs_base}"));
    for class in FileClass::ALL.into_iter().filter(|c| *c != FileClass::Other) {
        out.push(&format!("io.bytes.{}", class.name()), io.bytes_of(class) as f64, "B", &jobs_base);
    }

    let of = |f: &dyn Fn(&JobRecord) -> f64| load.jobs.iter().map(f).collect::<Vec<f64>>();
    for kind in ["campaign", "lifetime", "inject"] {
        let lat: Vec<f64> = load
            .jobs
            .iter()
            .filter(|j| j.spec.kind_name() == kind)
            .map(|j| ms(j.latency()))
            .collect();
        out.push(
            &format!("serve.{kind}_job_p50_ms"),
            median(&lat).unwrap_or(0.0),
            "ms",
            format!("n={}", lat.len()),
        );
    }
    let submit = of(&|j| ms(j.accepted - j.submitted));
    let queue = of(&|j| ms(j.first_started.unwrap_or(j.terminal) - j.accepted));
    let run = of(&|j| ms(j.terminal - j.first_started.unwrap_or(j.terminal)));
    let result = of(&|j| ms(j.fetched - j.terminal));
    let base = format!("median of n={}", load.jobs.len());
    out.push("serve.submit_ms", median(&submit).unwrap_or(0.0), "ms", &base);
    out.push("serve.queue_ms", median(&queue).unwrap_or(0.0), "ms", &base);
    out.push("serve.run_ms", median(&run).unwrap_or(0.0), "ms", &base);
    out.push("serve.result_ms", median(&result).unwrap_or(0.0), "ms", &base);
    out.push(
        "serve.events_per_job",
        load.jobs.iter().map(|j| j.events).sum::<u64>() as f64 / n,
        "count",
        &jobs_base,
    );

    // Served against batch: worker time per unit against the batch
    // executor's time for the same specs.
    let worker_busy: f64 = load.jobs.iter().map(|j| j.unit_busy.as_secs_f64()).sum();
    let batch_s: f64 = expected.iter().map(|(_, t)| t.as_secs_f64()).sum();
    let gap = worker_busy - batch_s;
    out.push("serve.worker_busy_s", worker_busy, "s", "sum of unit started->unit_done");
    out.push("serve.batch_s", batch_s, "s", format!("execute_local of the same {jobs_base}"));
    out.push("serve.gap_s", gap, "s", "worker_busy_s - batch_s");
    let io_busy = io.busy.as_secs_f64();
    out.push("share.served_gap.io", io_busy / gap, "ratio", "io.busy_s / serve.gap_s");
    out.push(
        "share.served_gap.unattributed",
        (gap - io_busy) / gap,
        "ratio",
        "1 - share.served_gap.io",
    );

    let total: f64 = load.jobs.iter().map(|j| j.latency().as_secs_f64()).sum::<f64>() * 1e3;
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let lat_base = "of the summed submit->terminal latency";
    out.push("share.served.submit", sum(&submit) / total, "ratio", lat_base);
    out.push("share.served.queue", sum(&queue) / total, "ratio", lat_base);
    out.push("share.served.run", sum(&run) / total, "ratio", lat_base);
    out.push(
        "share.served.unattributed",
        (total - sum(&submit) - sum(&queue) - sum(&run)) / total,
        "ratio",
        lat_base,
    );
    let (w_ref, w) = (reference.window.as_secs_f64(), load.window.as_secs_f64());
    out.push(
        "overhead.served_share",
        (w - w_ref) / w_ref,
        "ratio",
        format!("counting Vfs {w:.3}s vs plain {w_ref:.3}s for {jobs_base}"),
    );
    Ok((out, ok))
}
