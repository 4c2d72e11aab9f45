//! Serving subcommands: `r2d3 serve` plus the `submit` / `status` /
//! `watch` / `cancel` client commands.
//!
//! The clients build the same [`JobSpec`] the batch commands build from
//! their flags — there is one description of a job, and these commands
//! just put it on the wire instead of executing it in-process.

use crate::args::{parse_substrate, Command, SubstrateChoice};
use crate::commands::CliResult;
use r2d3_core::api::wire::{parse_overflow, JobEvent, JobStatus};
use r2d3_core::api::{JobId, JobSpec};
use r2d3_core::campaign::SubstrateKind;
use r2d3_core::serve::{Client, Daemon, Listen, ServeConfig};
use r2d3_core::telemetry::OverflowPolicy;

/// Default socket shared by `serve --listen` and the clients'
/// `--connect`.
const DEFAULT_ADDR: &str = "r2d3.sock";

fn connect_flag(cmd: Command) -> Command {
    cmd.flag("connect", "ADDR", "daemon address: unix:PATH, tcp:HOST:PORT or a socket path").flag(
        "timeout",
        "MS",
        "deadline in milliseconds for the tcp connect and each request/response roundtrip",
    )
}

fn client_flags(cmd: Command) -> Command {
    connect_flag(cmd)
        .flag("client", "NAME", "client name for quota accounting (default: cli)")
        .flag("priority", "N", "scheduling priority within this client's queue (default 0)")
}

fn connect(
    addr: Option<&str>,
    timeout_ms: Option<&str>,
) -> Result<Client, Box<dyn std::error::Error>> {
    let listen = Listen::parse(addr.unwrap_or(DEFAULT_ADDR))?;
    let deadline = match timeout_ms {
        Some(v) => Some(std::time::Duration::from_millis(
            v.parse().map_err(|_| format!("invalid --timeout `{v}` (expected milliseconds)"))?,
        )),
        None => None,
    };
    Ok(Client::connect_with_deadlines(&listen, deadline, deadline)?)
}

/// `r2d3 serve`
pub fn serve(args: &[String]) -> CliResult {
    let cmd = Command::new("serve", "run the campaign-as-a-service job daemon")
        .flag("listen", "ADDR", "listen address: unix:PATH, tcp:HOST:PORT or a socket path")
        .flag("state-dir", "DIR", "job state directory (default r2d3-serve); reuse to resume")
        .flag("workers", "N", "worker threads executing job units (default 2)")
        .flag("quota", "LIST", "per-client scheduling quotas, e.g. alice=3,bob=1")
        .flag("default-quota", "N", "quota for clients not named in --quota (default 1)")
        .flag("snapshot-every", "N", "observer steps between unit checkpoints (default 1)")
        .flag(
            "lease-steps",
            "N",
            "yield a running unit back to the queue after N steps (checkpoint + re-dispatch; \
             exercises the resume path)",
        );
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let listen = Listen::parse(p.get("listen").unwrap_or(DEFAULT_ADDR))?;
    let mut quotas = Vec::new();
    if let Some(list) = p.get("quota") {
        for pair in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (client, weight) = pair
                .split_once('=')
                .ok_or_else(|| format!("--quota entries are CLIENT=N, got `{pair}`"))?;
            let weight: u64 =
                weight.parse().map_err(|_| format!("invalid quota in `{pair}` (expected N>=1)"))?;
            quotas.push((client.to_string(), weight));
        }
    }
    let lease_steps = match p.get("lease-steps") {
        Some(v) => Some(v.parse().map_err(|_| format!("invalid value for --lease-steps: `{v}`"))?),
        None => None,
    };
    let config = ServeConfig {
        state_dir: p.get("state-dir").unwrap_or("r2d3-serve").into(),
        workers: p.get_or("workers", 2)?,
        default_quota: p.get_or("default-quota", 1)?,
        quotas,
        snapshot_every: p.get_or("snapshot-every", 1)?,
        lease_steps,
        paused: false,
        io: r2d3_core::chaos::IoEnv::default(),
    };
    eprintln!(
        "serving on {listen} — state in {}, {} worker(s)",
        config.state_dir.display(),
        config.workers.max(1)
    );
    let daemon = Daemon::start(config, &listen)?;
    daemon.join();
    eprintln!("daemon stopped");
    Ok(())
}

/// `r2d3 submit campaign|lifetime|inject`
pub fn submit(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("campaign") => submit_campaign(&args[1..]),
        Some("lifetime") => submit_lifetime(&args[1..]),
        Some("inject") => submit_inject(&args[1..]),
        Some("--help") | None => {
            println!(
                "r2d3 submit — submit a job to a serve daemon\n\
                 \n\
                 USAGE:\n\
                 \x20 r2d3 submit campaign [campaign flags] [--shards N] [client flags]\n\
                 \x20 r2d3 submit lifetime [lifetime flags] [client flags]\n\
                 \x20 r2d3 submit inject <unit> <layer> [inject flags] [client flags]\n\
                 \n\
                 Prints the job id on stdout. Client flags: --connect ADDR, --client NAME,\n\
                 --priority N. Run `r2d3 submit <kind> --help` for the kind's flag list.\n"
            );
            Ok(())
        }
        Some(other) => Err(format!("unknown job kind `{other}` (campaign|lifetime|inject)").into()),
    }
}

fn send(
    p_connect: Option<&str>,
    timeout_ms: Option<&str>,
    client_name: Option<&str>,
    spec: &JobSpec,
) -> CliResult {
    let mut client = connect(p_connect, timeout_ms)?;
    let job = client.submit(client_name.unwrap_or("cli"), spec)?;
    eprintln!("submitted as job {job}");
    println!("{job}");
    Ok(())
}

fn submit_campaign(args: &[String]) -> CliResult {
    let cmd = client_flags(
        Command::new("submit campaign", "submit an adversarial fault-injection sweep")
            .seed_flag()
            .flag("scenarios", "N", "scenarios per substrate")
            .flag("kinds", "LIST", "comma-separated fault kinds to sweep (default: all)")
            .substrate_flag(true)
            .switch("smoke", "small CI-sized sweep (27 scenarios)")
            .flag("core", "FILE", "imported core netlist, resolved by the daemon when the job runs")
            .flag("shards", "N", "split into N shard units for the worker pool (default 1)"),
    );
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let smoke = p.has("smoke");
    let substrates = match parse_substrate(p.get("substrate"), SubstrateChoice::Both, true)? {
        SubstrateChoice::Behavioral => vec![SubstrateKind::Behavioral],
        SubstrateChoice::Netlist => vec![SubstrateKind::Netlist],
        SubstrateChoice::Both => vec![SubstrateKind::Behavioral, SubstrateKind::Netlist],
    };
    let mut builder = JobSpec::campaign()
        .seed(p.seed_or(0xCA3A)?)
        .scenarios(p.get_or("scenarios", if smoke { 27 } else { 256 })?)
        .substrates(substrates)
        .kinds(crate::commands::parse_kinds(p.get("kinds"))?)
        .shards(p.get_or("shards", 1)?)
        .priority(p.get_or("priority", 0)?);
    if let Some(core) = p.get("core") {
        builder = builder.core(core);
    }
    let spec = builder.build().map_err(|e| e.to_string())?;
    send(p.get("connect"), p.get("timeout"), p.get("client"), &spec)
}

fn submit_lifetime(args: &[String]) -> CliResult {
    let cmd = client_flags(
        Command::new("submit lifetime", "submit an NBTI-aware lifetime trajectory")
            .flag("policy", "P", "rotation policy: norecon|static|lite|pro")
            .flag("months", "N", "months to simulate (paper: 96)")
            .flag("workload", "K", "workload kernel: gemm|gemv|fft")
            .seed_flag(),
    );
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let policy_token = p.get("policy").unwrap_or("pro");
    let policy = r2d3_core::api::parse_policy(policy_token)
        .map_err(|_| format!("unknown policy `{policy_token}` (norecon|static|lite|pro)"))?;
    let workload_token = p.get("workload").unwrap_or("gemm");
    let workload = r2d3_core::api::parse_workload(workload_token)
        .map_err(|_| format!("unknown workload `{workload_token}` (gemm|gemv|fft)"))?;
    let spec = JobSpec::lifetime()
        .policy(policy)
        .months(p.get_or("months", 96)?)
        .workload(workload)
        .seed(p.seed_or(0x52D3)?)
        .priority(p.get_or("priority", 0)?)
        .build()
        .map_err(|e| e.to_string())?;
    send(p.get("connect"), p.get("timeout"), p.get("client"), &spec)
}

fn submit_inject(args: &[String]) -> CliResult {
    let cmd = client_flags(
        Command::new("submit inject", "submit a single-fault inject-and-repair run")
            .positional("unit", "pipeline unit: IFU|EXU|LSU|TLU|FFU")
            .positional("layer", "stack layer of the victim stage (0..8)")
            .flag("bit", "B", "output bit the fault sticks at 1")
            .substrate_flag(false)
            .seed_flag()
            .epochs_flag(),
    );
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let unit = r2d3_core::api::parse_unit(p.positional(0))
        .map_err(|_| format!("unknown unit `{}` (IFU/EXU/LSU/TLU/FFU)", p.positional(0)))?;
    let layer: usize = p
        .positional(1)
        .parse()
        .map_err(|_| format!("invalid layer `{}` (expected 0..8)", p.positional(1)))?;
    let substrate = match parse_substrate(p.get("substrate"), SubstrateChoice::Behavioral, false)? {
        SubstrateChoice::Behavioral => SubstrateKind::Behavioral,
        SubstrateChoice::Netlist => SubstrateKind::Netlist,
        SubstrateChoice::Both => unreachable!("rejected by parse_substrate"),
    };
    let spec = JobSpec::inject(unit, layer)
        .bit(p.get_or("bit", 0)?)
        .substrate(substrate)
        .seed(p.seed_or(7)?)
        .epochs(p.get_or("epochs", 64)?)
        .priority(p.get_or("priority", 0)?)
        .build()
        .map_err(|e| e.to_string())?;
    send(p.get("connect"), p.get("timeout"), p.get("client"), &spec)
}

fn status_line(s: &JobStatus) -> String {
    format!(
        "{}  {:<10}  {:<8}  {:<9}  {:>3}/{:<3}  {:>6}/{:<6}{}",
        s.id,
        s.client,
        s.kind,
        s.state.token(),
        s.units_done,
        s.units,
        s.progress_done,
        s.progress_total,
        match &s.error {
            Some(e) => format!("  {e}"),
            None => String::new(),
        }
    )
}

/// `r2d3 status [job]`
pub fn status(args: &[String]) -> CliResult {
    let cmd = connect_flag(
        Command::new("status", "list a serve daemon's jobs (all, or one by id)").flag(
            "result-out",
            "FILE",
            "also fetch the job's completed report and write it here (needs a job id)",
        ),
    )
    .trailing();
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let job = match p.positionals() {
        [] => None,
        [one] => Some(JobId::parse(one).map_err(|e| e.to_string())?),
        more => return Err(format!("expected at most one job id, got {}", more.len()).into()),
    };
    let mut client = connect(p.get("connect"), p.get("timeout"))?;
    let jobs = client.status(job)?;
    println!("job       client      kind      state      units    progress");
    for s in &jobs {
        println!("{}", status_line(s));
    }
    if let Some(path) = p.get("result-out") {
        let job = job.ok_or("--result-out needs a job id")?;
        // Client-side convenience copy of the daemon's durable report —
        // a torn write here exits non-zero and refetching regenerates
        // the bytes, so it stays off the chaos Vfs seam.
        std::fs::write(path, client.result(job)?)?;
        eprintln!("report written to {path}");
    }
    Ok(())
}

fn event_line(ev: &JobEvent) -> String {
    match ev {
        JobEvent::Accepted { job, units } => format!("{job}: accepted ({units} unit(s))"),
        JobEvent::Started { job, unit } => format!("{job}: unit {unit} started"),
        JobEvent::Progress { job, unit, done, total } => {
            format!("{job}: unit {unit} progress {done}/{total}")
        }
        JobEvent::Checkpointed { job, unit, done } => {
            format!("{job}: unit {unit} checkpointed at {done}")
        }
        JobEvent::UnitDone { job, unit } => format!("{job}: unit {unit} done"),
        JobEvent::WorkerLost { job, unit, done } => {
            format!("{job}: unit {unit} lost its worker at {done}; re-queued")
        }
        JobEvent::Degraded { job, reason } => {
            format!("{job}: degraded — {reason} (parked; resumes when disk pressure lifts)")
        }
        JobEvent::Completed { job } => format!("{job}: completed"),
        JobEvent::Failed { job, error } => format!("{job}: failed — {error}"),
        JobEvent::Canceled { job } => format!("{job}: canceled"),
    }
}

/// `r2d3 watch <job>`
pub fn watch(args: &[String]) -> CliResult {
    let cmd = connect_flag(
        Command::new("watch", "stream a job's events (history, then live) until it finishes")
            .positional("job", "job id printed by submit")
            .flag(
                "overflow",
                "POLICY",
                "live-stream overflow policy: block (lossless) | drop (never stalls the daemon)",
            ),
    );
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let job = JobId::parse(p.positional(0)).map_err(|e| e.to_string())?;
    let overflow = match p.get("overflow") {
        None => OverflowPolicy::Block,
        Some(tok) => parse_overflow(tok)
            .map_err(|_| format!("unknown overflow policy `{tok}` (block|drop)"))?,
    };
    let mut client = connect(p.get("connect"), p.get("timeout"))?;
    let terminal =
        client.watch(job, overflow, |ev| println!("{}", event_line(ev))).map_err(|e| match e {
            // A dead daemon must be a loud, non-zero exit — not a
            // silent end-of-stream that looks like completion.
            r2d3_core::serve::ServeError::Closed => format!(
                "watch {job}: connection closed before the job finished — the daemon died or \
                 was shut down; its state is durable, restart it and re-run `r2d3 watch {job}`"
            )
            .into(),
            other => Box::<dyn std::error::Error>::from(other),
        })?;
    match terminal {
        JobEvent::Completed { .. } => Ok(()),
        JobEvent::Failed { error, .. } => Err(format!("job {job} failed: {error}").into()),
        JobEvent::Canceled { .. } => Err(format!("job {job} was canceled").into()),
        _ => unreachable!("watch returns only terminal events"),
    }
}

/// `r2d3 cancel <job>`
pub fn cancel(args: &[String]) -> CliResult {
    let cmd = connect_flag(
        Command::new("cancel", "cancel a queued or running job")
            .positional("job", "job id printed by submit"),
    );
    let Some(p) = cmd.parse(args)? else {
        return Ok(());
    };
    let job = JobId::parse(p.positional(0)).map_err(|e| e.to_string())?;
    let mut client = connect(p.get("connect"), p.get("timeout"))?;
    if client.cancel(job)? {
        eprintln!("job {job} canceled");
    } else {
        eprintln!("job {job} had already finished");
    }
    Ok(())
}
