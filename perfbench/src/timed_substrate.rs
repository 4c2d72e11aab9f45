//! A [`ReliabilitySubstrate`] decorator that forwards every call to the
//! wrapped substrate and adds the host time it took to one of a few
//! layer buckets. It changes no result: the engine sees exactly the
//! wrapped substrate's answers.

use r2d3_core::substrate::{LinkFault, ReliabilitySubstrate};
use r2d3_core::EngineError;
use r2d3_isa::Unit;
use r2d3_pipeline_sim::{ActivityStats, StageId, StageRecord};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// What a forwarded call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// `run`: stepping every formed pipeline.
    Run,
    /// `trace_window`: reading a stage's output records for the checker.
    Trace,
    /// `replay_output`: the checker's redundant side and TMR replays.
    Replay,
    /// Crossbar and health operations behind reformation and route scrub.
    Reform,
    /// Pipeline checkpoint capture, restore and digest.
    Checkpoint,
    /// Everything else (queries, restarts, injections).
    Other,
}

impl Bucket {
    /// Every bucket, in report order.
    pub const ALL: [Bucket; 6] = [
        Bucket::Run,
        Bucket::Trace,
        Bucket::Replay,
        Bucket::Reform,
        Bucket::Checkpoint,
        Bucket::Other,
    ];

    /// Metric-name token.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Run => "run",
            Bucket::Trace => "trace",
            Bucket::Replay => "replay",
            Bucket::Reform => "reform",
            Bucket::Checkpoint => "checkpoint",
            Bucket::Other => "other",
        }
    }
}

/// Host time and call count per bucket.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTimes {
    nanos: [u64; 6],
    calls: [u64; 6],
}

impl LayerTimes {
    /// Host time charged to `bucket`.
    #[must_use]
    pub fn time(&self, bucket: Bucket) -> Duration {
        Duration::from_nanos(self.nanos[bucket as usize])
    }

    /// Calls forwarded under `bucket`.
    #[must_use]
    pub fn calls(&self, bucket: Bucket) -> u64 {
        self.calls[bucket as usize]
    }

    /// Host time of every forwarded call.
    #[must_use]
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    fn add(&mut self, bucket: Bucket, elapsed: Duration) {
        let i = bucket as usize;
        self.nanos[i] += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.calls[i] += 1;
    }

    /// Removes `earlier` (a previous reading of the same timers) from
    /// `self`, leaving what was charged in between.
    pub fn subtract(&mut self, earlier: &LayerTimes) {
        for i in 0..6 {
            self.nanos[i] -= earlier.nanos[i];
            self.calls[i] -= earlier.calls[i];
        }
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &LayerTimes) {
        for i in 0..6 {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
    }
}

thread_local! {
    /// Checkpoint digest and bookkeeping calls are associated functions
    /// (no `self`), so their time is kept per thread and folded into the
    /// substrate's totals by [`Timed::times`].
    static ASSOC_CHECKPOINT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn assoc_checkpoint<T>(f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    ASSOC_CHECKPOINT.with(|c| {
        let (t, n) = c.get();
        c.set((t + ns, n + 1));
    });
    out
}

/// The timing decorator.
#[derive(Debug)]
pub struct Timed<S> {
    inner: S,
    times: Cell<LayerTimes>,
    assoc_base: (u64, u64),
}

impl<S> Timed<S> {
    /// Wraps a substrate with zeroed timers.
    pub fn new(inner: S) -> Self {
        let assoc_base = ASSOC_CHECKPOINT.with(Cell::get);
        Timed { inner, times: Cell::new(LayerTimes::default()), assoc_base }
    }

    /// Time charged so far, including this thread's checkpoint
    /// associated-function calls since the decorator was created.
    #[must_use]
    pub fn times(&self) -> LayerTimes {
        let mut t = self.times.get();
        let (ns, n) = ASSOC_CHECKPOINT.with(Cell::get);
        t.nanos[Bucket::Checkpoint as usize] += ns - self.assoc_base.0;
        t.calls[Bucket::Checkpoint as usize] += n - self.assoc_base.1;
        t
    }

    fn charge<T>(&self, bucket: Bucket, f: impl FnOnce(&S) -> T) -> T {
        let start = Instant::now();
        let out = f(&self.inner);
        let mut t = self.times.get();
        t.add(bucket, start.elapsed());
        self.times.set(t);
        out
    }

    fn charge_mut<T>(&mut self, bucket: Bucket, f: impl FnOnce(&mut S) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let mut t = self.times.get();
        t.add(bucket, start.elapsed());
        self.times.set(t);
        out
    }
}

impl<S: ReliabilitySubstrate> ReliabilitySubstrate for Timed<S> {
    type Checkpoint = S::Checkpoint;
    type Fault = S::Fault;

    fn layers(&self) -> usize {
        self.charge(Bucket::Other, S::layers)
    }
    fn pipeline_count(&self) -> usize {
        self.charge(Bucket::Other, S::pipeline_count)
    }
    fn now(&self) -> u64 {
        self.charge(Bucket::Other, S::now)
    }
    fn run(&mut self, cycles: u64) -> Result<(), EngineError> {
        self.charge_mut(Bucket::Run, |s| s.run(cycles))
    }
    fn stage_for(&self, pipe: usize, unit: Unit) -> Option<StageId> {
        self.charge(Bucket::Reform, |s| s.stage_for(pipe, unit))
    }
    fn leftovers(&self) -> Vec<StageId> {
        self.charge(Bucket::Reform, S::leftovers)
    }
    fn trace_window(&self, stage: StageId, n: usize) -> Vec<StageRecord> {
        self.charge(Bucket::Trace, |s| s.trace_window(stage, n))
    }
    fn replay_output(&self, stage: StageId, record: &StageRecord) -> u32 {
        self.charge(Bucket::Replay, |s| s.replay_output(stage, record))
    }
    fn stage_usable(&self, stage: StageId) -> bool {
        self.charge(Bucket::Reform, |s| s.stage_usable(stage))
    }
    fn power_off(&mut self, stage: StageId) -> Result<(), EngineError> {
        self.charge_mut(Bucket::Reform, |s| s.power_off(stage))
    }
    fn unassign(&mut self, pipe: usize, unit: Unit) -> Result<(), EngineError> {
        self.charge_mut(Bucket::Reform, |s| s.unassign(pipe, unit))
    }
    fn assign(&mut self, pipe: usize, unit: Unit, layer: usize) -> Result<(), EngineError> {
        self.charge_mut(Bucket::Reform, |s| s.assign(pipe, unit, layer))
    }
    fn pipeline_corrupted(&self, pipe: usize) -> bool {
        self.charge(Bucket::Other, |s| s.pipeline_corrupted(pipe))
    }
    fn retired(&self, pipe: usize) -> u64 {
        self.charge(Bucket::Other, |s| s.retired(pipe))
    }
    fn restart_program(&mut self, pipe: usize) -> Result<(), EngineError> {
        self.charge_mut(Bucket::Other, |s| s.restart_program(pipe))
    }
    fn checkpoint_pipeline(&self, pipe: usize) -> Result<Self::Checkpoint, EngineError> {
        self.charge(Bucket::Checkpoint, |s| s.checkpoint_pipeline(pipe))
    }
    fn checkpoint_retired(checkpoint: &Self::Checkpoint) -> u64 {
        assoc_checkpoint(|| S::checkpoint_retired(checkpoint))
    }
    fn restore_pipeline(
        &mut self,
        pipe: usize,
        checkpoint: &Self::Checkpoint,
    ) -> Result<(), EngineError> {
        self.charge_mut(Bucket::Checkpoint, |s| s.restore_pipeline(pipe, checkpoint))
    }
    fn inject_fault(&mut self, stage: StageId, fault: Self::Fault) -> Result<(), EngineError> {
        self.charge_mut(Bucket::Other, |s| s.inject_fault(stage, fault))
    }
    fn inject_permanent_seeded(&mut self, stage: StageId, seed: u64) -> Result<(), EngineError> {
        self.charge_mut(Bucket::Other, |s| s.inject_permanent_seeded(stage, seed))
    }
    fn inject_transient_seeded(&mut self, stage: StageId, seed: u64) -> Result<(), EngineError> {
        self.charge_mut(Bucket::Other, |s| s.inject_transient_seeded(stage, seed))
    }
    fn checkpoint_digest(checkpoint: &Self::Checkpoint) -> u64 {
        assoc_checkpoint(|| S::checkpoint_digest(checkpoint))
    }
    fn corrupt_checkpoint(checkpoint: &mut Self::Checkpoint, seed: u64) {
        assoc_checkpoint(|| S::corrupt_checkpoint(checkpoint, seed));
    }
    fn inject_link_fault(&mut self, link: StageId, fault: LinkFault) -> Result<(), EngineError> {
        self.charge_mut(Bucket::Other, |s| s.inject_link_fault(link, fault))
    }
    fn route_readback(&self, pipe: usize, unit: Unit) -> Option<usize> {
        self.charge(Bucket::Reform, |s| s.route_readback(pipe, unit))
    }
    fn corrupt_route(&mut self, pipe: usize, unit: Unit, layer: usize) -> Result<(), EngineError> {
        self.charge_mut(Bucket::Other, |s| s.corrupt_route(pipe, unit, layer))
    }
    fn scrub_route(&mut self, pipe: usize, unit: Unit) {
        self.charge_mut(Bucket::Reform, |s| s.scrub_route(pipe, unit));
    }
    fn stats(&self) -> &ActivityStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.charge_mut(Bucket::Other, S::reset_stats);
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
