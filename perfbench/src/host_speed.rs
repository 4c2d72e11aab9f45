//! Host speed: a fixed reference job, timed beside the work it
//! normalises.
//!
//! On the host this benchmark was tuned on (2 vCPUs of a shared Xeon
//! machine) the program runs up to 1.8× slower for tens of seconds at a
//! time, while neighbours load the core resources it shares with them;
//! no amount of repetition inside one run averages such a stretch away.
//! The reference job — updates to a hash map of 50 000 keys, about
//! 1 MiB, from a seeded stream — slows by about as much in those
//! stretches (a tight ALU loop slows by only 1.1×). It runs no code of
//! this repository, so no change to the program moves it.
//!
//! Every workload samples the reference job beside its work — the
//! lifetime sweep before each run, the served workload between rounds —
//! and scales its host times by [`REFERENCE_MS`] over the median
//! reference time around them, so the times read as they would at the
//! reference speed.

use crate::ms;
use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Map updates of one reference job.
pub const UPDATES: u64 = 60_000;

/// Distinct keys the reference job's map grows to, at most.
pub const KEYS: u64 = 50_000;

/// Host time of one reference job at the reference speed, ms: about its
/// time on the tuning host while no neighbour loaded it.
pub const REFERENCE_MS: f64 = 3.0;

/// Samples within this distance of a measured item set its speed.
pub const WINDOW: Duration = Duration::from_millis(500);

/// The reference job. A fixed hasher keeps its work the same in every
/// process.
fn reference_job(updates: u64) -> usize {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 7u64;
    for i in 0..updates {
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
        *map.entry(x % KEYS).or_insert(0) += i;
    }
    map.len()
}

/// Host time of one reference job, ms.
#[must_use]
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    black_box(reference_job(black_box(UPDATES)));
    ms(t.elapsed())
}

/// Reference-job samples in time order.
#[derive(Debug, Default, Clone)]
pub struct SpeedTrace {
    samples: Vec<(Instant, f64)>,
}

impl SpeedTrace {
    /// Runs and records one reference job.
    pub fn sample(&mut self) {
        let at = Instant::now();
        let t = probe_ms();
        self.samples.push((at, t));
    }

    /// Samples taken.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was taken.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The factor that scales the host time of work that ran from `from`
    /// to `to` to the reference speed: [`REFERENCE_MS`] over the median
    /// sample between `from - WINDOW` and `to + WINDOW` (the nearest
    /// sample when none is that close); 1 without samples.
    #[must_use]
    pub fn factor_between(&self, from: Instant, to: Instant) -> f64 {
        let lo = self.samples.partition_point(|(t, _)| *t + WINDOW < from);
        let hi = self.samples.partition_point(|(t, _)| *t <= to + WINDOW);
        let mut near: Vec<f64> = self.samples[lo..hi].iter().map(|(_, v)| *v).collect();
        if near.is_empty() {
            let distance =
                |t: Instant| if t > to { t - to } else { from.saturating_duration_since(t) };
            let nearest = [lo.checked_sub(1), Some(lo).filter(|&i| i < self.samples.len())]
                .into_iter()
                .flatten()
                .min_by_key(|&i| distance(self.samples[i].0));
            match nearest {
                Some(i) => near.push(self.samples[i].1),
                None => return 1.0,
            }
        }
        median(&near).map_or(1.0, |m| REFERENCE_MS / m)
    }

    /// The smallest and largest factor over the samples, each taken
    /// alone.
    #[must_use]
    pub fn factor_range(&self) -> (f64, f64) {
        self.samples.iter().fold((f64::INFINITY, 0.0), |(lo, hi), (_, v)| {
            (lo.min(REFERENCE_MS / v), hi.max(REFERENCE_MS / v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_job_work_is_fixed() {
        assert_eq!(reference_job(UPDATES), reference_job(UPDATES));
        assert!(reference_job(UPDATES) as u64 <= KEYS);
        assert!(probe_ms() > 0.0);
    }

    #[test]
    fn factor_is_reference_over_median_nearby_sample() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let trace = SpeedTrace {
            samples: vec![(at(0), 6.0), (at(100), 3.0), (at(200), 4.0), (at(2000), 1.5)],
        };
        let factor = |from: u64, to: u64| trace.factor_between(at(from), at(to));
        // Within 500 ms of t=100: 6, 3, 4 -> median 4.
        assert!((factor(100, 100) - REFERENCE_MS / 4.0).abs() < 1e-12);
        // Nothing within 500 ms of t=1400 or t=900: the nearest sample.
        assert!((factor(1400, 1400) - REFERENCE_MS / 1.5).abs() < 1e-12);
        assert!((factor(900, 900) - REFERENCE_MS / 4.0).abs() < 1e-12);
        assert_eq!(SpeedTrace::default().factor_between(t0, t0), 1.0);
        // 100..1400 ms reaches every sample but the last: 6, 3, 4.
        assert!((factor(100, 1400) - REFERENCE_MS / 4.0).abs() < 1e-12);
        // 800..1600 ms reaches only the last.
        assert!((factor(800, 1600) - REFERENCE_MS / 1.5).abs() < 1e-12);
        assert_eq!(trace.factor_range(), (REFERENCE_MS / 6.0, REFERENCE_MS / 1.5));
    }
}
