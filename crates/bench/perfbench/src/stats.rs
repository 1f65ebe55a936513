//! The benchmark's own statistics: percentiles, the tail rule, the
//! quartiles the acceptance check uses, and open-loop due times.

use rfid_sim::mix64;
use std::time::{Duration, Instant};

/// Nearest-rank percentile `p` (in `(0, 100]`) of ascending `sorted`.
/// Returns `NaN` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `values`.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The median as Python's `statistics.median` gives it: the mean of the
/// two middle values for an even count.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method). `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        // j is clamped the way CPython does for tiny samples.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the acceptance check bounds.
#[must_use]
pub fn relative_iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(f64::NAN, |[q1, q2, q3]| (q3 - q1) / q2.abs())
}

/// A latency tail: the value, the percentile it is, and the number of
/// samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used (99, 95, 90, or 50 when no tail qualifies).
    pub percentile: u32,
    /// Its value, in the samples' unit.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// Percentiles the tail rule tries, highest first.
pub const TAIL_CANDIDATES: [u32; 3] = [99, 95, 90];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const MIN_BEYOND: usize = 10;

/// The tail rule: the highest of p99/p95/p90 that has at least
/// [`MIN_BEYOND`] samples beyond it and repeats within a tenth, judged
/// by computing it again on the even- and odd-indexed halves of the
/// samples (in arrival order). Falls back to the median when no
/// candidate qualifies, so the value is always defined.
#[must_use]
pub fn tail(samples: &[f64]) -> Tail {
    let all = sorted(samples);
    let n = all.len();
    let halves: [Vec<f64>; 2] = [0, 1].map(|parity| {
        sorted(
            &samples
                .iter()
                .skip(parity)
                .step_by(2)
                .copied()
                .collect::<Vec<_>>(),
        )
    });
    for p in TAIL_CANDIDATES {
        let rank = ((f64::from(p) / 100.0) * n as f64).ceil() as usize;
        if n < rank + MIN_BEYOND || rank == 0 {
            continue;
        }
        let value = percentile(&all, f64::from(p));
        let a = percentile(&halves[0], f64::from(p));
        let b = percentile(&halves[1], f64::from(p));
        if (a - b).abs() <= 0.1 * value.abs() {
            return Tail {
                percentile: p,
                value,
                samples: n,
            };
        }
    }
    Tail {
        percentile: 50,
        value: median(samples),
        samples: n,
    }
}

/// An open-loop schedule: event `i` is due at `start + (i + u_i) / rate`,
/// whatever happened to the events before it. `u_i` is 0 for a periodic
/// schedule; a jittered one draws it in `[0, 1)` from a seed. The jitter
/// keeps the order and the mean rate, and stops the schedule locking into
/// one phase with a periodic one: a fixed phase would decide, run by run,
/// whether a read always or never lands on a query holding the lock.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    rate_per_s: f64,
    seed: Option<u64>,
}

impl Schedule {
    /// A periodic schedule of `rate_per_s` events per second from `start`.
    #[must_use]
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "a schedule needs a positive rate");
        Self {
            start,
            rate_per_s,
            seed: None,
        }
    }

    /// The same rate with each event placed in its slot by `seed`.
    #[must_use]
    pub fn jittered(start: Instant, rate_per_s: f64, seed: u64) -> Self {
        Self {
            seed: Some(seed),
            ..Self::new(start, rate_per_s)
        }
    }

    /// Event `i`'s place in its slot, in `[0, 1)`.
    fn jitter(&self, i: u64) -> f64 {
        self.seed.map_or(0.0, |seed| {
            (mix64(seed ^ i) >> 11) as f64 / (1u64 << 53) as f64
        })
    }

    /// When event `i` is due.
    #[must_use]
    pub fn due(&self, i: u64) -> Instant {
        let slots = i as f64 + self.jitter(i);
        self.start + Duration::from_secs_f64(slots / self.rate_per_s)
    }

    /// How many events are due by `now` (events `0..count`).
    #[must_use]
    pub fn due_by(&self, now: Instant) -> u64 {
        let elapsed = now.saturating_duration_since(self.start).as_secs_f64();
        let slots = elapsed * self.rate_per_s;
        let whole = slots.floor() as u64;
        whole + u64::from(self.jitter(whole) <= slots - whole as f64)
    }
}

/// Milliseconds from an event's due time to `done`: the latency an
/// open-loop user sees, including any wait a stall imposed before the
/// event was even sent.
#[must_use]
pub fn ms_since_due(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    /// Reference values from CPython 3.11 `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[5.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let spread = relative_iqr(&v);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_takes_p99_when_it_repeats() {
        // 2000 samples, uniform ramp interleaved so both halves agree.
        let samples: Vec<f64> = (0..2000).map(|i| f64::from(i % 1000)).collect();
        let t = tail(&samples);
        assert_eq!(t.percentile, 99);
        assert_eq!(t.samples, 2000);
        assert_eq!(t.value, 989.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 500 samples: p99 has 5 beyond, p95 has 25.
        let samples: Vec<f64> = (0..500).map(|i| f64::from(i % 250)).collect();
        assert_eq!(tail(&samples).percentile, 95);
        // 50 samples: no tail has 10 beyond; fall back to the median.
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        let t = tail(&few);
        assert_eq!(t.percentile, 50);
        assert_eq!(t.value, 24.5);
    }

    #[test]
    fn tail_skips_a_percentile_that_does_not_repeat() {
        // Even-indexed samples carry a slow tail the odd ones lack, so
        // p99 and p95 differ between the halves; p90 sits in the bulk.
        let samples: Vec<f64> = (0..2000)
            .map(|i| {
                let base = f64::from(i % 100);
                if i % 2 == 0 && i % 100 >= 92 {
                    base * 10.0
                } else {
                    base
                }
            })
            .collect();
        assert_eq!(tail(&samples).percentile, 90);
    }

    #[test]
    fn latency_is_timed_from_due_not_from_send() {
        let start = Instant::now();
        let schedule = Schedule::jittered(start, 1000.0, 7);
        // Each event is due inside its own 1 ms slot.
        for i in 0..2000 {
            let slot = start + Duration::from_millis(i);
            assert!(schedule.due(i) >= slot && schedule.due(i) < slot + Duration::from_millis(1));
        }
        // Event 10 is due in the slot at 10 ms; a stall sends it at 50 ms
        // and it completes at 51 ms: its latency is about 41 ms, not 1 ms.
        let done = start + Duration::from_millis(51);
        let late = ms_since_due(schedule.due(10), done);
        assert!(late > 40.0 && late <= 41.0, "{late}");
        // Done before due (impossible in practice) never goes negative.
        assert_eq!(ms_since_due(schedule.due(100), start), 0.0);
    }

    #[test]
    fn due_by_counts_exactly_the_events_due() {
        let start = Instant::now();
        let schedule = Schedule::jittered(start, 1000.0, 11);
        for micros in (0..20_000).step_by(37) {
            let now = start + Duration::from_micros(micros);
            let count = schedule.due_by(now);
            assert!(count == 0 || schedule.due(count - 1) <= now);
            assert!(schedule.due(count) > now);
        }
        assert!(schedule.due_by(start) <= 1);
        let periodic = Schedule::new(start, 1000.0);
        assert_eq!(periodic.due(1000), start + Duration::from_secs(1));
        assert_eq!(periodic.due_by(start), 1);
        assert_eq!(periodic.due_by(start + Duration::from_micros(2500)), 3);
    }

    #[test]
    fn jitter_keeps_the_mean_rate_and_differs_by_seed() {
        let start = Instant::now();
        let a = Schedule::jittered(start, 1000.0, 1);
        let b = Schedule::jittered(start, 1000.0, 2);
        let second = start + Duration::from_secs(10);
        assert!((a.due_by(second) as i64 - 10_000).abs() <= 1);
        assert!((0..100).any(|i| a.due(i) != b.due(i)));
    }
}
