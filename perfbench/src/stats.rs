//! Summary statistics for timing samples.
//!
//! Latencies are reported as a median and a *tail*: the highest of
//! p50 / p90 / p99 that still has at least [`TAIL_BEYOND`] samples beyond
//! it, so a tail is never a single outlier. A run too short for any of
//! them has no tail, and its median stands in. A failed operation enters the
//! samples as `f64::INFINITY` — it missed every latency limit — so
//! failures push percentiles up instead of vanishing from them.

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAIL_GRID: [f64; 3] = [99.0, 90.0, 50.0];

/// Nearest-rank index of percentile `p` (0–100) in `n` sorted samples.
fn rank_index(p: f64, n: usize) -> usize {
    debug_assert!(n > 0);
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` of `samples` (any order).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    sorted[rank_index(p, sorted.len())]
}

/// Median (nearest-rank p50) of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail of a sample set: which percentile was used, and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// `Some(p)` for percentile `p`; `None` when no grid percentile has
    /// [`TAIL_BEYOND`] samples beyond it and the median stands in.
    pub percentile: Option<f64>,
    /// The tail value.
    pub value: f64,
}

impl Tail {
    /// Human-readable label (`p99`; a note for runs too short for a tail).
    pub fn label(&self) -> String {
        match self.percentile {
            Some(p) => format!("p{p}"),
            None => format!("p50: no percentile has {TAIL_BEYOND} samples beyond it"),
        }
    }
}

/// The highest grid percentile with at least [`TAIL_BEYOND`] samples
/// beyond it; the median when the run is too short for any.
pub fn tail(samples: &[f64]) -> Tail {
    let sorted = sorted(samples);
    let n = sorted.len();
    for p in TAIL_GRID {
        let i = rank_index(p, n);
        if n - 1 - i >= TAIL_BEYOND {
            return Tail {
                percentile: Some(p),
                value: sorted[i],
            };
        }
    }
    Tail {
        percentile: None,
        value: sorted[rank_index(50.0, n)],
    }
}

/// Latency samples of a closed loop, with failed operations counted as
/// missed latency.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    samples: Vec<f64>,
    failed: usize,
}

impl Latencies {
    /// Records a completed operation's duration.
    pub fn ok(&mut self, seconds: f64) {
        self.samples.push(seconds);
    }

    /// Records a failed operation: it counts as infinitely late.
    pub fn failed(&mut self) {
        self.samples.push(f64::INFINITY);
        self.failed += 1;
    }

    /// Records an operation that completed in `seconds` but failed its
    /// contract (an error, a rolled-back update, a short session).
    pub fn record(&mut self, seconds: f64, success: bool) {
        if success {
            self.ok(seconds);
        } else {
            self.failed();
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    /// Operations failed.
    pub fn failures(&self) -> usize {
        self.failed
    }

    /// Median over every attempt.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// Tail over every attempt.
    pub fn tail(&self) -> Tail {
        tail(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, with 10 samples beyond it.
        let t = tail(&ramp(1000));
        assert_eq!(t.percentile, Some(99.0));
        assert_eq!(t.value, 990.0);
        // 999 samples: p99 is rank 990 with only 9 beyond → fall to p90.
        let t = tail(&ramp(999));
        assert_eq!(t.percentile, Some(90.0));
        assert_eq!(t.value, 900.0);
        // 100 samples: p90 = rank 90, exactly 10 beyond.
        assert_eq!(tail(&ramp(100)).percentile, Some(90.0));
        // 99 samples: p90 has 9 beyond → p50.
        let t = tail(&ramp(99));
        assert_eq!(t.percentile, Some(50.0));
        assert_eq!(t.value, 50.0);
    }

    #[test]
    fn short_runs_have_no_tail() {
        let t = tail(&[3.0, 9.0, 4.0]);
        assert_eq!(t.percentile, None);
        assert_eq!(t.value, 4.0);
        assert!(t.label().starts_with("p50:"));
        // 20 samples: p50 = rank 10 has 10 beyond.
        assert_eq!(tail(&ramp(20)).percentile, Some(50.0));
        assert_eq!(tail(&ramp(19)).percentile, None);
    }

    #[test]
    fn failures_count_as_missed_latency() {
        let mut l = Latencies::default();
        for i in 0..85 {
            l.ok(i as f64);
        }
        for _ in 0..14 {
            l.failed();
        }
        l.record(1.0, false);
        assert_eq!(l.attempted(), 100);
        assert_eq!(l.failures(), 15);
        // Fifteen infinite samples sit at the top: p90 is a missed latency.
        let t = l.tail();
        assert_eq!(t.percentile, Some(90.0));
        assert_eq!(t.value, f64::INFINITY);
        // Half the attempts failing drags the median to +∞.
        let mut half = Latencies::default();
        half.ok(1.0);
        half.failed();
        half.failed();
        assert_eq!(half.median(), f64::INFINITY);
    }
}
