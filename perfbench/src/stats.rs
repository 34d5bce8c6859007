//! Sample statistics, backlog detection and the open-loop rate search.
//!
//! Pure functions over recorded samples, so each rule is unit-tested on
//! synthetic data. Every percentile goes through `spg_obs::percentile`
//! (nearest rank), the repository's authority for benchmark reports.

use spg_obs::percentile;

/// The tail percentile a timing reports next to its median.
pub const TAIL: f64 = 90.0;

/// The fewest samples beyond the tail percentile for a timing to count
/// as resolved.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Median and tail of one timing, with the sample counts that back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Samples strictly above `p90`.
    pub beyond_p90: usize,
}

impl Timing {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Timing> {
        if samples.is_empty() {
            return None;
        }
        let p90 = percentile(samples, TAIL);
        Some(Timing {
            n: samples.len(),
            p50: percentile(samples, 50.0),
            p90,
            p99: percentile(samples, 99.0),
            beyond_p90: samples.iter().filter(|&&s| s > p90).count(),
        })
    }

    /// Whether enough samples lie beyond the tail to trust `p90`.
    pub fn tail_resolved(&self) -> bool {
        self.beyond_p90 >= MIN_BEYOND_TAIL
    }

    /// One report line: `name p50 .. p90 .. (n=.., beyond p90=..)`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        format!(
            "{name}: p50 {:.4} {unit}, p90 {:.4} {unit}, p99 {:.4} {unit} (diagnostic) \
             (n={}, beyond p90={}{})",
            self.p50,
            self.p90,
            self.p99,
            self.n,
            self.beyond_p90,
            if self.tail_resolved() {
                ""
            } else {
                ", TAIL UNRESOLVED"
            }
        )
    }
}

/// Whether latency grew across a phase: the median of the last tenth of
/// requests (in send order) against the median of the first tenth. A
/// sustainable rate keeps them alike; above capacity the queue, and so
/// the latency, grows for as long as the phase lasts. `slack` absorbs
/// noise on very small latencies (same unit as the samples).
pub fn backlog_growing(in_send_order: &[f64], slack: f64) -> bool {
    let decile = in_send_order.len() / 10;
    if decile == 0 {
        return false;
    }
    let first = percentile(&in_send_order[..decile], 50.0);
    let last = percentile(&in_send_order[in_send_order.len() - decile..], 50.0);
    last > 1.5 * first + slack
}

/// The median, over `windows` equal runs of consecutive samples, of
/// each run's p90. One stall of a shared host spoils one window, not the
/// verdict; a sustained overload spoils them all. One window is the
/// plain p90.
pub fn windowed_p90(in_send_order: &[f64], windows: usize) -> f64 {
    let size = in_send_order.len().div_ceil(windows.max(1)).max(1);
    let p90s: Vec<f64> = in_send_order
        .chunks(size)
        .map(|w| percentile(w, TAIL))
        .collect();
    percentile(&p90s, 50.0)
}

/// What one rate-search probe observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeOutcome {
    pub rate: f64,
    pub sent: usize,
    /// Requests that got any answer, success or named error.
    pub answered: usize,
    /// Over every request sent, a failed one counting as infinite
    /// (see [`windowed_p90`]).
    pub p90: f64,
    pub backlog: bool,
    /// The generator fell behind its schedule, so the rate was not
    /// actually offered.
    pub client_limited: bool,
}

impl ProbeOutcome {
    /// A probe passes when every request was answered, p90 (failures
    /// counted as missing the limit) met the limit, the backlog did not
    /// grow and the rate was really offered.
    pub fn passes(&self, p90_limit: f64) -> bool {
        self.sent > 0
            && self.answered == self.sent
            && self.p90 <= p90_limit
            && !self.backlog
            && !self.client_limited
    }
}

/// Geometric search for the highest offered rate that passes.
///
/// It grows the rate by `growth` from the start until a probe fails,
/// then bisects (geometrically) between the highest pass and the lowest
/// fail until they are within `resolution` of each other. A failing
/// first probe makes it shrink instead.
#[derive(Debug, Clone)]
pub struct RateSearch {
    growth: f64,
    resolution: f64,
    next: f64,
    best_pass: Option<f64>,
    lowest_fail: Option<f64>,
}

impl RateSearch {
    pub fn new(start: f64, growth: f64, resolution: f64) -> Self {
        assert!(start > 0.0 && growth > 1.0 && resolution > 0.0);
        RateSearch {
            growth,
            resolution,
            next: start,
            best_pass: None,
            lowest_fail: None,
        }
    }

    /// The rate to probe next, or `None` once resolved.
    pub fn next_rate(&self) -> Option<f64> {
        match (self.best_pass, self.lowest_fail) {
            (Some(lo), Some(hi)) if hi / lo <= 1.0 + self.resolution => None,
            _ => Some(self.next),
        }
    }

    /// Fold in the verdict for the rate last returned by `next_rate`.
    pub fn record(&mut self, rate: f64, passed: bool) {
        if passed {
            self.best_pass = Some(self.best_pass.map_or(rate, |b| b.max(rate)));
        } else {
            self.lowest_fail = Some(self.lowest_fail.map_or(rate, |f| f.min(rate)));
        }
        self.next = match (self.best_pass, self.lowest_fail) {
            (Some(lo), Some(hi)) => (lo * hi).sqrt(),
            (Some(lo), None) => lo * self.growth,
            (None, Some(hi)) => hi / self.growth,
            (None, None) => unreachable!("a verdict was just recorded"),
        };
    }

    /// The highest rate that passed so far.
    pub fn best(&self) -> Option<f64> {
        self.best_pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_uses_nearest_rank_and_counts_the_tail() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Timing::of(&samples).unwrap();
        assert_eq!(t.n, 100);
        assert_eq!(t.p50, 50.0);
        assert_eq!(t.p90, 90.0);
        assert_eq!(t.p99, 99.0);
        assert_eq!(t.beyond_p90, 10);
        assert!(t.tail_resolved());
        // Nearest rank returns an observed sample, never an interpolation.
        let t = Timing::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.p50, 2.0);
        assert_eq!(t.beyond_p90, 0);
        assert!(!t.tail_resolved());
        assert!(Timing::of(&[]).is_none());
    }

    #[test]
    fn windowed_p90_ignores_one_bad_window() {
        let mut lat = vec![1.0; 500];
        for x in &mut lat[100..200] {
            *x = 50.0;
        }
        assert_eq!(windowed_p90(&lat, 1), 50.0);
        assert_eq!(windowed_p90(&lat, 5), 1.0);
        // Trouble that lasts through most windows still shows.
        for x in &mut lat[100..400] {
            *x = f64::INFINITY;
        }
        assert_eq!(windowed_p90(&lat, 5), f64::INFINITY);
    }

    #[test]
    fn steady_latency_is_not_a_backlog() {
        let steady: Vec<f64> = (0..500).map(|i| 5.0 + (i % 7) as f64 * 0.3).collect();
        assert!(!backlog_growing(&steady, 0.5));
    }

    #[test]
    fn linearly_growing_latency_is_a_backlog() {
        let growing: Vec<f64> = (0..500).map(|i| 5.0 + i as f64 * 0.2).collect();
        assert!(backlog_growing(&growing, 0.5));
    }

    #[test]
    fn slack_absorbs_jitter_on_tiny_latencies() {
        let mut tiny: Vec<f64> = vec![0.1; 100];
        for x in &mut tiny[90..] {
            *x = 0.3;
        }
        assert!(backlog_growing(&tiny, 0.0));
        assert!(!backlog_growing(&tiny, 0.5));
        assert!(!backlog_growing(&[1.0, 100.0], 0.0), "too few samples");
    }

    #[test]
    fn lost_requests_and_a_missed_limit_fail_the_probe() {
        let ok = ProbeOutcome {
            rate: 100.0,
            sent: 100,
            answered: 100,
            p90: 10.0,
            backlog: false,
            client_limited: false,
        };
        assert!(ok.passes(50.0));
        assert!(!ProbeOutcome { answered: 99, ..ok }.passes(50.0));
        assert!(!ProbeOutcome { p90: 51.0, ..ok }.passes(50.0));
        assert!(!ProbeOutcome {
            backlog: true,
            ..ok
        }
        .passes(50.0));
        assert!(!ProbeOutcome {
            client_limited: true,
            ..ok
        }
        .passes(50.0));
        assert!(!ProbeOutcome {
            sent: 0,
            answered: 0,
            ..ok
        }
        .passes(50.0));
    }

    /// Drive the search against a synthetic server whose capacity is
    /// `cap`, and return the result and the number of probes it took.
    fn search_against(cap: f64, start: f64) -> (Option<f64>, usize) {
        let mut s = RateSearch::new(start, 1.6, 0.04);
        let mut probes = 0;
        while let Some(rate) = s.next_rate() {
            probes += 1;
            assert!(probes < 64, "search must terminate");
            s.record(rate, rate <= cap);
        }
        (s.best(), probes)
    }

    #[test]
    fn search_brackets_capacity_within_resolution() {
        for (cap, start) in [
            (1000.0, 250.0),
            (73.0, 20.0),
            (5000.0, 5000.0),
            (900.0, 1000.0),
        ] {
            let (best, probes) = search_against(cap, start);
            let best = best.expect("a passing rate exists");
            assert!(best <= cap, "best {best} above capacity {cap}");
            assert!(best >= cap / 1.04, "best {best} too far below {cap}");
            assert!(probes <= 12, "{probes} probes for cap {cap}");
        }
    }

    #[test]
    fn search_shrinks_when_the_start_fails() {
        let (best, _) = search_against(10.0, 100.0);
        let best = best.unwrap();
        assert!((10.0 / 1.04..=10.0).contains(&best));
    }
}
