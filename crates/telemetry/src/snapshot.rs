//! Point-in-time copies of the registry, renderable as text or JSON.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use crate::metrics::{bucket_upper, registry, Hist, Metric, BUCKETS};

/// One histogram's state at snapshot time.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Number of observations, derived by summing the buckets — so the
    /// count always agrees with the bucket data even for a snapshot taken
    /// while writers are live.
    pub count: u64,
    /// Sum of all observed values (may trail `count` by in-flight writers;
    /// exact once they quiesce).
    pub sum: u64,
    /// Per-bucket observation counts; bucket 0 holds zeros, bucket `k ≥ 1`
    /// holds values in `[2^(k-1), 2^k)`.
    pub buckets: [u64; BUCKETS],
}

impl HistSnapshot {
    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The exclusive upper bound of the smallest bucket prefix holding at
    /// least `q` (0.0–1.0) of the observations — a log2-resolution quantile.
    /// `None` when the histogram is empty or the quantile lands in the
    /// overflow bucket.
    fn quantile_upper(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(k);
            }
        }
        None
    }
}

/// A point-in-time copy of every counter and histogram in the registry.
///
/// Individual values are read with relaxed loads, so each value is
/// internally consistent (never torn); a snapshot taken while writers are
/// live is a valid lower bound of each metric, and exact once they quiesce.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Whether the gate was on when the snapshot was taken.
    pub enabled: bool,
    counters: [u64; Metric::ALL.len()],
    hists: Vec<HistSnapshot>,
}

impl Snapshot {
    /// Copies the current state of the registry.
    pub fn take() -> Snapshot {
        let reg = registry();
        let counters = std::array::from_fn(|i| reg.counters[i].load(Ordering::Relaxed));
        let hists = reg
            .hists
            .iter()
            .map(|cell| {
                let buckets: [u64; BUCKETS] =
                    std::array::from_fn(|k| cell.buckets[k].load(Ordering::Relaxed));
                HistSnapshot {
                    count: buckets.iter().sum(),
                    sum: cell.sum.load(Ordering::Relaxed),
                    buckets,
                }
            })
            .collect();
        Snapshot {
            enabled: crate::enabled(),
            counters,
            hists,
        }
    }

    /// The value of one counter.
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric as usize]
    }

    /// One histogram's state.
    pub fn histogram(&self, hist: Hist) -> &HistSnapshot {
        &self.hists[hist as usize]
    }

    /// How many distinct metrics (counters or histograms) are non-zero.
    pub fn nonzero_metrics(&self) -> usize {
        let counters = Metric::ALL.iter().filter(|m| self.counter(**m) > 0).count();
        let hists = Hist::ALL.iter().filter(|h| self.histogram(**h).count > 0).count();
        counters + hists
    }

    /// Renders a rustc-style text report: aligned `name: value` lines for
    /// the non-zero counters, then one line per non-empty histogram with
    /// count, mean and the log2 p50/p99 upper bounds.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry snapshot ({})",
            if self.enabled { "enabled" } else { "disabled" }
        );
        let live: Vec<Metric> = Metric::ALL
            .iter()
            .copied()
            .filter(|m| self.counter(*m) > 0)
            .collect();
        let width = live.iter().map(|m| m.name().len()).max().unwrap_or(0);
        for m in &live {
            let _ = writeln!(out, "  {:<width$}  {}", m.name(), self.counter(*m));
        }
        if live.is_empty() {
            out.push_str("  (no non-zero counters)\n");
        }
        let mut any_hist = false;
        for h in Hist::ALL {
            let hs = self.histogram(h);
            if hs.count == 0 {
                continue;
            }
            any_hist = true;
            let p50 = hs
                .quantile_upper(0.50)
                .map_or_else(|| "overflow".to_string(), |u| format!("<{u}"));
            let p99 = hs
                .quantile_upper(0.99)
                .map_or_else(|| "overflow".to_string(), |u| format!("<{u}"));
            let _ = writeln!(
                out,
                "  {}: count={} mean={:.1} p50{} p99{}",
                h.name(),
                hs.count,
                hs.mean(),
                p50,
                p99
            );
        }
        if !any_hist {
            out.push_str("  (no histogram observations)\n");
        }
        out
    }

    /// Serialises the full snapshot as JSON: every counter (zero or not)
    /// under `"counters"`, every histogram under `"histograms"` with its
    /// derived count, sum and sparse `[lower_bound, n]` bucket pairs. This
    /// is the format of the `TELEMETRY_<name>.json` bench sidecars.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"enabled\": {},", self.enabled);
        out.push_str("  \"counters\": {\n");
        for (i, m) in Metric::ALL.iter().enumerate() {
            let comma = if i + 1 < Metric::ALL.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\": {}{comma}", m.name(), self.counter(*m));
        }
        out.push_str("  },\n");
        out.push_str("  \"histograms\": {\n");
        for (i, h) in Hist::ALL.iter().enumerate() {
            let hs = self.histogram(*h);
            let pairs: Vec<String> = hs
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(k, n)| {
                    // The lower bound of bucket 0 (zeros) and bucket 1
                    // (value 1) are 0 and 1; bucket k ≥ 1 starts at 2^(k-1).
                    let lower = if k == 0 { 0 } else { 1u64 << (k - 1) };
                    format!("[{lower}, {n}]")
                })
                .collect();
            let comma = if i + 1 < Hist::ALL.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    \"{}\": {{ \"count\": {}, \"sum\": {}, \"buckets\": [{}] }}{comma}",
                h.name(),
                hs.count,
                hs.sum,
                pairs.join(", ")
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{count, observe};

    #[test]
    fn snapshot_reflects_records_and_renders() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        count(Metric::EquivBfsRuns, 3);
        for v in [0u64, 1, 1, 5, 130] {
            observe(Hist::EquivBfsExplored, v);
        }
        let snap = Snapshot::take();
        assert_eq!(snap.counter(Metric::EquivBfsRuns), 3);
        let hs = snap.histogram(Hist::EquivBfsExplored);
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 137);
        assert_eq!(hs.buckets[0], 1); // the zero
        assert_eq!(hs.buckets[1], 2); // the ones
        assert_eq!(hs.buckets[3], 1); // 5 ∈ [4, 8)
        assert_eq!(hs.buckets[8], 1); // 130 ∈ [128, 256)
        assert!((hs.mean() - 27.4).abs() < 1e-9);
        assert_eq!(hs.quantile_upper(0.5), Some(2));
        assert_eq!(hs.quantile_upper(1.0), Some(256));
        assert_eq!(snap.nonzero_metrics(), 2);

        let text = snap.render();
        assert!(text.contains("equiv.bfs_runs"));
        assert!(text.contains("count=5"));

        let json = snap.to_json();
        assert!(json.contains("\"equiv.bfs_runs\": 3"));
        assert!(json.contains("\"count\": 5, \"sum\": 137"));
        assert!(json.contains("[128, 1]"));
        crate::set_enabled(false);
    }

    #[test]
    fn empty_snapshot_is_well_formed() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        crate::reset();
        let snap = Snapshot::take();
        assert_eq!(snap.nonzero_metrics(), 0);
        assert!(snap.render().contains("no non-zero counters"));
        let json = snap.to_json();
        // Every metric name must appear even when zero.
        for m in Metric::ALL {
            assert!(json.contains(m.name()), "missing {}", m.name());
        }
        for h in Hist::ALL {
            assert!(json.contains(h.name()), "missing {}", h.name());
        }
    }
}
