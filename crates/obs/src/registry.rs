//! Metric registry: monotonic counters, last-write-wins gauges, and
//! fixed-bucket histograms with quantile summaries.
//!
//! Counters and histogram bucket counts are `AtomicU64`s reached through
//! a read lock, so concurrent recording from ds-par worker threads
//! never loses increments; the write lock is only taken to insert a
//! metric the first time its name is seen.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};
use serde_json::{Map, Value};

use crate::span::SpanStore;

/// Bucket layout for [`Registry::observe`]. The layout is fixed at the
/// histogram's first observation; later calls only need a matching name.
#[derive(Debug, Clone, Copy)]
pub enum Buckets {
    /// 20 linear buckets over `[0, 1]` — probabilities and rates.
    Unit,
    /// 1–2–5 log-spaced bounds from 100 ns to 100 s — durations, in
    /// seconds.
    DurationSecs,
    /// Caller-supplied ascending upper bounds.
    Custom(&'static [f64]),
}

impl Buckets {
    fn bounds(self) -> Vec<f64> {
        match self {
            Buckets::Unit => (1..=20).map(|i| i as f64 / 20.0).collect(),
            Buckets::DurationSecs => {
                let mut bounds = Vec::with_capacity(28);
                for exp in -7..=1 {
                    for mantissa in [1.0, 2.0, 5.0] {
                        bounds.push(mantissa * 10f64.powi(exp));
                    }
                }
                bounds.push(100.0);
                bounds
            }
            Buckets::Custom(bounds) => {
                assert!(
                    bounds.windows(2).all(|w| w[0] < w[1]),
                    "custom histogram bounds must be strictly ascending"
                );
                assert!(!bounds.is_empty(), "custom histogram bounds are empty");
                bounds.to_vec()
            }
        }
    }
}

/// Running min/max/sum, guarded by a tiny mutex (bucket counts stay
/// lock-free; these three can't be a single atomic).
struct Moments {
    sum: f64,
    min: f64,
    max: f64,
}

pub(crate) struct Histogram {
    /// Ascending upper bounds; bucket `i` holds values `<= bounds[i]`
    /// (and greater than the previous bound). One extra overflow bucket
    /// sits past the last bound.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` entries; the last is the overflow bucket.
    counts: Vec<AtomicU64>,
    moments: Mutex<Moments>,
}

impl Histogram {
    fn new(buckets: Buckets) -> Histogram {
        let bounds = buckets.bounds();
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            moments: Mutex::new(Moments {
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }),
        }
    }

    fn record(&self, value: f64) {
        let idx = self
            .bounds
            .partition_point(|&bound| bound < value)
            .min(self.counts.len() - 1);
        // Count under the moments lock so a concurrent summary never sees
        // a bucket count its min/max do not cover yet.
        let mut m = self.moments.lock();
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        m.sum += value;
        m.min = m.min.min(value);
        m.max = m.max.max(value);
    }

    /// Observations that landed in buckets lying entirely at or above
    /// `threshold` (bucket lower bound >= threshold). Resolution is the
    /// bucket layout: a threshold on a bucket bound is exact; one inside
    /// a bucket undercounts by at most that bucket's population. SLO
    /// budgets declare their limits on bucket bounds to stay exact.
    fn count_above(&self, threshold: f64) -> u64 {
        let mut total = 0;
        for (i, c) in self.counts.iter().enumerate() {
            let lower = if i == 0 {
                f64::NEG_INFINITY
            } else {
                self.bounds[i - 1]
            };
            if lower >= threshold {
                total += c.load(Ordering::Relaxed);
            }
        }
        total
    }

    fn summary(&self) -> HistogramSummary {
        let m = self.moments.lock();
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let (min, max, mean) = if count == 0 {
            (0.0, 0.0, 0.0)
        } else {
            (m.min, m.max, m.sum / count as f64)
        };
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut cumulative = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                cumulative += c;
                if cumulative >= rank {
                    // Report the bucket's upper bound, clamped to the
                    // observed range (a bound can lie past the max); the
                    // overflow bucket has none. `max`/`min` rather than
                    // `clamp`, which panics if only NaN was observed.
                    return self.bounds.get(i).map_or(max, |b| b.max(min).min(max));
                }
            }
            max
        };
        HistogramSummary {
            count,
            mean,
            min,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// Point-in-time digest of one histogram. Quantiles are upper bounds of
/// the bucket containing the rank, clamped to the observed range, so
/// `min <= p50 <= p90 <= p99 <= max` always holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl HistogramSummary {
    fn to_value(self) -> Value {
        let mut map = Map::new();
        map.insert("count".to_string(), Value::from(self.count));
        map.insert("mean".to_string(), Value::from(self.mean));
        map.insert("min".to_string(), Value::from(self.min));
        map.insert("max".to_string(), Value::from(self.max));
        map.insert("p50".to_string(), Value::from(self.p50));
        map.insert("p90".to_string(), Value::from(self.p90));
        map.insert("p99".to_string(), Value::from(self.p99));
        Value::Object(map)
    }
}

/// A self-contained metric registry. The process normally uses the one
/// behind [`crate::global`]; tests build their own to stay isolated.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, AtomicU64>>,
    gauges: RwLock<BTreeMap<String, AtomicU64>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    pub(crate) spans: SpanStore,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    pub fn counter_add(&self, name: &str, delta: u64) {
        {
            let counters = self.counters.read();
            if let Some(cell) = counters.get(name) {
                cell.fetch_add(delta, Ordering::Relaxed);
                return;
            }
        }
        let mut counters = self.counters.write();
        counters
            .entry(name.to_string())
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(delta, Ordering::Relaxed);
    }

    pub fn counter_get(&self, name: &str) -> u64 {
        self.counters
            .read()
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    pub fn gauge_set(&self, name: &str, value: f64) {
        let bits = value.to_bits();
        {
            let gauges = self.gauges.read();
            if let Some(cell) = gauges.get(name) {
                cell.store(bits, Ordering::Relaxed);
                return;
            }
        }
        let mut gauges = self.gauges.write();
        gauges
            .entry(name.to_string())
            .or_insert_with(|| AtomicU64::new(bits))
            .store(bits, Ordering::Relaxed);
    }

    pub fn gauge_get(&self, name: &str) -> Option<f64> {
        self.gauges
            .read()
            .get(name)
            .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
    }

    pub fn observe(&self, name: &str, value: f64, buckets: Buckets) {
        {
            let histograms = self.histograms.read();
            if let Some(h) = histograms.get(name) {
                h.record(value);
                return;
            }
        }
        let mut histograms = self.histograms.write();
        histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(buckets))
            .record(value);
    }

    pub fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        self.histograms.read().get(name).map(|h| h.summary())
    }

    /// Observations of `name` whose bucket lies entirely at or above
    /// `threshold`. `None` if the histogram doesn't exist. Exact when
    /// `threshold` is a bucket bound; see [`crate::declare_budget`].
    pub fn histogram_count_above(&self, name: &str, threshold: f64) -> Option<u64> {
        self.histograms
            .read()
            .get(name)
            .map(|h| h.count_above(threshold))
    }

    pub fn histogram_names(&self) -> Vec<String> {
        self.histograms.read().keys().cloned().collect()
    }

    pub fn counter_names(&self) -> Vec<String> {
        self.counters.read().keys().cloned().collect()
    }

    pub fn gauge_names(&self) -> Vec<String> {
        self.gauges.read().keys().cloned().collect()
    }

    /// `{counters, gauges, histograms, spans}` as a JSON value.
    pub fn snapshot(&self) -> Value {
        let mut root = Map::new();

        let counters: Map = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(v.load(Ordering::Relaxed))))
            .collect::<BTreeMap<_, _>>();
        root.insert("counters".to_string(), Value::Object(counters));

        let gauges: Map = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Value::from(f64::from_bits(v.load(Ordering::Relaxed))),
                )
            })
            .collect::<BTreeMap<_, _>>();
        root.insert("gauges".to_string(), Value::Object(gauges));

        let histograms: Map = self
            .histograms
            .read()
            .iter()
            .map(|(k, h)| (k.clone(), h.summary().to_value()))
            .collect::<BTreeMap<_, _>>();
        root.insert("histograms".to_string(), Value::Object(histograms));

        root.insert("spans".to_string(), self.spans.snapshot());
        Value::Object(root)
    }

    pub fn reset(&self) {
        self.counters.write().clear();
        self.gauges.write().clear();
        self.histograms.write().clear();
        self.spans.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let r = Registry::new();
        assert_eq!(r.counter_get("missing"), 0);
        r.counter_add("hits", 2);
        r.counter_add("hits", 3);
        assert_eq!(r.counter_get("hits"), 5);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = Registry::new();
        assert_eq!(r.gauge_get("x"), None);
        r.gauge_set("x", 1.5);
        r.gauge_set("x", -2.25);
        assert_eq!(r.gauge_get("x"), Some(-2.25));
    }

    #[test]
    fn unit_bucket_boundaries() {
        // Values exactly on a bound land in that bound's bucket
        // (bucket i holds values <= bounds[i]); values above the last
        // bound land in overflow and stretch only max, not quantiles'
        // bucket bounds below them.
        let r = Registry::new();
        for v in [0.0, 0.05, 0.05, 0.051, 1.0] {
            r.observe("p", v, Buckets::Unit);
        }
        let s = r.histogram_summary("p").unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 1.0);
        // rank(p50) = 3 -> third value (0.05) is in the [0, 0.05] bucket.
        assert_eq!(s.p50, 0.05);
        assert_eq!(s.p99, 1.0);
    }

    #[test]
    fn duration_bounds_are_ascending_and_cover_wide_range() {
        let bounds = Buckets::DurationSecs.bounds();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(bounds[0] <= 1e-7 + 1e-12);
        assert!(*bounds.last().unwrap() >= 100.0);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let r = Registry::new();
        r.observe("lat", 1_000_000.0, Buckets::DurationSecs);
        let s = r.histogram_summary("lat").unwrap();
        assert_eq!(s.p50, 1_000_000.0);
        assert_eq!(s.max, 1_000_000.0);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = Histogram::new(Buckets::Unit);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn custom_bounds_must_ascend() {
        let r = Registry::new();
        r.observe("bad", 1.0, Buckets::Custom(&[2.0, 1.0]));
    }

    #[test]
    fn count_above_sums_buckets_at_or_past_threshold() {
        let r = Registry::new();
        for v in [0.01, 0.04, 0.06, 0.12, 0.9] {
            r.observe("lat", v, Buckets::Unit); // bounds at 0.05 steps
        }
        // Threshold on a bound: exact. 0.06, 0.12, 0.9 live in buckets
        // whose lower bound >= 0.05; 0.01 and 0.04 live in [0, 0.05].
        assert_eq!(r.histogram_count_above("lat", 0.05), Some(3));
        assert_eq!(r.histogram_count_above("lat", 0.5), Some(1));
        assert_eq!(r.histogram_count_above("lat", 1.0), Some(0));
        assert_eq!(r.histogram_count_above("missing", 0.5), None);
    }

    #[test]
    fn snapshot_shape() {
        let r = Registry::new();
        r.counter_add("c", 1);
        r.gauge_set("g", 2.0);
        r.observe("h", 0.5, Buckets::Unit);
        let snap = r.snapshot();
        assert_eq!(
            snap.get("counters").unwrap().get("c").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            snap.get("gauges").unwrap().get("g").unwrap().as_f64(),
            Some(2.0)
        );
        let h = snap.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert!(snap.get("spans").is_some());
    }
}
