//! The metrics registry: monotonic counters, last-value gauges, and
//! fixed-bucket histograms.
//!
//! Registration (looking a metric up by name) takes a mutex on the
//! registry map — a cold path instrumentation sites hit once. The hot
//! path — `add`/`set`/`observe` — is lock-free: every handle is an
//! `Arc` around atomics, so the worker pool can hammer one
//! counter from every core without serializing. Handles from a
//! disabled [`crate::Telemetry`] carry no storage at all; their hot
//! path is a no-op branch.

use crate::series::{SeriesKind, TimeSeries, TimeSeriesCore, TimeSeriesSnapshot};
use crate::sketch::{Sketch, SketchCore, SketchSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter (what a disabled registry hands out).
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Adds `n` to the counter. Lock-free; no-op when disabled.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-value gauge (e.g. worker-pool size, items claimed).
#[derive(Debug, Clone)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// A no-op gauge.
    pub fn disabled() -> Self {
        Gauge(None)
    }

    /// Sets the gauge. Lock-free; no-op when disabled.
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `value` if it is higher than the current
    /// reading (a high-water mark).
    pub fn set_max(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// The current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Shared storage of one histogram: fixed upper-bound buckets plus an
/// overflow bucket, all atomics.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    /// Inclusive upper bounds, strictly increasing. An observation `v`
    /// lands in the first bucket with `v <= bound`; larger values land
    /// in the overflow bucket.
    pub(crate) bounds: Vec<f64>,
    /// One count per bound, plus the trailing overflow bucket
    /// (`counts.len() == bounds.len() + 1`).
    pub(crate) counts: Vec<AtomicU64>,
    /// Sum of all observations, stored as `f64` bits.
    pub(crate) sum_bits: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        HistogramCore {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn observe(&self, value: f64) {
        let idx = self.bounds.partition_point(|bound| value > *bound);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        // Lock-free f64 accumulation: CAS the bit pattern.
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Debug, Clone)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// A no-op histogram.
    pub fn disabled() -> Self {
        Histogram(None)
    }

    /// Records one observation. Lock-free; no-op when disabled.
    pub fn observe(&self, value: f64) {
        if let Some(core) = &self.0 {
            core.observe(value);
        }
    }

    /// Records a duration in milliseconds.
    pub fn observe_duration_ms(&self, duration: std::time::Duration) {
        self.observe(duration.as_secs_f64() * 1e3);
    }
}

/// The name → handle maps behind a recording [`crate::Telemetry`].
#[derive(Debug, Default)]
pub(crate) struct Registry {
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    gauges: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    histograms: Mutex<Vec<(String, Arc<HistogramCore>)>>,
    sketches: Mutex<Vec<(String, Arc<SketchCore>)>>,
    series: Mutex<Vec<(String, Arc<TimeSeriesCore>)>>,
}

fn intern<T>(slots: &Mutex<Vec<(String, Arc<T>)>>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    let mut slots = slots.lock().expect("metrics registry poisoned");
    if let Some((_, existing)) = slots.iter().find(|(n, _)| n == name) {
        return Arc::clone(existing);
    }
    let created = Arc::new(make());
    slots.push((name.to_string(), Arc::clone(&created)));
    created
}

impl Registry {
    pub(crate) fn counter(&self, name: &str) -> Counter {
        Counter(Some(intern(&self.counters, name, || AtomicU64::new(0))))
    }

    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        Gauge(Some(intern(&self.gauges, name, || AtomicU64::new(0))))
    }

    /// Registers (or re-fetches) a histogram. The first registration
    /// fixes the bucket bounds; later calls get the existing buckets
    /// regardless of the bounds they pass.
    pub(crate) fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        Histogram(Some(intern(&self.histograms, name, || HistogramCore::new(bounds))))
    }

    /// Registers (or re-fetches) a quantile sketch. The first
    /// registration fixes `alpha`.
    pub(crate) fn sketch(&self, name: &str, alpha: f64) -> Sketch {
        Sketch(Some(intern(&self.sketches, name, || SketchCore::new(alpha))))
    }

    /// Registers (or re-fetches) a time-series. The first registration
    /// fixes the kind and ring capacity.
    pub(crate) fn time_series(&self, name: &str, kind: SeriesKind, capacity: usize) -> TimeSeries {
        TimeSeries(Some(intern(&self.series, name, || TimeSeriesCore::new(kind, capacity))))
    }

    pub(crate) fn counter_snapshots(&self) -> Vec<CounterSnapshot> {
        let slots = self.counters.lock().expect("metrics registry poisoned");
        slots
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect()
    }

    pub(crate) fn gauge_snapshots(&self) -> Vec<GaugeSnapshot> {
        let slots = self.gauges.lock().expect("metrics registry poisoned");
        slots
            .iter()
            .map(|(name, cell)| GaugeSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect()
    }

    pub(crate) fn histogram_snapshots(&self) -> Vec<HistogramSnapshot> {
        let slots = self.histograms.lock().expect("metrics registry poisoned");
        slots
            .iter()
            .map(|(name, core)| {
                let counts: Vec<u64> =
                    core.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                HistogramSnapshot {
                    name: name.clone(),
                    bounds: core.bounds.clone(),
                    count: counts.iter().sum(),
                    sum: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
                    counts,
                }
            })
            .collect()
    }

    pub(crate) fn sketch_snapshots(&self) -> Vec<SketchSnapshot> {
        let slots = self.sketches.lock().expect("metrics registry poisoned");
        slots
            .iter()
            .map(|(name, core)| {
                let sketch = core.sketch.lock().expect("sketch poisoned").clone();
                SketchSnapshot {
                    name: name.clone(),
                    count: sketch.count(),
                    sum: sketch.sum(),
                    sketch,
                }
            })
            .collect()
    }

    pub(crate) fn series_snapshots(&self) -> Vec<TimeSeriesSnapshot> {
        let slots = self.series.lock().expect("metrics registry poisoned");
        slots.iter().map(|(name, core)| core.snapshot(name)).collect()
    }
}

/// A counter's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A gauge's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A histogram's buckets at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Inclusive bucket upper bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// One count per bound plus the trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Bucket-interpolated `q`-quantile (`q` in `[0, 1]`), `None` when
    /// empty.
    ///
    /// Uses the nearest-rank rule (`rank = ceil(q·count)` clamped to
    /// `[1, count]`), finds the bucket holding that rank, and
    /// interpolates linearly through it. The first bucket interpolates
    /// from `min(0, bounds[0])` (observations *under* the first bound
    /// have no recorded lower edge); ranks landing in the overflow
    /// bucket clamp to the last bound, the largest value the histogram
    /// can attest to. Fixed-bucket quantiles are coarse — the quantile
    /// sketch is the precise tool — but they let existing histograms
    /// report approximate percentiles in text reports.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &bucket_count) in self.counts.iter().enumerate() {
            let before = cum;
            cum += bucket_count;
            if cum < rank {
                continue;
            }
            let Some(&upper) = self.bounds.get(i) else {
                // Overflow bucket: no upper edge to interpolate toward.
                return self.bounds.last().copied();
            };
            let lower = if i == 0 { upper.min(0.0) } else { self.bounds[i - 1] };
            let frac = (rank - before) as f64 / bucket_count as f64;
            return Some(lower + frac * (upper - lower));
        }
        self.bounds.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reread() {
        let registry = Registry::default();
        let a = registry.counter("ingest.logs");
        let again = registry.counter("ingest.logs");
        a.add(3);
        again.incr();
        assert_eq!(a.value(), 4, "both handles share storage");
        assert_eq!(
            registry.counter_snapshots(),
            vec![CounterSnapshot { name: "ingest.logs".into(), value: 4 }]
        );
    }

    #[test]
    fn gauges_keep_the_last_value_and_high_water_mark() {
        let registry = Registry::default();
        let g = registry.gauge("pool.workers");
        g.set(8);
        g.set(4);
        assert_eq!(g.value(), 4);
        g.set_max(2);
        assert_eq!(g.value(), 4);
        g.set_max(16);
        assert_eq!(g.value(), 16);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let registry = Registry::default();
        let h = registry.histogram("latency", &[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 10.0, 99.9, 100.0, 1000.0] {
            h.observe(v);
        }
        let snap = registry.histogram_snapshots().remove(0);
        assert_eq!(snap.counts, vec![2, 2, 2, 1], "le-1, le-10, le-100, overflow");
        assert_eq!(snap.count, 7);
        assert!((snap.sum - 1216.4).abs() < 1e-9);
        assert!((snap.mean().unwrap() - 1216.4 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_increments_never_lose_updates() {
        let registry = Registry::default();
        let h = registry.histogram("hot", &[10.0]);
        let c = registry.counter("hot.count");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (h, c) = (h.clone(), c.clone());
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.observe((i % 20) as f64);
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
        let snap = registry.histogram_snapshots().remove(0);
        assert_eq!(snap.count, 8000);
        // Sum of 0..20 repeated: 8 threads × 50 reps × 190.
        assert!((snap.sum - 8.0 * 50.0 * 190.0).abs() < 1e-6);
    }

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::disabled();
        c.add(5);
        assert_eq!(c.value(), 0);
        let g = Gauge::disabled();
        g.set(5);
        assert_eq!(g.value(), 0);
        let h = Histogram::disabled();
        h.observe(5.0);
        assert!(h.0.is_none());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        HistogramCore::new(&[10.0, 1.0]);
    }

    #[test]
    fn histogram_quantile_interpolates_within_buckets() {
        let registry = Registry::default();
        let h = registry.histogram("latency", &[10.0, 20.0, 40.0]);
        // 10 observations in (10, 20]; ranks 1..=10 spread evenly.
        for i in 0..10 {
            h.observe(11.0 + i as f64);
        }
        let snap = registry.histogram_snapshots().remove(0);
        // rank = ceil(0.5 * 10) = 5 → 5/10 through (10, 20].
        assert_eq!(snap.quantile(0.5), Some(15.0));
        assert_eq!(snap.quantile(1.0), Some(20.0));
        // rank clamps to 1 → 1/10 through the bucket.
        assert_eq!(snap.quantile(0.0), Some(11.0));
    }

    #[test]
    fn histogram_quantile_handles_under_and_overflow_buckets() {
        let registry = Registry::default();
        let h = registry.histogram("latency", &[10.0, 20.0]);
        h.observe(2.0); // under the first bound
        h.observe(15.0);
        h.observe(99.0); // overflow
        h.observe(99.0); // overflow
        let snap = registry.histogram_snapshots().remove(0);
        // rank 1 lands in the first bucket, which interpolates from 0.
        assert_eq!(snap.quantile(0.25), Some(10.0));
        // rank 2 → fully through (10, 20].
        assert_eq!(snap.quantile(0.5), Some(20.0));
        // Overflow ranks clamp to the last bound.
        assert_eq!(snap.quantile(0.99), Some(20.0));
        assert_eq!(snap.quantile(1.0), Some(20.0));
    }

    #[test]
    fn histogram_quantile_is_none_when_empty() {
        let registry = Registry::default();
        registry.histogram("empty", &[1.0]);
        assert_eq!(registry.histogram_snapshots().remove(0).quantile(0.5), None);
    }
}
