//! The unified metrics registry: counters, gauges, and log-bucketed latency
//! histograms behind cheap cloneable handles.
//!
//! # Sharding and the overhead contract
//!
//! Counter and histogram state is sharded **per thread**: the first time a
//! thread touches a metric it registers one private [`Slot`] with the
//! registry and caches the `Arc` in a thread-local table. From then on the
//! hot path is an unsynchronized read-modify-write on the thread's own slot
//! (`Relaxed` load + store — a plain memory increment, no locked
//! instructions, no contention), guarded by a single relaxed atomic load of
//! the registry's enabled flag. The registry's mutex is taken only on
//! handle registration, first-touch slot creation, and
//! [`Registry::snapshot`], which merges every thread's shard into one
//! [`MetricsSnapshot`].
//!
//! When a thread exits, its shard retires: under the registry mutex, each
//! of its slots is folded into its metric's retired totals and dropped from
//! the metric's live list. Snapshots report retired plus live totals, so
//! every total stays exact, and a process that spawns a thread per
//! connection or per batch does not grow one slot per metric per thread it
//! ever ran.
//!
//! Counts written before a thread joins (or before any other
//! happens-before edge to the snapshotting thread) are merged exactly; a
//! snapshot raced against live writers may lag individual shards by the
//! increments still in flight, but never corrupts them — every counter is
//! single-writer.
//!
//! # Histogram buckets
//!
//! Histograms record `u64` nanoseconds into HDR-style log buckets: values
//! below 8 are exact, and every later bucket spans `1/8` of its octave, so
//! any recorded value lands in a bucket whose bounds are within ~6% of it.
//! Quantile extraction ([`HistogramSnapshot::quantile`]) is exact over the
//! bucketed distribution: the returned value is the representative of the
//! bucket holding the requested rank, clamped to the exact observed
//! min/max.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Sub-bucket resolution: 2³ = 8 buckets per octave.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` nanosecond range.
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// The log bucket a value lands in (HDR scheme: exact below 2³, then 8
/// sub-buckets per octave).
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    ((msb - SUB_BITS + 1) as usize * SUB) + ((v >> shift) as usize - SUB)
}

/// Inclusive lower bound of bucket `index`.
pub(crate) fn bucket_lower(index: usize) -> u64 {
    let octave = index / SUB;
    if octave == 0 {
        return index as u64;
    }
    ((SUB + index % SUB) as u64) << (octave - 1)
}

/// Width (number of representable values) of bucket `index`.
fn bucket_width(index: usize) -> u64 {
    let octave = index / SUB;
    if octave == 0 {
        1
    } else {
        1u64 << (octave - 1)
    }
}

/// Midpoint representative of bucket `index` (what quantiles report).
fn bucket_representative(index: usize) -> u64 {
    bucket_lower(index) + (bucket_width(index) - 1) / 2
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// One thread's private accumulator for one metric. Only the owning thread
/// writes (unsynchronized `Relaxed` load/store); the snapshotter only
/// reads.
struct Slot {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Slot {
    fn new(kind: Kind) -> Self {
        let buckets = match kind {
            Kind::Histogram => (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            _ => Box::default(),
        };
        Slot {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets,
        }
    }

    /// Owner-thread unsynchronized add (plain increment, no RMW atomics).
    #[inline]
    fn bump(cell: &AtomicU64, n: u64) {
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Folds `other`'s totals into this slot. Called with the registry
    /// mutex held, which serializes every writer of a retired slot.
    fn absorb(&self, other: &Slot) {
        Slot::bump(&self.count, other.count.load(Ordering::Relaxed));
        Slot::bump(&self.sum, other.sum.load(Ordering::Relaxed));
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            Slot::bump(mine, theirs.load(Ordering::Relaxed));
        }
    }
}

enum Store {
    /// Per-thread slots of the live threads, merged on snapshot with the
    /// totals of the threads that already exited (counters and
    /// histograms).
    Sharded { live: Vec<Arc<Slot>>, retired: Slot },
    /// One shared cell holding `f64` bits, last-write-wins (gauges).
    Gauge(Arc<AtomicU64>),
}

struct Metric {
    name: String,
    kind: Kind,
    store: Store,
}

struct Inner {
    metrics: Vec<Metric>,
    index: HashMap<String, usize>,
}

struct RegistryCore {
    /// Process-unique id keying the thread-local shard caches.
    id: u64,
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

/// A unified metrics registry. Cloning is cheap (`Arc`); all clones share
/// the same metrics. Most code uses the process-wide [`crate::global`]
/// registry through the [`crate::counter!`] / [`crate::histogram!`]
/// macros.
#[derive(Clone)]
pub struct Registry {
    core: Arc<RegistryCore>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

struct ThreadShard {
    registry: u64,
    /// The registry, to retire the slots into when the thread exits.
    core: Weak<RegistryCore>,
    slots: Vec<Option<Arc<Slot>>>,
}

impl Drop for ThreadShard {
    /// The owning thread is exiting: fold each of its slots into the
    /// metric's retired totals and drop it from the live list. A dropped
    /// registry has nothing to retire into.
    fn drop(&mut self) {
        let Some(core) = self.core.upgrade() else {
            return;
        };
        // Never panic in a thread-local destructor: a poisoned lock still
        // guards consistent slot lists (no code path panics mid-update).
        let mut inner = core
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (id, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            if let Store::Sharded { live, retired } = &mut inner.metrics[id].store {
                retired.absorb(slot);
                live.retain(|other| !Arc::ptr_eq(other, slot));
            }
        }
    }
}

thread_local! {
    static SHARDS: RefCell<Vec<ThreadShard>> = const { RefCell::new(Vec::new()) };
}

impl Registry {
    /// A fresh, enabled registry.
    pub fn new() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Registry {
            core: Arc::new(RegistryCore {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                enabled: AtomicBool::new(true),
                inner: Mutex::new(Inner {
                    metrics: Vec::new(),
                    index: HashMap::new(),
                }),
            }),
        }
    }

    /// The process-wide registry every instrumentation site reports to by
    /// default.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Whether instrumentation is live: the compile-time `obs` feature AND
    /// the runtime toggle. Disabled, every metric operation is one relaxed
    /// atomic load and a branch; without the feature it is constant-false
    /// and compiles away entirely.
    #[inline]
    pub fn enabled(&self) -> bool {
        cfg!(feature = "obs") && self.core.enabled.load(Ordering::Relaxed)
    }

    /// Flips the runtime toggle (metrics recorded while disabled are
    /// silently dropped; previously recorded values are kept).
    pub fn set_enabled(&self, on: bool) {
        self.core.enabled.store(on, Ordering::Relaxed);
    }

    fn register(&self, name: &str, kind: Kind) -> usize {
        let mut inner = self.core.inner.lock().expect("registry lock poisoned");
        if let Some(&id) = inner.index.get(name) {
            assert_eq!(
                inner.metrics[id].kind, kind,
                "metric {name:?} registered twice with different kinds"
            );
            return id;
        }
        let id = inner.metrics.len();
        let store = match kind {
            Kind::Gauge => Store::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
            _ => Store::Sharded {
                live: Vec::new(),
                retired: Slot::new(kind),
            },
        };
        inner.metrics.push(Metric {
            name: name.to_string(),
            kind,
            store,
        });
        inner.index.insert(name.to_string(), id);
        id
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            registry: self.clone(),
            id: self.register(name, Kind::Counter),
        }
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            registry: self.clone(),
            id: self.register(name, Kind::Histogram),
        }
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let id = self.register(name, Kind::Gauge);
        let inner = self.core.inner.lock().expect("registry lock poisoned");
        let Store::Gauge(cell) = &inner.metrics[id].store else {
            unreachable!("gauge ids always hold gauge stores")
        };
        Gauge {
            registry: self.clone(),
            cell: Arc::clone(cell),
        }
    }

    /// Runs `body` against the calling thread's slot for metric `id`,
    /// creating and registering the slot on this thread's first touch.
    fn with_slot(&self, id: usize, body: impl FnOnce(&Slot)) {
        SHARDS.with(|cell| {
            let mut shards = cell.borrow_mut();
            let shard = match shards.iter_mut().position(|s| s.registry == self.core.id) {
                Some(at) => &mut shards[at],
                None => {
                    shards.push(ThreadShard {
                        registry: self.core.id,
                        core: Arc::downgrade(&self.core),
                        slots: Vec::new(),
                    });
                    shards.last_mut().expect("just pushed")
                }
            };
            if shard.slots.len() <= id {
                shard.slots.resize(id + 1, None);
            }
            let slot = shard.slots[id].get_or_insert_with(|| {
                // First touch by this thread: create the private slot and
                // register it with the metric so snapshots see it (the only
                // lock on the metric hot path, paid once per thread).
                let mut inner = self.core.inner.lock().expect("registry lock poisoned");
                let metric = &mut inner.metrics[id];
                let slot = Arc::new(Slot::new(metric.kind));
                match &mut metric.store {
                    Store::Sharded { live, .. } => live.push(Arc::clone(&slot)),
                    Store::Gauge(_) => unreachable!("gauges never take thread slots"),
                }
                slot
            });
            body(slot);
        });
    }

    /// Merges every thread's shard into one serializable snapshot. Metrics
    /// are sorted by name; quantiles are computed at snapshot time.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.core.inner.lock().expect("registry lock poisoned");
        let mut snapshot = MetricsSnapshot::default();
        for metric in &inner.metrics {
            match (&metric.store, metric.kind) {
                (Store::Gauge(cell), _) => snapshot.gauges.push(GaugeSnapshot {
                    name: metric.name.clone(),
                    value: f64::from_bits(cell.load(Ordering::Relaxed)),
                }),
                (Store::Sharded { live, retired }, Kind::Counter) => {
                    let value = live
                        .iter()
                        .map(|s| &**s)
                        .chain([retired])
                        .map(|s| s.count.load(Ordering::Relaxed))
                        .fold(0u64, u64::wrapping_add);
                    snapshot.counters.push(CounterSnapshot {
                        name: metric.name.clone(),
                        value,
                    });
                }
                (Store::Sharded { live, retired }, _) => {
                    let (mut count, mut sum) = (0u64, 0u64);
                    let (mut min, mut max) = (u64::MAX, 0u64);
                    let mut buckets = vec![0u64; NUM_BUCKETS];
                    for slot in live.iter().map(|s| &**s).chain([retired]) {
                        count = count.wrapping_add(slot.count.load(Ordering::Relaxed));
                        sum = sum.wrapping_add(slot.sum.load(Ordering::Relaxed));
                        min = min.min(slot.min.load(Ordering::Relaxed));
                        max = max.max(slot.max.load(Ordering::Relaxed));
                        for (total, bucket) in buckets.iter_mut().zip(slot.buckets.iter()) {
                            *total = total.wrapping_add(bucket.load(Ordering::Relaxed));
                        }
                    }
                    let sparse = buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(index, &c)| BucketSnapshot {
                            lower_nanos: bucket_lower(index),
                            count: c,
                        })
                        .collect();
                    snapshot.histograms.push(finalize_histogram(
                        metric.name.clone(),
                        count,
                        sum,
                        if count == 0 { 0 } else { min },
                        max,
                        sparse,
                    ));
                }
            }
        }
        snapshot.counters.sort_by(|a, b| a.name.cmp(&b.name));
        snapshot.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        snapshot.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snapshot
    }
}

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter {
    registry: Registry,
    id: usize,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the calling thread's shard (unsynchronized increment;
    /// one relaxed atomic load when disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if !self.registry.enabled() {
            return;
        }
        self.registry.with_slot(self.id, |slot| {
            Slot::bump(&slot.count, n);
        });
    }
}

/// A last-write-wins gauge handle (stored as `f64`).
#[derive(Clone)]
pub struct Gauge {
    registry: Registry,
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if !self.registry.enabled() {
            return;
        }
        self.cell.store(value.to_bits(), Ordering::Relaxed);
    }
}

/// A log-bucketed latency histogram handle (values in nanoseconds).
#[derive(Clone)]
pub struct Histogram {
    registry: Registry,
    id: usize,
}

impl Histogram {
    /// Records one value, in nanoseconds.
    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        if !self.registry.enabled() {
            return;
        }
        self.registry.with_slot(self.id, |slot| {
            Slot::bump(&slot.buckets[bucket_index(nanos)], 1);
            Slot::bump(&slot.count, 1);
            Slot::bump(&slot.sum, nanos);
            if nanos < slot.min.load(Ordering::Relaxed) {
                slot.min.store(nanos, Ordering::Relaxed);
            }
            if nanos > slot.max.load(Ordering::Relaxed) {
                slot.max.store(nanos, Ordering::Relaxed);
            }
        });
    }

    /// Records one duration.
    #[inline]
    pub fn record(&self, duration: Duration) {
        self.record_nanos(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Times `body` and records its wall-clock duration.
    pub fn time<R>(&self, body: impl FnOnce() -> R) -> R {
        if !self.registry.enabled() {
            return body();
        }
        let start = Instant::now();
        let result = body();
        self.record(start.elapsed());
        result
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A merged, serializable view of every metric in a registry at one point
/// in time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// One counter's merged value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Sum across all thread shards.
    pub value: u64,
}

/// One gauge's last-written value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

/// One sparse histogram bucket.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketSnapshot {
    /// Inclusive lower bound of the bucket, in nanoseconds.
    pub lower_nanos: u64,
    /// Recorded values in the bucket.
    pub count: u64,
}

/// One histogram's merged distribution, with pre-extracted percentiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total recorded values.
    pub count: u64,
    /// Sum of all recorded values, in nanoseconds.
    pub sum_nanos: u64,
    /// Exact smallest recorded value (0 when empty).
    pub min_nanos: u64,
    /// Exact largest recorded value (0 when empty).
    pub max_nanos: u64,
    /// Median, in nanoseconds (bucket representative; see
    /// [`HistogramSnapshot::quantile`]).
    pub p50_nanos: f64,
    /// 95th percentile, in nanoseconds.
    pub p95_nanos: f64,
    /// 99th percentile, in nanoseconds.
    pub p99_nanos: f64,
    /// 99.9th percentile, in nanoseconds.
    pub p999_nanos: f64,
    /// Sparse nonzero buckets, ascending by lower bound.
    pub buckets: Vec<BucketSnapshot>,
}

fn finalize_histogram(
    name: String,
    count: u64,
    sum_nanos: u64,
    min_nanos: u64,
    max_nanos: u64,
    buckets: Vec<BucketSnapshot>,
) -> HistogramSnapshot {
    let mut snapshot = HistogramSnapshot {
        name,
        count,
        sum_nanos,
        min_nanos,
        max_nanos,
        p50_nanos: 0.0,
        p95_nanos: 0.0,
        p99_nanos: 0.0,
        p999_nanos: 0.0,
        buckets,
    };
    snapshot.p50_nanos = snapshot.quantile(0.50);
    snapshot.p95_nanos = snapshot.quantile(0.95);
    snapshot.p99_nanos = snapshot.quantile(0.99);
    snapshot.p999_nanos = snapshot.quantile(0.999);
    snapshot
}

impl HistogramSnapshot {
    /// Mean recorded value, in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: exact rank selection over the
    /// bucketed distribution, reporting the holding bucket's midpoint
    /// clamped to the observed min/max (so quantiles are within the bucket
    /// resolution — ~6% relative — of the true order statistic, and p0/p100
    /// are exact).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for bucket in &self.buckets {
            seen += bucket.count;
            if seen >= rank {
                let representative = bucket_representative(bucket_index(bucket.lower_nanos));
                return (representative.clamp(self.min_nanos, self.max_nanos)) as f64;
            }
        }
        self.max_nanos as f64
    }
}

impl MetricsSnapshot {
    /// The value of counter `name`, if present.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The value of gauge `name`, if present.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The difference `self − baseline`: counters and histogram buckets
    /// subtract by name (metrics absent from `baseline` pass through
    /// unchanged), gauges keep `self`'s value, and histogram percentiles
    /// are recomputed from the subtracted buckets. `min`/`max` stay
    /// cumulative (`self`'s values) — exact extremes of a window would need
    /// per-window recording. Used to scope the process-wide registry to one
    /// batch or bench section.
    pub fn delta(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let mut delta = MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| CounterSnapshot {
                    name: c.name.clone(),
                    value: c
                        .value
                        .saturating_sub(baseline.counter_value(&c.name).unwrap_or(0)),
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: Vec::new(),
        };
        for histogram in &self.histograms {
            let base = baseline.histogram(&histogram.name);
            let base_count = |lower: u64| -> u64 {
                base.and_then(|b| b.buckets.iter().find(|bk| bk.lower_nanos == lower))
                    .map_or(0, |bk| bk.count)
            };
            let buckets: Vec<BucketSnapshot> = histogram
                .buckets
                .iter()
                .map(|bucket| BucketSnapshot {
                    lower_nanos: bucket.lower_nanos,
                    count: bucket.count.saturating_sub(base_count(bucket.lower_nanos)),
                })
                .filter(|bucket| bucket.count > 0)
                .collect();
            delta.histograms.push(finalize_histogram(
                histogram.name.clone(),
                histogram.count.saturating_sub(base.map_or(0, |b| b.count)),
                histogram
                    .sum_nanos
                    .saturating_sub(base.map_or(0, |b| b.sum_nanos)),
                histogram.min_nanos,
                histogram.max_nanos,
                buckets,
            ));
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_eight_and_contiguous_above() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
        }
        // Every bucket's lower bound maps back to the bucket, and bucket
        // indexes are monotone in the value.
        let mut previous = 0;
        for v in [
            8u64,
            9,
            15,
            16,
            31,
            32,
            1000,
            1 << 20,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let index = bucket_index(v);
            assert!(index >= previous, "bucket index must be monotone");
            previous = index;
            assert!(bucket_lower(index) <= v);
            assert!(index + 1 >= NUM_BUCKETS || v < bucket_lower(index + 1));
            assert_eq!(bucket_index(bucket_lower(index)), index);
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn histogram_percentiles_are_exact_on_known_distributions() {
        let registry = Registry::new();
        let histogram = registry.histogram("latency");
        // 1..=1000: every percentile of the true distribution is known.
        for v in 1..=1000u64 {
            histogram.record_nanos(v);
        }
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("latency").unwrap();
        assert_eq!(h.count, 1000);
        assert_eq!(h.min_nanos, 1);
        assert_eq!(h.max_nanos, 1000);
        assert_eq!(h.sum_nanos, 500_500);
        // Bucket resolution is 1/8 of an octave: quantiles land within ~7%
        // of the true order statistic.
        for (q, exact) in [(0.50, 500.0), (0.95, 950.0), (0.99, 990.0), (0.999, 999.0)] {
            let measured = h.quantile(q);
            assert!(
                (measured - exact).abs() / exact < 0.07,
                "q{q}: measured {measured}, exact {exact}"
            );
        }
        assert_eq!(h.p50_nanos, h.quantile(0.50));
        // Total bucket mass equals the count.
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), 1000);
    }

    #[test]
    fn single_value_histogram_is_exact_everywhere() {
        let registry = Registry::new();
        let histogram = registry.histogram("latency");
        for _ in 0..10 {
            histogram.record_nanos(12_345);
        }
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("latency").unwrap();
        // One bucket; min == max clamps every quantile to the exact value.
        assert_eq!(h.p50_nanos, 12_345.0);
        assert_eq!(h.p999_nanos, 12_345.0);
    }

    #[test]
    fn concurrent_increments_merge_deterministically() {
        let registry = Registry::new();
        let counter = registry.counter("hits");
        let histogram = registry.histogram("latency");
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let counter = counter.clone();
                let histogram = histogram.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        counter.inc();
                        // Seeded per-thread values: the merged distribution
                        // is the same whatever the interleaving.
                        histogram.record_nanos((t as u64 * PER_THREAD + i) % 997 + 1);
                    }
                });
            }
        });
        // All writer threads joined: the snapshot must be exact.
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter_value("hits"),
            Some(THREADS as u64 * PER_THREAD)
        );
        let h = snapshot.histogram("latency").unwrap();
        assert_eq!(h.count, THREADS as u64 * PER_THREAD);
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), h.count);
        assert_eq!(h.min_nanos, 1);
        assert_eq!(h.max_nanos, 997);
        // Determinism: a second hammer over a fresh registry produces the
        // identical snapshot (same buckets, same percentiles).
        let registry2 = Registry::new();
        let counter2 = registry2.counter("hits");
        let histogram2 = registry2.histogram("latency");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let counter2 = counter2.clone();
                let histogram2 = histogram2.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        counter2.inc();
                        histogram2.record_nanos((t as u64 * PER_THREAD + i) % 997 + 1);
                    }
                });
            }
        });
        assert_eq!(snapshot, registry2.snapshot());
    }

    impl Registry {
        /// Number of live thread slots of metric `name`.
        fn live_slots(&self, name: &str) -> usize {
            let inner = self.core.inner.lock().unwrap();
            match &inner.metrics[inner.index[name]].store {
                Store::Sharded { live, .. } => live.len(),
                Store::Gauge(_) => 0,
            }
        }
    }

    #[test]
    fn exited_threads_retire_their_slots_and_keep_exact_totals() {
        let registry = Registry::new();
        let counter = registry.counter("hits");
        let histogram = registry.histogram("latency");
        const THREADS: u64 = 200;
        // One thread at a time: each exits before the next is spawned.
        for t in 0..THREADS {
            let counter = counter.clone();
            let histogram = histogram.clone();
            std::thread::spawn(move || {
                counter.add(t + 1);
                histogram.record_nanos(t + 1);
            })
            .join()
            .unwrap();
            assert_eq!(registry.live_slots("hits"), 0, "thread {t}'s slot retired");
            assert_eq!(registry.live_slots("latency"), 0);
        }
        // This thread stays live: its slot is merged alongside the retired
        // totals.
        counter.add(1000);
        assert_eq!(registry.live_slots("hits"), 1);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter_value("hits"),
            Some(THREADS * (THREADS + 1) / 2 + 1000)
        );
        let h = snapshot.histogram("latency").unwrap();
        assert_eq!(h.count, THREADS);
        assert_eq!(h.sum_nanos, THREADS * (THREADS + 1) / 2);
        assert_eq!((h.min_nanos, h.max_nanos), (1, THREADS));
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), THREADS);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let registry = Registry::new();
        let counter = registry.counter("hits");
        let histogram = registry.histogram("latency");
        let gauge = registry.gauge("depth");
        registry.set_enabled(false);
        counter.add(7);
        histogram.record_nanos(1000);
        gauge.set(3.5);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter_value("hits"), Some(0));
        assert_eq!(snapshot.histogram("latency").unwrap().count, 0);
        assert_eq!(snapshot.gauge_value("depth"), Some(0.0));
        // Re-enabling resumes recording without losing the registrations.
        registry.set_enabled(true);
        counter.inc();
        assert_eq!(registry.snapshot().counter_value("hits"), Some(1));
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let registry = Registry::new();
        let gauge = registry.gauge("queue_depth");
        gauge.set(4.0);
        gauge.set(2.0);
        assert_eq!(registry.snapshot().gauge_value("queue_depth"), Some(2.0));
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let registry = Registry::new();
        let counter = registry.counter("hits");
        let histogram = registry.histogram("latency");
        counter.add(5);
        histogram.record_nanos(100);
        let before = registry.snapshot();
        counter.add(3);
        for _ in 0..10 {
            histogram.record_nanos(200);
        }
        let delta = registry.snapshot().delta(&before);
        assert_eq!(delta.counter_value("hits"), Some(3));
        let h = delta.histogram("latency").unwrap();
        assert_eq!(h.count, 10);
        // The window only saw the value 200: its quantiles say so (within
        // bucket resolution).
        assert!((h.quantile(0.5) - 200.0).abs() / 200.0 < 0.07);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let registry = Registry::new();
        registry.histogram("latency");
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("latency").unwrap();
        assert_eq!((h.count, h.min_nanos, h.max_nanos), (0, 0, 0));
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    #[should_panic(expected = "registered twice with different kinds")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("metric");
        registry.histogram("metric");
    }
}
