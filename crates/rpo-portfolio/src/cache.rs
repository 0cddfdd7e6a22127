//! Canonical-hash LRU caches: solved Pareto fronts keyed by the full
//! `(chain, platform, bounds)` instance, and shared [`IntervalOracle`]s keyed
//! by `(chain, platform)` only — so near-duplicate instances (same chain and
//! platform, different bounds) reuse one oracle even when their fronts miss.

use crate::backend::ProblemInstance;
use crate::pareto::ParetoFront;
use rpo_model::{IntervalOracle, Platform, TaskChain};
use rpo_obs::Counter;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the portfolio.
    pub misses: u64,
    /// Entries evicted to respect the capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when the cache was never queried).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct LruEntry<T> {
    payload: T,
    last_used: u64,
}

/// The LRU machinery shared by both caches: a map from 64-bit canonical
/// hashes to payloads, with recency tracked by a lazy queue of `(tick, key)`
/// touches — eviction pops stale touches until it finds the genuinely
/// least-recently-used entry, giving amortized O(1) updates instead of an
/// O(capacity) scan. Payloads carry whatever exact-match data the wrapper
/// needs to rule out hash collisions (a collision degrades to a miss, never
/// a wrong answer).
struct LruCore<T> {
    capacity: usize,
    entries: HashMap<u64, LruEntry<T>>,
    /// Touch log: `(tick, key)`, oldest first; entries are stale when the
    /// keyed entry has a newer `last_used`.
    touches: VecDeque<(u64, u64)>,
    clock: u64,
    stats: CacheStats,
    /// Global `<family>.{hits,misses,evictions}` registry counters, bumped
    /// alongside the per-cache [`CacheStats`] (which engine-level accessors
    /// and tests keep reading unchanged).
    obs: ObsCounters,
}

/// Pre-resolved registry counters for one cache family.
struct ObsCounters {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl ObsCounters {
    fn new(family: &str) -> Self {
        let registry = rpo_obs::global();
        ObsCounters {
            hits: registry.counter(&format!("{family}.hits")),
            misses: registry.counter(&format!("{family}.misses")),
            evictions: registry.counter(&format!("{family}.evictions")),
        }
    }
}

impl<T> LruCore<T> {
    fn new(capacity: usize, family: &str) -> Self {
        LruCore {
            capacity,
            entries: HashMap::new(),
            touches: VecDeque::new(),
            clock: 0,
            stats: CacheStats::default(),
            obs: ObsCounters::new(family),
        }
    }

    /// Records a fresh touch for `key`. The keyed entry **must already be
    /// stored**: its `last_used` is updated *before* the touch log is
    /// compacted, so compaction can never drop the freshest touch of a live
    /// entry (that was the LRU-corruption bug found in the PR 1 review).
    fn touch(&mut self, key: u64) {
        self.clock += 1;
        let tick = self.clock;
        self.entries
            .get_mut(&key)
            .expect("touch is only called for stored entries")
            .last_used = tick;
        self.touches.push_back((tick, key));
        // Keep the touch log proportional to the live entry count so a long
        // streak of hits cannot grow it without bound (amortized O(1)).
        if self.touches.len() > 2 * self.entries.len() + 16 {
            let entries = &self.entries;
            self.touches
                .retain(|(tick, key)| entries.get(key).is_some_and(|e| e.last_used == *tick));
        }
    }

    /// Looks up `key`, verifying the payload against a structural equality
    /// check before counting a hit (and refreshing recency on one).
    fn get(&mut self, key: u64, matches: impl FnOnce(&T) -> bool) -> Option<&T> {
        let hit = self
            .entries
            .get(&key)
            .is_some_and(|entry| matches(&entry.payload));
        if hit {
            self.touch(key);
            self.stats.hits += 1;
            self.obs.hits.inc();
            self.entries.get(&key).map(|entry| &entry.payload)
        } else {
            self.stats.misses += 1;
            self.obs.misses.inc();
            None
        }
    }

    /// Stores `payload` under `key`, evicting the least recently used entry
    /// if the cache is full. No-op at capacity 0.
    fn put(&mut self, key: u64, payload: T) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.evict_lru();
        }
        // Insert first, then touch: touch keeps the entry's `last_used` and
        // the touch log consistent under compaction.
        self.entries.insert(
            key,
            LruEntry {
                payload,
                last_used: self.clock,
            },
        );
        self.touch(key);
    }

    /// Removes the least-recently-used entry by draining stale touches.
    fn evict_lru(&mut self) {
        while let Some((tick, key)) = self.touches.pop_front() {
            match self.entries.get(&key) {
                Some(entry) if entry.last_used == tick => {
                    self.entries.remove(&key);
                    self.stats.evictions += 1;
                    self.obs.evictions.inc();
                    return;
                }
                _ => continue, // stale touch: the entry was refreshed or evicted
            }
        }
    }
}

/// An LRU map from canonical instance hashes to solved Pareto fronts.
///
/// Keys are the 64-bit [`ProblemInstance::canonical_key`]; on lookup the
/// stored instance is compared structurally, so a hash collision degrades to
/// a miss instead of returning a wrong front.
///
/// Each entry remembers whether it holds a *raced* front (every applicable
/// backend ran) or a *dispatched* one (an exact backend certified the
/// optimum alone, so the front holds only its candidates). [`Self::get`]
/// answers with either kind; [`Self::get_raced`] — the lookup of callers
/// that want the full front — only with a raced one.
pub struct InstanceCache {
    core: LruCore<CachedFront>,
}

/// One stored front: the instance it solves (to rule out hash collisions),
/// the front, and whether it was raced.
struct CachedFront {
    instance: ProblemInstance,
    front: Arc<ParetoFront>,
    raced: bool,
}

impl InstanceCache {
    /// A cache holding at most `capacity` fronts (capacity 0 disables it).
    pub fn new(capacity: usize) -> Self {
        InstanceCache {
            core: LruCore::new(capacity, "cache.instance"),
        }
    }

    /// Looks up the front for `instance`, raced or dispatched, refreshing
    /// its recency on a hit. The returned `Arc` shares the stored front — no
    /// deep copy.
    pub fn get(&mut self, instance: &ProblemInstance) -> Option<Arc<ParetoFront>> {
        self.lookup(instance, false)
    }

    /// [`Self::get`] restricted to raced fronts: a dispatched entry counts
    /// as a miss.
    pub fn get_raced(&mut self, instance: &ProblemInstance) -> Option<Arc<ParetoFront>> {
        self.lookup(instance, true)
    }

    fn lookup(&mut self, instance: &ProblemInstance, raced_only: bool) -> Option<Arc<ParetoFront>> {
        self.core
            .get(instance.canonical_key(), |stored| {
                &stored.instance == instance && (stored.raced || !raced_only)
            })
            .map(|stored| Arc::clone(&stored.front))
    }

    /// Stores the raced front for `instance`, evicting the least recently
    /// used entry if the cache is full.
    pub fn put(&mut self, instance: &ProblemInstance, front: Arc<ParetoFront>) {
        self.store(instance, front, true);
    }

    /// Stores a dispatched front for `instance`. A raced front already
    /// stored for it is kept: it answers every caller.
    pub fn put_dispatched(&mut self, instance: &ProblemInstance, front: Arc<ParetoFront>) {
        let key = instance.canonical_key();
        let raced = self
            .core
            .entries
            .get(&key)
            .is_some_and(|entry| entry.payload.raced && &entry.payload.instance == instance);
        if !raced {
            self.store(instance, front, false);
        }
    }

    fn store(&mut self, instance: &ProblemInstance, front: Arc<ParetoFront>, raced: bool) {
        self.core.put(
            instance.canonical_key(),
            CachedFront {
                instance: instance.clone(),
                front,
                raced,
            },
        );
    }

    /// Current number of cached fronts.
    pub fn len(&self) -> usize {
        self.core.entries.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.core.entries.is_empty()
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.core.stats
    }
}

/// An LRU map from canonical `(chain, platform)` hashes to shared
/// [`IntervalOracle`]s.
///
/// The oracle is bound-independent derived data, so instances differing only
/// in their period/latency bounds — which miss the [`InstanceCache`] — still
/// share one oracle here: the batch driver pays the `O(n + p)` interval
/// precomputation once per distinct chain/platform pair instead of once per
/// solve.
pub struct OracleCache {
    core: LruCore<(TaskChain, Platform, Arc<IntervalOracle>)>,
}

impl OracleCache {
    /// A cache holding at most `capacity` oracles (capacity 0 disables it).
    pub fn new(capacity: usize) -> Self {
        OracleCache {
            core: LruCore::new(capacity, "cache.oracle"),
        }
    }

    /// The cached oracle for `instance`'s chain and platform, if present.
    pub fn get(&mut self, instance: &ProblemInstance) -> Option<Arc<IntervalOracle>> {
        self.core
            .get(instance.oracle_key(), |(chain, platform, _)| {
                chain == &instance.chain && platform == &instance.platform
            })
            .map(|(_, _, oracle)| Arc::clone(oracle))
    }

    /// Stores a freshly built oracle for `instance`'s chain and platform.
    pub fn put(&mut self, instance: &ProblemInstance, oracle: Arc<IntervalOracle>) {
        self.core.put(
            instance.oracle_key(),
            (instance.chain.clone(), instance.platform.clone(), oracle),
        );
    }

    /// The shared oracle for `instance`'s chain and platform: answered from
    /// the cache when present, freshly built (and stored) otherwise. Callers
    /// holding the cache behind a lock should prefer `get` + build + `put`
    /// so the `O(n + p)` construction happens outside the critical section.
    pub fn get_or_build(&mut self, instance: &ProblemInstance) -> Arc<IntervalOracle> {
        if let Some(oracle) = self.get(instance) {
            return oracle;
        }
        let oracle = instance.build_oracle();
        self.put(instance, Arc::clone(&oracle));
        oracle
    }

    /// Current number of cached oracles.
    pub fn len(&self) -> usize {
        self.core.entries.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.core.entries.is_empty()
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.core.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{Platform, TaskChain};

    fn instance(work: f64) -> ProblemInstance {
        let chain = TaskChain::from_pairs(&[(work, 1.0), (20.0, 0.0)]).unwrap();
        let platform = Platform::homogeneous(3, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap();
        ProblemInstance::unbounded(chain, platform)
    }

    fn empty_front() -> Arc<ParetoFront> {
        Arc::new(ParetoFront::new())
    }

    #[test]
    fn hit_after_put_miss_before() {
        let mut cache = InstanceCache::new(8);
        let a = instance(10.0);
        assert!(cache.get(&a).is_none());
        cache.put(&a, empty_front());
        assert!(cache.get(&a).is_some());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = InstanceCache::new(2);
        let (a, b, c) = (instance(1.0), instance(2.0), instance(3.0));
        cache.put(&a, empty_front());
        cache.put(&b, empty_front());
        assert!(cache.get(&a).is_some()); // refresh a: b is now coldest
        cache.put(&c, empty_front());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn repeated_refreshes_do_not_confuse_eviction() {
        let mut cache = InstanceCache::new(2);
        let (a, b, c) = (instance(1.0), instance(2.0), instance(3.0));
        cache.put(&a, empty_front());
        cache.put(&b, empty_front());
        // Touch `a` many times, leaving a pile of stale log entries.
        for _ in 0..10 {
            assert!(cache.get(&a).is_some());
        }
        cache.put(&c, empty_front()); // must evict b, not a
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&c).is_some());
    }

    #[test]
    fn hits_share_the_front_instead_of_copying() {
        let mut cache = InstanceCache::new(4);
        let a = instance(1.0);
        let front = empty_front();
        cache.put(&a, Arc::clone(&front));
        let hit = cache.get(&a).unwrap();
        assert!(Arc::ptr_eq(&front, &hit));
    }

    #[test]
    fn raced_lookups_never_see_a_dispatched_front() {
        let mut cache = InstanceCache::new(4);
        let a = instance(1.0);
        let dispatched = empty_front();
        cache.put_dispatched(&a, Arc::clone(&dispatched));
        assert!(cache.get_raced(&a).is_none());
        assert!(Arc::ptr_eq(&cache.get(&a).unwrap(), &dispatched));
        // A raced front replaces the dispatched one and answers both lookups.
        let raced = empty_front();
        cache.put(&a, Arc::clone(&raced));
        assert!(Arc::ptr_eq(&cache.get_raced(&a).unwrap(), &raced));
        // A later dispatched front never downgrades a raced entry.
        cache.put_dispatched(&a, empty_front());
        assert!(Arc::ptr_eq(&cache.get(&a).unwrap(), &raced));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = InstanceCache::new(0);
        let a = instance(1.0);
        cache.put(&a, empty_front());
        assert!(cache.get(&a).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn oracle_cache_shares_across_bound_variants() {
        let mut cache = OracleCache::new(8);
        let base = instance(10.0);
        let mut tighter = base.clone();
        tighter.period_bound = 35.0;
        // Different bounds → different instance keys, same oracle.
        assert_ne!(base.canonical_key(), tighter.canonical_key());
        let first = cache.get_or_build(&base);
        let second = cache.get_or_build(&tighter);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn oracle_cache_distinguishes_chains() {
        let mut cache = OracleCache::new(8);
        let a = cache.get_or_build(&instance(10.0));
        let b = cache.get_or_build(&instance(11.0));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_oracle_cache_still_builds() {
        let mut cache = OracleCache::new(0);
        let a = instance(10.0);
        let first = cache.get_or_build(&a);
        let second = cache.get_or_build(&a);
        assert!(!Arc::ptr_eq(&first, &second)); // rebuilt every time
        assert!(cache.is_empty());
    }
}
