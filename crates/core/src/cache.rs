//! Bounded caches: the shared LRU store and the extraction cache.
//!
//! Every engine cache — compiled rules, extraction results, plans, and
//! whole answers — is one `Lru` store behind a lock, plus that
//! cache's own policy.
//!
//! The paper notes mappings "should not need substantial maintenance
//! after being created" and sources "do not normally change their
//! structures" — so extraction results are cacheable across queries.
//! [`ExtractionCache`] memoizes the raw value lists per `(source,
//! rule)`; a repeat query serves those attributes with zero simulated
//! network cost. Sources are immutable `Arc` snapshots, so entries only
//! go stale when a mutation swaps one: the mutation path drops exactly
//! that source's entries ([`ExtractionCache::invalidate_source`]), and
//! [`ExtractionCache::clear`] is the blunt operator refresh.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use s2s_obs::names;

use crate::mapping::AttributeMapping;

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped by the LRU capacity bound.
    pub evictions: u64,
}

/// The `s2s_obs` counters an [`Lru`] publishes to; invalidations go
/// unpublished when `invalidations` is `None`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LruNames {
    pub hits: &'static str,
    pub misses: &'static str,
    pub evictions: &'static str,
    pub invalidations: Option<&'static str>,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    /// Tick of the last touch; the smallest stamp is the LRU victim.
    stamp: AtomicU64,
}

/// A capacity-bounded map with least-recently-used eviction. It owns
/// the recency stamps (a global tick stored on each hit, so lookups
/// need only `&self` and a read lock) and the hit/miss/eviction/
/// invalidation counters with the `s2s_obs` names they publish.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    map: HashMap<K, Slot<V>>,
    capacity: usize,
    names: LruNames,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

/// Adds `n` to a process-wide counter (no-op while observability is off).
fn publish(name: &str, n: u64) {
    if s2s_obs::enabled() {
        s2s_obs::global().counter(name).add(n);
    }
}

impl<K: Clone + Eq + Hash, V> Lru<K, V> {
    /// An empty store holding at most `capacity` entries (min 1).
    pub(crate) fn new(capacity: usize, names: LruNames) -> Self {
        Lru {
            map: HashMap::new(),
            capacity: capacity.max(1),
            names,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit. An entry
    /// `usable` rejects (an expired answer) counts as a miss.
    pub(crate) fn get<Q>(&self, key: &Q, usable: impl FnOnce(&V) -> bool) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let hit = self.map.get(key).filter(|slot| usable(&slot.value));
        let (counter, name) = match hit {
            Some(slot) => {
                slot.stamp.store(self.tick.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
                (&self.hits, self.names.hits)
            }
            None => (&self.misses, self.names.misses),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        publish(name, 1);
        hit.map(|slot| &slot.value)
    }

    /// Whether `key` is present (no recency or counter change).
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Stores `value` under `key`. A new key meeting a full store first
    /// evicts the stalest entry (an O(n) scan, only at capacity).
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            let stalest = self.map.iter().min_by_key(|(_, s)| s.stamp.load(Ordering::Relaxed));
            if let Some(victim) = stalest.map(|(k, _)| k.clone()) {
                self.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                publish(self.names.evictions, 1);
            }
        }
        let stamp = AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed) + 1);
        self.map.insert(key, Slot { value, stamp });
    }

    /// Removes `key` if `expired` holds for its value, without counting
    /// an invalidation.
    pub(crate) fn remove_if<Q>(&mut self, key: &Q, expired: impl FnOnce(&V) -> bool)
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        if self.map.get(key).is_some_and(|slot| expired(&slot.value)) {
            self.map.remove(key);
        }
    }

    /// Drops every entry `keep` rejects, counting them as
    /// invalidations; returns how many were dropped.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|k, slot| keep(k, &slot.value));
        let dropped = before - self.map.len();
        self.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
        if let (true, Some(name)) = (dropped > 0, self.names.invalidations) {
            publish(name, dropped as u64);
        }
        dropped
    }

    /// Drops every entry (counted as invalidations); returns how many.
    pub(crate) fn clear(&mut self) -> usize {
        self.retain(|_, _| false)
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Hit/miss/eviction snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Entries dropped by [`Lru::retain`]/[`Lru::clear`] (distinct from
    /// LRU evictions).
    pub(crate) fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }
}

/// Cache key: source id, rule language, rule text, scenario.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    source: String,
    language: &'static str,
    rule: String,
    single_record: bool,
}

impl Key {
    fn of(mapping: &AttributeMapping) -> Self {
        Key {
            source: mapping.source().to_string(),
            language: mapping.rule().language(),
            rule: mapping.rule().text().to_string(),
            single_record: mapping.scenario() == crate::mapping::RecordScenario::SingleRecord,
        }
    }
}

/// A concurrent, LRU-bounded memo of extraction results.
#[derive(Debug)]
pub struct ExtractionCache {
    entries: RwLock<Lru<Key, Arc<Vec<String>>>>,
}

impl Default for ExtractionCache {
    fn default() -> Self {
        ExtractionCache::new()
    }
}

impl ExtractionCache {
    /// LRU capacity (distinct `(source, rule)` entries).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An empty cache.
    pub fn new() -> Self {
        let names = LruNames {
            hits: names::EXTRACTION_CACHE_HITS_TOTAL,
            misses: names::EXTRACTION_CACHE_MISSES_TOTAL,
            evictions: names::EXTRACTION_CACHE_EVICTIONS_TOTAL,
            invalidations: None,
        };
        ExtractionCache { entries: RwLock::new(Lru::new(Self::DEFAULT_CAPACITY, names)) }
    }

    /// Looks up the values for a mapping, refreshing its recency.
    pub fn get(&self, mapping: &AttributeMapping) -> Option<Arc<Vec<String>>> {
        self.entries.read().get(&Key::of(mapping), |_| true).cloned()
    }

    /// Stores the values for a mapping, evicting the least recently
    /// used entry if the cache is at capacity.
    pub fn insert(&self, mapping: &AttributeMapping, values: Vec<String>) {
        self.entries.write().insert(Key::of(mapping), Arc::new(values));
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry, returning how many were dropped.
    pub fn clear(&self) -> usize {
        self.entries.write().clear()
    }

    /// Drops exactly the entries extracted from `source`, returning how
    /// many were dropped. Entries for other sources keep serving.
    pub fn invalidate_source(&self, source: &str) -> usize {
        self.entries.write().retain(|k, _| k.source != source)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.entries.read().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{ExtractionRule, MappingModule, RecordScenario};
    use s2s_owl::Ontology;

    fn mapping(rule_text: &str, source: &str) -> AttributeMapping {
        let o = Ontology::builder("http://x.example/#")
            .class("A", None)
            .unwrap()
            .datatype_property("p", "A", "http://www.w3.org/2001/XMLSchema#string")
            .unwrap()
            .build()
            .unwrap();
        let mut m = MappingModule::new();
        m.register(
            &o,
            "thing.a.p".parse().unwrap(),
            ExtractionRule::TextRegex { pattern: rule_text.into(), group: 0 },
            source.into(),
            RecordScenario::MultiRecord,
        )
        .unwrap();
        let mapping = m.iter().next().unwrap().clone();
        mapping
    }

    const NAMES: LruNames = LruNames {
        hits: "s2s_test_lru_hits_total",
        misses: "s2s_test_lru_misses_total",
        evictions: "s2s_test_lru_evictions_total",
        invalidations: None,
    };

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = Lru::new(2, NAMES);
        lru.insert("a", 1);
        lru.insert("b", 2);
        // Touch `a` so `b` becomes the LRU victim.
        assert_eq!(lru.get("a", |_| true), Some(&1));
        lru.insert("c", 3);
        assert_eq!(lru.len(), 2);
        assert!(lru.get("b", |_| true).is_none());
        assert!(lru.get("a", |_| true).is_some());
        assert!(lru.get("c", |_| true).is_some());
        assert_eq!(lru.stats(), CacheStats { hits: 3, misses: 1, evictions: 1 });
    }

    #[test]
    fn lru_reinserting_existing_key_does_not_evict() {
        let mut lru = Lru::new(2, NAMES);
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("a", 10);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.stats().evictions, 0);
        assert_eq!(lru.get("a", |_| true), Some(&10));
    }

    #[test]
    fn lru_rejected_entry_is_a_miss_and_retain_counts_invalidations() {
        let mut lru = Lru::new(8, NAMES);
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            lru.insert(k, v);
        }
        assert!(lru.get("a", |v| *v > 1).is_none());
        assert_eq!((lru.stats().hits, lru.stats().misses), (0, 1));
        lru.remove_if("a", |v| *v == 1);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.invalidations(), 0, "expiry is not an invalidation");
        assert_eq!(lru.retain(|_, v| *v != 2), 1);
        assert_eq!(lru.clear(), 1);
        assert_eq!(lru.invalidations(), 2);
        assert_eq!(lru.clear(), 0);
    }

    #[test]
    fn miss_then_hit() {
        let cache = ExtractionCache::new();
        let m = mapping("x", "S");
        assert!(cache.get(&m).is_none());
        cache.insert(&m, vec!["a".into(), "b".into()]);
        assert_eq!(cache.get(&m).unwrap().as_slice(), ["a", "b"]);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_rules_and_sources_do_not_collide() {
        let cache = ExtractionCache::new();
        cache.insert(&mapping("x", "S1"), vec!["1".into()]);
        cache.insert(&mapping("x", "S2"), vec!["2".into()]);
        cache.insert(&mapping("y", "S1"), vec!["3".into()]);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&mapping("x", "S2")).unwrap().as_slice(), ["2"]);
    }

    #[test]
    fn clear_empties_and_reports_count() {
        let cache = ExtractionCache::new();
        cache.insert(&mapping("x", "S"), vec![]);
        assert!(!cache.is_empty());
        assert_eq!(cache.clear(), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.clear(), 0);
    }

    #[test]
    fn invalidate_source_is_surgical() {
        let cache = ExtractionCache::new();
        cache.insert(&mapping("x", "S1"), vec!["1".into()]);
        cache.insert(&mapping("y", "S1"), vec!["2".into()]);
        cache.insert(&mapping("x", "S2"), vec!["3".into()]);
        assert_eq!(cache.invalidate_source("S1"), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&mapping("x", "S2")).is_some());
        assert_eq!(cache.invalidate_source("S1"), 0);
        assert_eq!(cache.invalidate_source("unregistered"), 0);
    }
}
