//! The resident engine's query-level caches.
//!
//! The paper's mediator handles one query at a time; a resident,
//! concurrently shared [`crate::middleware::S2s`] adds two cache layers
//! *above* the extraction and compiled-rule caches:
//!
//! * [`PlanCache`] — memoizes the parse/validate/plan front half of
//!   query handling, keyed on [`crate::query::normalize`]d S2SQL text.
//!   LRU-bounded; each entry carries a [`DependencySet`] naming the
//!   sources its class was mapped to at plan time, and a mapping edit
//!   drops exactly the plans that named the edited source. (Plans are
//!   derived from the immutable ontology plus the query text alone, so
//!   the drop is a bounded hygiene measure, not a correctness
//!   requirement — a re-derived plan is always identical.)
//! * [`QueryResultCache`] — memoizes whole query answers (the
//!   [`InstanceSet`] plus the stats of the run that produced it),
//!   same normalized key, LRU + optional TTL in *simulated* time.
//!   Invalidation is **dependency-tracked**: each entry records the
//!   `(source, version)` set the producing run read, a data mutation or
//!   mapping edit drops only the entries whose dependency set
//!   intersects the change, and admission re-checks the recorded
//!   versions against a per-source invalidation floor so a query that
//!   raced a mutation can never install a stale answer. Registering a
//!   *new* source or attribute still clears wholesale — cached answers
//!   may be missing data the newcomer would have contributed, which no
//!   per-entry dependency set can see. Only complete, failure-free
//!   answers are admitted, so a degraded result is never replayed after
//!   the sources recover.
//!
//! Both caches key on the normalized text rather than the parsed query
//! so a hit skips the parser entirely; normalization is injective with
//! respect to the parser's token stream, so two queries share a key
//! only if the parser cannot tell them apart.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::RwLock;
use s2s_netsim::SimDuration;
use s2s_obs::names;

use crate::cache::{CacheStats, Lru, LruNames};
use crate::instance::InstanceSet;
use crate::middleware::QueryStats;
use crate::query::QueryPlan;

/// The `(source, version)` dependencies a cached artifact read,
/// captured under the registry read lock of the producing run.
///
/// Surgical invalidation intersects a mutation with these sets: an
/// entry is dropped only if it depends on the mutated source at a
/// version older than the mutation's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencySet {
    sources: BTreeMap<String, u64>,
}

impl DependencySet {
    /// An empty dependency set (depends on nothing; never dropped by
    /// targeted invalidation).
    pub fn new() -> Self {
        DependencySet::default()
    }

    /// Records that the artifact read `source` at data `version`.
    /// Re-recording keeps the *older* version: if a run somehow saw two
    /// versions, the entry must be dropped by any mutation after the
    /// first.
    pub fn record(&mut self, source: &str, version: u64) {
        self.sources
            .entry(source.to_string())
            .and_modify(|v| *v = (*v).min(version))
            .or_insert(version);
    }

    /// Whether the artifact read this source at all.
    pub fn depends_on(&self, source: &str) -> bool {
        self.sources.contains_key(source)
    }

    /// The version the artifact read this source at, if it did.
    pub fn version_of(&self, source: &str) -> Option<u64> {
        self.sources.get(source).copied()
    }

    /// Iterates the `(source, version)` pairs in source order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.sources.iter().map(|(s, v)| (s.as_str(), *v))
    }

    /// Number of sources depended on.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

#[derive(Debug)]
struct PlanEntry {
    plan: Arc<QueryPlan>,
    deps: DependencySet,
}

/// An LRU-bounded memo of validated query plans, keyed on normalized
/// S2SQL text. Parse/semantic errors are never cached: a bad query
/// re-reports its error each time.
#[derive(Debug)]
pub struct PlanCache {
    entries: RwLock<Lru<String, PlanEntry>>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// LRU capacity (distinct normalized query texts).
    pub const DEFAULT_CAPACITY: usize = 256;

    /// An empty cache.
    pub fn new() -> Self {
        let names = LruNames {
            hits: names::PLAN_CACHE_HITS_TOTAL,
            misses: names::PLAN_CACHE_MISSES_TOTAL,
            evictions: names::PLAN_CACHE_EVICTIONS_TOTAL,
            invalidations: Some(names::PLAN_CACHE_INVALIDATIONS_TOTAL),
        };
        PlanCache { entries: RwLock::new(Lru::new(Self::DEFAULT_CAPACITY, names)) }
    }

    /// Looks up the plan for a normalized query text.
    pub fn get(&self, key: &str) -> Option<Arc<QueryPlan>> {
        self.entries.read().get(key, |_| true).map(|e| Arc::clone(&e.plan))
    }

    /// Stores a plan together with the sources its class was mapped to
    /// at plan time, evicting the least recently used entry at
    /// capacity.
    pub fn insert(&self, key: String, plan: Arc<QueryPlan>, deps: DependencySet) {
        self.entries.write().insert(key, PlanEntry { plan, deps });
    }

    /// Drops every plan whose dependency set names `source`, returning
    /// how many were dropped. Called when a mapping edit touches the
    /// source; plans that never read it survive.
    pub fn invalidate_source(&self, source: &str) -> usize {
        self.entries.write().retain(|_, e| !e.deps.depends_on(source))
    }

    /// Entries dropped by targeted invalidation (distinct from LRU
    /// evictions).
    pub fn invalidations(&self) -> u64 {
        self.entries.read().invalidations()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.entries.read().stats()
    }
}

/// Sizing and freshness policy for a [`QueryResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultCacheConfig {
    /// Maximum cached answers (min 1).
    pub capacity: usize,
    /// Time-to-live in *simulated* time, measured against the engine's
    /// resilience clock; `None` disables expiry (mutation invalidation
    /// still applies).
    pub ttl: Option<SimDuration>,
}

impl Default for ResultCacheConfig {
    fn default() -> Self {
        ResultCacheConfig { capacity: 128, ttl: None }
    }
}

/// A cache hit: the answer plus the provenance of the run that
/// produced it.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The plan of the original run.
    pub plan: Arc<QueryPlan>,
    /// The answer of the original run.
    pub instances: Arc<InstanceSet>,
    /// The stats of the original (cache-miss) run, so a hit can report
    /// the completeness and task shape of the answer it replays.
    pub origin: QueryStats,
}

#[derive(Debug)]
struct ResultEntry {
    result: CachedResult,
    deps: DependencySet,
    inserted_at: SimDuration,
}

/// Entries plus the per-source invalidation floor, guarded by one lock
/// so admission checks and invalidations are atomic with respect to
/// each other (the floor is what makes the admission-time version check
/// race-free: a mutation first raises the floor, then drops entries;
/// an insert whose dependencies predate the floor is refused even if it
/// lands after the drop).
#[derive(Debug)]
struct ResultState {
    entries: Lru<String, ResultEntry>,
    /// Highest mutation version seen per source: inserts that read an
    /// older version of the source are stale and refused.
    floors: HashMap<String, u64>,
}

/// An LRU + TTL memo of whole query answers, keyed on normalized S2SQL
/// text. See the module docs for the admission and invalidation rules.
#[derive(Debug)]
pub struct QueryResultCache {
    state: RwLock<ResultState>,
    config: ResultCacheConfig,
}

impl Default for QueryResultCache {
    fn default() -> Self {
        QueryResultCache::new(ResultCacheConfig::default())
    }
}

impl QueryResultCache {
    /// An empty cache with the given policy.
    pub fn new(config: ResultCacheConfig) -> Self {
        let names = LruNames {
            hits: names::RESULT_CACHE_HITS_TOTAL,
            misses: names::RESULT_CACHE_MISSES_TOTAL,
            evictions: names::RESULT_CACHE_EVICTIONS_TOTAL,
            invalidations: Some(names::RESULT_CACHE_INVALIDATIONS_TOTAL),
        };
        let config = ResultCacheConfig { capacity: config.capacity.max(1), ..config };
        let entries = Lru::new(config.capacity, names);
        let state = RwLock::new(ResultState { entries, floors: HashMap::new() });
        QueryResultCache { state, config }
    }

    /// The active policy.
    pub fn config(&self) -> ResultCacheConfig {
        self.config
    }

    /// Looks up the cached answer for a normalized query text at
    /// simulated instant `now`. An entry past its TTL is dropped and
    /// counted as a miss.
    pub fn get(&self, key: &str, now: SimDuration) -> Option<CachedResult> {
        let fresh = |e: &ResultEntry| {
            self.config.ttl.is_none_or(|ttl| now.saturating_sub(e.inserted_at) < ttl)
        };
        let hit = self.state.read().entries.get(key, fresh).map(|e| e.result.clone());
        if hit.is_none() && self.config.ttl.is_some() {
            // Drop an expired entry. The check re-runs under the write
            // lock: a racing refresh may have replaced it.
            self.state.write().entries.remove_if(key, |e| !fresh(e));
        }
        hit
    }

    /// Stores an answer produced at simulated instant `now` together
    /// with the `(source, version)` dependencies the producing run
    /// read, evicting the least recently used entry at capacity. The
    /// caller enforces answer-quality admission (complete, failure-free
    /// answers only); *this* method enforces freshness admission: if
    /// any recorded dependency predates the per-source invalidation
    /// floor — a mutation landed while the query was in flight — the
    /// stale answer is refused and `false` is returned.
    pub fn insert(
        &self,
        key: String,
        plan: Arc<QueryPlan>,
        instances: Arc<InstanceSet>,
        origin: QueryStats,
        deps: DependencySet,
        now: SimDuration,
    ) -> bool {
        let mut state = self.state.write();
        let stale = deps
            .iter()
            .any(|(source, version)| state.floors.get(source).is_some_and(|f| version < *f));
        if !stale {
            let result = CachedResult { plan, instances, origin };
            state.entries.insert(key, ResultEntry { result, deps, inserted_at: now });
        }
        !stale
    }

    /// Drops every cached answer, returning how many were dropped — the
    /// fallback for mutations whose blast radius no dependency set can
    /// bound (registering a *new* source or attribute: existing answers
    /// may be missing data the newcomer would have contributed).
    pub fn invalidate_all(&self) -> usize {
        self.state.write().entries.clear()
    }

    /// Surgical invalidation for a mutation of `source` producing data
    /// `version`: raises the source's admission floor to `version`,
    /// then drops exactly the entries whose dependency set read the
    /// source at an older version. Entries that never read the source
    /// replay untouched. Returns how many entries were dropped.
    pub fn invalidate_source(&self, source: &str, version: u64) -> usize {
        let mut state = self.state.write();
        let floor = state.floors.entry(source.to_string()).or_insert(0);
        *floor = (*floor).max(version);
        state.entries.retain(|_, e| e.deps.version_of(source).is_none_or(|v| v >= version))
    }

    /// Drops every entry that read `source` at *any* version, without
    /// raising the admission floor — the mapping-edit path. The data
    /// version is unchanged (nothing at the source moved), but answers
    /// built under the displaced rule answer the wrong question.
    /// Registration holds `&mut S2s`, so no old-rule query can be in
    /// flight to race the drop. Returns how many entries were dropped.
    pub fn invalidate_dependents(&self, source: &str) -> usize {
        self.state.write().entries.retain(|_, e| !e.deps.depends_on(source))
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.state.read().entries.len()
    }

    /// Whether the cache holds no answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (hits, misses, LRU evictions).
    pub fn stats(&self) -> CacheStats {
        self.state.read().entries.stats()
    }

    /// Entries dropped by mutation invalidation (distinct from LRU
    /// evictions).
    pub fn invalidations(&self) -> u64 {
        self.state.read().entries.invalidations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use s2s_owl::Ontology;
    use s2s_rdf::Graph;

    fn plan_of(text: &str) -> Arc<QueryPlan> {
        let onto = Ontology::builder("http://example.org/schema#")
            .class("Watch", None)
            .unwrap()
            .datatype_property("price", "Watch", s2s_rdf::vocab::xsd::DECIMAL)
            .unwrap()
            .build()
            .unwrap();
        Arc::new(query::plan(&query::parse(text).unwrap(), &onto).unwrap())
    }

    fn answer() -> Arc<InstanceSet> {
        Arc::new(InstanceSet {
            graph: Graph::new(),
            individuals: Vec::new(),
            errors: Vec::new(),
            completeness: 1.0,
            round_trips: 0,
            cache_hits: 0,
        })
    }

    #[test]
    fn result_cache_ttl_expires_in_sim_time() {
        let cache = QueryResultCache::new(ResultCacheConfig {
            capacity: 8,
            ttl: Some(SimDuration::from_millis(100)),
        });
        let key = "SELECT watch";
        cache.insert(
            key.into(),
            plan_of(key),
            answer(),
            QueryStats::default(),
            DependencySet::new(),
            SimDuration::from_millis(10),
        );
        assert!(cache.get(key, SimDuration::from_millis(50)).is_some());
        // 10 + 100 = 110: expired, dropped, counted as a miss.
        assert!(cache.get(key, SimDuration::from_millis(110)).is_none());
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn result_cache_invalidation_counts_entries() {
        let cache = QueryResultCache::new(ResultCacheConfig::default());
        for text in ["SELECT a", "SELECT b", "SELECT c"] {
            cache.insert(
                text.into(),
                plan_of("SELECT watch"),
                answer(),
                QueryStats::default(),
                DependencySet::new(),
                SimDuration::ZERO,
            );
        }
        cache.invalidate_all();
        assert!(cache.is_empty());
        assert_eq!(cache.invalidations(), 3);
        // Idempotent: an empty invalidation adds nothing.
        cache.invalidate_all();
        assert_eq!(cache.invalidations(), 3);
    }

    #[test]
    fn result_cache_lru_evicts_at_capacity() {
        let cache = QueryResultCache::new(ResultCacheConfig { capacity: 2, ttl: None });
        let now = SimDuration::ZERO;
        let deps = DependencySet::new;
        cache.insert(
            "a".into(),
            plan_of("SELECT watch"),
            answer(),
            QueryStats::default(),
            deps(),
            now,
        );
        cache.insert(
            "b".into(),
            plan_of("SELECT watch"),
            answer(),
            QueryStats::default(),
            deps(),
            now,
        );
        assert!(cache.get("a", now).is_some());
        cache.insert(
            "c".into(),
            plan_of("SELECT watch"),
            answer(),
            QueryStats::default(),
            deps(),
            now,
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b", now).is_none());
        assert!(cache.get("a", now).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    fn deps_on(pairs: &[(&str, u64)]) -> DependencySet {
        let mut deps = DependencySet::new();
        for (s, v) in pairs {
            deps.record(s, *v);
        }
        deps
    }

    #[test]
    fn dependency_set_records_oldest_version() {
        let mut deps = DependencySet::new();
        deps.record("DB", 5);
        deps.record("DB", 3);
        deps.record("DB", 9);
        assert_eq!(deps.version_of("DB"), Some(3));
        assert!(deps.depends_on("DB"));
        assert!(!deps.depends_on("XML"));
        assert_eq!(deps.iter().collect::<Vec<_>>(), vec![("DB", 3)]);
    }

    #[test]
    fn result_invalidation_drops_only_dependent_entries() {
        let cache = QueryResultCache::new(ResultCacheConfig::default());
        let now = SimDuration::ZERO;
        let plan = plan_of("SELECT watch");
        let stats = QueryStats::default;
        cache.insert("q-db".into(), plan.clone(), answer(), stats(), deps_on(&[("DB", 0)]), now);
        cache.insert("q-xml".into(), plan.clone(), answer(), stats(), deps_on(&[("XML", 0)]), now);
        cache.insert(
            "q-both".into(),
            plan.clone(),
            answer(),
            stats(),
            deps_on(&[("DB", 0), ("XML", 0)]),
            now,
        );
        // Mutating DB to version 1 drops the two entries that read DB
        // at version 0; the XML-only entry survives and replays.
        assert_eq!(cache.invalidate_source("DB", 1), 2);
        assert!(cache.get("q-xml", now).is_some());
        assert!(cache.get("q-db", now).is_none());
        assert!(cache.get("q-both", now).is_none());
        assert_eq!(cache.invalidations(), 2);
        // An entry that already read the post-mutation version is kept.
        cache.insert("q-db2".into(), plan, answer(), stats(), deps_on(&[("DB", 1)]), now);
        assert_eq!(cache.invalidate_source("DB", 1), 0);
        assert!(cache.get("q-db2", now).is_some());
    }

    #[test]
    fn admission_floor_refuses_stale_insert() {
        let cache = QueryResultCache::new(ResultCacheConfig::default());
        let now = SimDuration::ZERO;
        let plan = plan_of("SELECT watch");
        // A mutation lands while a query that read DB@0 is in flight.
        cache.invalidate_source("DB", 1);
        assert!(
            !cache.insert(
                "late".into(),
                plan.clone(),
                answer(),
                QueryStats::default(),
                deps_on(&[("DB", 0)]),
                now
            ),
            "an answer that read the pre-mutation snapshot must be refused"
        );
        assert!(cache.get("late", now).is_none());
        // The same query re-run against the new snapshot is admitted.
        assert!(cache.insert(
            "late".into(),
            plan,
            answer(),
            QueryStats::default(),
            deps_on(&[("DB", 1)]),
            now
        ));
        assert!(cache.get("late", now).is_some());
    }

    #[test]
    fn ttl_and_dependency_invalidation_compose() {
        let cache = QueryResultCache::new(ResultCacheConfig {
            capacity: 8,
            ttl: Some(SimDuration::from_millis(100)),
        });
        let plan = plan_of("SELECT watch");
        let stats = QueryStats::default;
        let t0 = SimDuration::ZERO;
        cache.insert("a".into(), plan.clone(), answer(), stats(), deps_on(&[("DB", 0)]), t0);
        cache.insert("b".into(), plan.clone(), answer(), stats(), deps_on(&[("XML", 0)]), t0);
        // Dependency invalidation drops `a` well before its TTL.
        assert_eq!(cache.invalidate_source("DB", 1), 1);
        assert!(cache.get("a", SimDuration::from_millis(10)).is_none());
        assert!(cache.get("b", SimDuration::from_millis(10)).is_some());
        // TTL still expires the survivor even though no mutation ever
        // touched XML.
        assert!(cache.get("b", SimDuration::from_millis(150)).is_none());
        // And a post-expiry reinsert remains subject to the floor.
        assert!(!cache.insert(
            "a".into(),
            plan,
            answer(),
            stats(),
            deps_on(&[("DB", 0)]),
            SimDuration::from_millis(150)
        ));
    }

    #[test]
    fn plan_cache_invalidates_by_mapped_source() {
        let cache = PlanCache::new();
        cache.insert("q1".into(), plan_of("SELECT watch"), deps_on(&[("DB", 0)]));
        cache.insert("q2".into(), plan_of("SELECT watch"), deps_on(&[("XML", 0)]));
        cache.insert("q3".into(), plan_of("SELECT watch"), DependencySet::new());
        assert_eq!(cache.invalidate_source("DB"), 1);
        assert!(cache.get("q1").is_none());
        assert!(cache.get("q2").is_some());
        assert!(cache.get("q3").is_some(), "dep-free plans survive targeted drops");
        assert_eq!(cache.invalidations(), 1);
    }
}
