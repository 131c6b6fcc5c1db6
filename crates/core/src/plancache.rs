//! A bounded, concurrent compiled-plan cache.
//!
//! Compiling a query — regex → DFA → classification → determinized
//! composite byte tables — is the expensive, document-independent half
//! of serving a request.  A serving edge sees the same hot patterns over
//! and over; this cache lets every repeat skip determinization entirely
//! and share one immutable [`Query`] across however many connections and
//! worker threads are in flight.
//!
//! * **Keying.**  Entries are keyed by the same FNV-1a fingerprint
//!   family the checkpoint wire format already uses: a 64-bit hash of
//!   `(pattern bytes, alphabet symbols in letter order)`.  The full key
//!   is stored alongside each entry and verified on every hit, so a
//!   fingerprint collision can never serve the wrong plan — a colliding
//!   pattern simply bypasses the cache (compiled fresh, not inserted)
//!   and is counted in [`PlanCacheStats::collisions`].
//! * **Bounding.**  Capacity is fixed at construction.  Inserting into a
//!   full cache evicts the least-recently-used entry (hits and inserts
//!   both refresh recency).  A capacity of zero disables caching: every
//!   lookup compiles fresh and counts as a miss.
//! * **Concurrency.**  Lookups take one short mutex hold; compilation
//!   happens *outside* the lock, so a slow determinization never blocks
//!   other connections' hits.  Two threads racing on the same cold
//!   pattern may both compile it — both count as misses and the second
//!   insert simply wins; results are identical either way because
//!   compilation is deterministic.
//! * **Observability.**  Hit/miss/eviction/collision counters and an
//!   entry gauge are exported through the attached [`ObsHandle`]
//!   (`plan_cache_*`), and [`PlanCache::stats`] returns the same tallies
//!   for code that wants them without a registry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use st_automata::{compile_regex, Alphabet};
use st_obs::{Counter, Gauge, ObsHandle};

use crate::planner::CompiledQuery;
use crate::query::{Query, QueryError};
use crate::session::{alphabet_symbols, fnv_bytes, fnv_usize};

/// The FNV-1a fingerprint of a `(pattern, alphabet)` pair — the cache
/// key, and the stable identity a serving edge can log or shard by.
/// Same family as the checkpoint fingerprints: symbols are folded in
/// letter order, length-prefixed so `("ab","c")` and `("a","bc")`
/// cannot alias.
pub fn plan_fingerprint(pattern: &str, alphabet: &Alphabet) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    fnv_usize(&mut h, pattern.len());
    fnv_bytes(&mut h, pattern.as_bytes());
    for s in alphabet_symbols(alphabet) {
        fnv_usize(&mut h, s.len());
        fnv_bytes(&mut h, s.as_bytes());
    }
    h
}

/// Point-in-time counters of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled fresh (cold, raced, or capacity zero).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Lookups whose fingerprint matched a *different* stored key; the
    /// plan was compiled fresh and not cached.
    pub collisions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Entry {
    pattern: String,
    symbols: Vec<String>,
    query: Arc<Query>,
    /// Recency stamp: the cache-wide tick at last touch.
    touched: u64,
}

struct CacheMap {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// A bounded, LRU-evicting, fingerprint-keyed cache of compiled
/// [`Query`] plans.  Cheap to share: wrap it in an [`Arc`] and clone the
/// handle into every connection.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
    obs_hits: Counter,
    obs_misses: Counter,
    obs_evictions: Counter,
    obs_collisions: Counter,
    obs_entries: Gauge,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &s)
            .finish()
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` compiled plans (zero disables
    /// caching), recording nothing.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache::with_obs(capacity, &ObsHandle::disabled())
    }

    /// A cache whose counters are also exported through `obs` as
    /// `plan_cache_hits_total`, `plan_cache_misses_total`,
    /// `plan_cache_evictions_total`, `plan_cache_collisions_total`, and
    /// the `plan_cache_entries` gauge.
    pub fn with_obs(capacity: usize, obs: &ObsHandle) -> PlanCache {
        PlanCache {
            capacity,
            inner: Mutex::new(CacheMap {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            obs_hits: obs.counter("plan_cache_hits_total"),
            obs_misses: obs.counter("plan_cache_misses_total"),
            obs_evictions: obs.counter("plan_cache_evictions_total"),
            obs_collisions: obs.counter("plan_cache_collisions_total"),
            obs_entries: obs.gauge("plan_cache_entries"),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .map
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::SeqCst),
            collisions: self.collisions.load(Ordering::SeqCst),
            entries: self.len(),
        }
    }

    /// The plan of `pattern` as a query-set member
    /// ([`crate::queryset::QuerySet::from_plans`]): the plan of the
    /// cached [`Query`], looked up (and on a miss compiled and cached)
    /// exactly as [`Self::get_or_compile`] does.  A pattern whose query
    /// cannot fuse ([`QueryError::Engine`]) still makes a member — a set
    /// never fuses its members — so it is planned directly, uncached.
    ///
    /// # Errors
    ///
    /// [`QueryError::Pattern`] when the pattern does not compile.
    pub fn get_or_plan(
        &self,
        pattern: &str,
        alphabet: &Alphabet,
    ) -> Result<Arc<CompiledQuery>, QueryError> {
        match self.get_or_compile(pattern, alphabet) {
            Ok(query) => Ok(query.shared_plan()),
            Err(QueryError::Engine(_)) => {
                let dfa = compile_regex(pattern, alphabet)?;
                Ok(Arc::new(CompiledQuery::compile(&dfa)))
            }
            Err(e) => Err(e),
        }
    }

    /// The cached plan for `(pattern, alphabet)`, compiling and caching
    /// it on a miss.  The compile itself runs outside the cache lock.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the pattern does not compile; failures are
    /// never cached.
    pub fn get_or_compile(
        &self,
        pattern: &str,
        alphabet: &Alphabet,
    ) -> Result<Arc<Query>, QueryError> {
        let symbols = alphabet_symbols(alphabet);
        let fp = plan_fingerprint(pattern, alphabet);
        let mut collided = false;
        if self.capacity > 0 {
            let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.map.get_mut(&fp) {
                if e.pattern == pattern && e.symbols == symbols {
                    e.touched = tick;
                    let q = e.query.clone();
                    drop(inner);
                    self.hits.fetch_add(1, Ordering::SeqCst);
                    self.obs_hits.incr();
                    return Ok(q);
                }
                collided = true;
            }
        }
        // Miss (or collision, or caching disabled): compile fresh.
        let query = Arc::new(Query::compile(pattern, alphabet)?);
        if collided {
            self.collisions.fetch_add(1, Ordering::SeqCst);
            self.obs_collisions.incr();
        }
        self.misses.fetch_add(1, Ordering::SeqCst);
        self.obs_misses.incr();
        if self.capacity == 0 || collided {
            return Ok(query);
        }
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        // A racing thread may have inserted the same entry meanwhile;
        // keep whichever is in place and refresh its recency.
        match inner.map.entry(fp) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let e = o.get_mut();
                if e.pattern == pattern && e.symbols == symbols {
                    e.touched = tick;
                    let q = e.query.clone();
                    return Ok(q);
                }
                // A collision raced in under this fingerprint; leave it.
                return Ok(query);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Entry {
                    pattern: pattern.to_owned(),
                    symbols,
                    query: query.clone(),
                    touched: tick,
                });
            }
        }
        while inner.map.len() > self.capacity {
            // Evict the least recently touched entry.  Linear in the
            // (bounded, small) capacity — not worth an intrusive list.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| *k)
                .expect("map is non-empty while over capacity");
            inner.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::SeqCst);
            self.obs_evictions.incr();
        }
        self.obs_entries.set(inner.map.len() as i64);
        Ok(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_same_arc_and_counts() {
        let g = Alphabet::of_chars("ab");
        let cache = PlanCache::new(8);
        let a = cache.get_or_compile(".*a", &g).unwrap();
        let b = cache.get_or_compile(".*a", &g).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_alphabets_do_not_alias() {
        let cache = PlanCache::new(8);
        let a = cache
            .get_or_compile(".*a", &Alphabet::of_chars("ab"))
            .unwrap();
        let b = cache
            .get_or_compile(".*a", &Alphabet::of_chars("abc"))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_under_capacity_pressure() {
        let g = Alphabet::of_chars("abc");
        let cache = PlanCache::new(2);
        cache.get_or_compile(".*a", &g).unwrap();
        cache.get_or_compile(".*b", &g).unwrap();
        // Touch ".*a" so ".*b" is the LRU victim.
        cache.get_or_compile(".*a", &g).unwrap();
        cache.get_or_compile(".*c", &g).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        // ".*a" survived, ".*b" was evicted.
        assert_eq!(cache.stats().hits, 1);
        cache.get_or_compile(".*a", &g).unwrap();
        assert_eq!(cache.stats().hits, 2);
        cache.get_or_compile(".*b", &g).unwrap();
        assert_eq!(cache.stats().misses, 4, ".*b should have been evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let g = Alphabet::of_chars("ab");
        let cache = PlanCache::new(0);
        cache.get_or_compile(".*a", &g).unwrap();
        cache.get_or_compile(".*a", &g).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
    }

    #[test]
    fn bad_patterns_error_and_are_not_cached() {
        let g = Alphabet::of_chars("ab");
        let cache = PlanCache::new(8);
        assert!(cache.get_or_compile("(((", &g).is_err());
        assert!(cache.is_empty());
    }
}
