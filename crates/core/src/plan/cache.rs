//! A small LRU cache for prepared plans, keyed by `(query text,
//! EvalOptions)`.
//!
//! Hosts that see the same query text repeatedly (the GQL session, the
//! SQL/PGQ `GRAPH_TABLE` front-end, the server, the CLI REPL) use one of
//! these to skip parse, analysis, and compilation on replays without
//! holding prepared handles themselves. The cache is generic over the
//! cached value (the hosts all cache a [`super::Statement`]): a `HashMap`
//! from key to plan and recency stamp, plus a stamp-ordered index of the
//! keys, so finding the least-recently-used entry is `O(log n)`.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::eval::EvalOptions;

/// Default number of distinct (query, options) plans a session retains.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// Hit/miss counters and occupancy of a [`PlanLru`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including lookups of never-inserted keys).
    pub misses: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum entries retained.
    pub capacity: usize,
}

/// An LRU cache from `(query text, EvalOptions)` to a prepared plan.
///
/// The graph is not part of the key, so hosts whose graph mutates
/// underneath them (the server's `GraphJournal`) keep their plans across
/// commits. That is sound because a prepared plan is graph-independent:
/// it holds no statistics, and every execution re-costs its stage order,
/// start sets and joins against the graph it runs on.
///
/// ```
/// use gpml_core::eval::EvalOptions;
/// use gpml_core::plan::PlanLru;
///
/// let mut cache: PlanLru<String> = PlanLru::new(2);
/// let opts = EvalOptions::default();
/// assert!(cache.get("MATCH (x)", &opts).is_none()); // miss
/// cache.insert("MATCH (x)".into(), opts.clone(), "a plan".into());
/// assert!(cache.get("MATCH (x)", &opts).is_some()); // hit
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
/// ```
#[derive(Clone, Debug)]
pub struct PlanLru<V> {
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    /// Each entry's plan and recency stamp.
    entries: HashMap<(String, EvalOptions), (V, u64)>,
    /// Every entry's key under its stamp, oldest first.
    recency: BTreeMap<u64, (String, EvalOptions)>,
}

impl<V> Default for PlanLru<V> {
    fn default() -> PlanLru<V> {
        PlanLru::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl<V> PlanLru<V> {
    /// An empty cache retaining at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> PlanLru<V> {
        PlanLru {
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
        }
    }

    /// Looks up a plan, counting a hit or miss and refreshing recency.
    pub fn get(&mut self, query: &str, opts: &EvalOptions) -> Option<&V> {
        self.clock += 1;
        match self.entries.get_mut(&(query, opts) as &dyn Key) {
            Some((v, stamp)) => {
                self.hits += 1;
                if let Some(key) = self.recency.remove(stamp) {
                    self.recency.insert(self.clock, key);
                }
                *stamp = self.clock;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Counts a hit and refreshes recency when the plan is cached, as a
    /// hitting [`Self::get`] does; when it is not, counts nothing and
    /// returns `false`.
    pub fn touch(&mut self, query: &str, opts: &EvalOptions) -> bool {
        self.clock += 1;
        let Some((_, stamp)) = self.entries.get_mut(&(query, opts) as &dyn Key) else {
            return false;
        };
        self.hits += 1;
        if let Some(key) = self.recency.remove(stamp) {
            self.recency.insert(self.clock, key);
        }
        *stamp = self.clock;
        true
    }

    /// Inserts (or replaces) a plan, evicting the least recently used
    /// entry when the cache is full.
    pub fn insert(&mut self, query: String, opts: EvalOptions, plan: V) {
        self.clock += 1;
        let key = (query, opts);
        match self.entries.get(&key) {
            Some((_, stamp)) => {
                self.recency.remove(stamp);
            }
            None if self.entries.len() >= self.capacity => self.evict_oldest(),
            None => {}
        }
        self.recency.insert(self.clock, key.clone());
        self.entries.insert(key, (plan, self.clock));
    }

    /// Changes the capacity, evicting oldest entries if now over it.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.entries.len() > self.capacity {
            self.evict_oldest();
        }
    }

    fn evict_oldest(&mut self) {
        if let Some((_, key)) = self.recency.pop_first() {
            self.entries.remove(&key);
        }
    }

    /// Every `(query, options, plan)` entry, borrowed, most recently used
    /// first. Does not count as a lookup: hit/miss counters and recency
    /// stamps are untouched, so persistence sweeps do not skew the
    /// statistics they run alongside.
    pub fn by_recency(&self) -> Vec<(&str, &EvalOptions, &V)> {
        let keys = self.recency.values().rev();
        keys.filter_map(|key| Some((key.0.as_str(), &key.1, &self.entries.get(key)?.0)))
            .collect()
    }

    /// Hit/miss counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            len: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

/// A cache key seen as its parts, so the owned `(String, EvalOptions)`
/// key of an entry and a borrowed `(&str, &EvalOptions)` lookup hash and
/// compare alike: a lookup allocates nothing.
trait Key {
    fn parts(&self) -> (&str, &EvalOptions);
}

impl Key for (String, EvalOptions) {
    fn parts(&self) -> (&str, &EvalOptions) {
        (&self.0, &self.1)
    }
}

impl Key for (&str, &EvalOptions) {
    fn parts(&self) -> (&str, &EvalOptions) {
        (self.0, self.1)
    }
}

impl<'a> Borrow<dyn Key + 'a> for (String, EvalOptions) {
    fn borrow(&self) -> &(dyn Key + 'a) {
        self
    }
}

/// Hashes like the owned tuple: `String` and `&str` hash alike.
impl Hash for dyn Key + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn Key + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn Key + '_ {}

/// A thread-safe, clonable sharing layer over a [`PlanLru`].
///
/// Every clone refers to the *same* underlying cache, so any number of
/// sessions (or server connection threads) preparing the same skeleton
/// pay one compile between them: the first preparer misses and inserts,
/// every later one — on any thread — hits. Lock scopes are per-operation
/// and never held across parse or execution, and a poisoned lock is
/// survived (cache operations do not panic, but a panicking sibling
/// thread must not disable caching for everyone else).
///
/// ```
/// use gpml_core::plan::SharedPlanLru;
///
/// let shared: SharedPlanLru<String> = SharedPlanLru::new(8);
/// let opts = gpml_core::eval::EvalOptions::default();
/// let sibling = shared.clone(); // same cache, different handle
/// shared.insert("MATCH (x)".into(), opts.clone(), "a plan".into());
/// assert_eq!(sibling.get_cloned("MATCH (x)", &opts).as_deref(), Some("a plan"));
/// assert_eq!(shared.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct SharedPlanLru<V> {
    inner: Arc<Mutex<PlanLru<V>>>,
}

impl<V> Clone for SharedPlanLru<V> {
    fn clone(&self) -> SharedPlanLru<V> {
        SharedPlanLru {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V> Default for SharedPlanLru<V> {
    fn default() -> SharedPlanLru<V> {
        SharedPlanLru::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl<V> SharedPlanLru<V> {
    /// A new shared cache retaining at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> SharedPlanLru<V> {
        SharedPlanLru {
            inner: Arc::new(Mutex::new(PlanLru::new(capacity))),
        }
    }

    /// The locked underlying cache, surviving poisoning. Hold the guard
    /// only for cache operations, never across compilation or execution.
    pub fn lock(&self) -> MutexGuard<'_, PlanLru<V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a plan by value, counting a hit or miss.
    pub fn get_cloned(&self, query: &str, opts: &EvalOptions) -> Option<V>
    where
        V: Clone,
    {
        self.lock().get(query, opts).cloned()
    }

    /// A cached plan by value, without counting a lookup or refreshing
    /// recency. With [`Self::touch`] it splits [`Self::get_cloned`] for a
    /// caller that decides from the plan itself whether its lookup counts.
    pub fn peek_cloned(&self, query: &str, opts: &EvalOptions) -> Option<V>
    where
        V: Clone,
    {
        let lru = self.lock();
        let (v, _) = lru.entries.get(&(query, opts) as &dyn Key)?;
        Some(v.clone())
    }

    /// [`PlanLru::touch`]: counts a hit if the plan is (still) cached.
    pub fn touch(&self, query: &str, opts: &EvalOptions) -> bool {
        self.lock().touch(query, opts)
    }

    /// Inserts (or replaces) a plan, evicting the LRU entry when full.
    pub fn insert(&self, query: String, opts: EvalOptions, plan: V) {
        self.lock().insert(query, opts, plan);
    }

    /// The cached plan for `(query, opts)`, or else the one `compile`
    /// builds, inserted before it is returned: one lookup, at most one
    /// compile, and the lock is not held while compiling. A failed
    /// compile is not cached.
    pub fn get_or_try_insert<E>(
        &self,
        query: &str,
        opts: &EvalOptions,
        compile: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E>
    where
        V: Clone,
    {
        if let Some(hit) = self.get_cloned(query, opts) {
            return Ok(hit);
        }
        let plan = compile()?;
        self.insert(query.to_owned(), opts.clone(), plan.clone());
        Ok(plan)
    }

    /// Changes the capacity, evicting oldest entries if now over it.
    pub fn set_capacity(&self, capacity: usize) {
        self.lock().set_capacity(capacity);
    }

    /// Hit/miss counters and occupancy, aggregated across every holder of
    /// a clone of this cache.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> EvalOptions {
        EvalOptions::default()
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut lru: PlanLru<u32> = PlanLru::new(4);
        assert!(lru.get("q1", &opts()).is_none());
        lru.insert("q1".into(), opts(), 1);
        assert_eq!(lru.get("q1", &opts()), Some(&1));
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.len, s.capacity), (1, 1, 1, 4));
    }

    #[test]
    fn peek_counts_nothing_and_touch_counts_a_hit() {
        let shared: SharedPlanLru<u32> = SharedPlanLru::new(2);
        assert!(shared.peek_cloned("a", &opts()).is_none());
        assert!(!shared.touch("a", &opts()));
        shared.insert("a".into(), opts(), 1);
        shared.insert("b".into(), opts(), 2);
        assert_eq!(shared.peek_cloned("a", &opts()), Some(1));
        let s = shared.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        // A touch refreshes recency: "b" is now the oldest and goes first.
        assert!(shared.touch("a", &opts()));
        shared.insert("c".into(), opts(), 3);
        assert!(shared.peek_cloned("b", &opts()).is_none());
        assert_eq!(shared.stats().hits, 1);
    }

    #[test]
    fn options_are_part_of_the_key() {
        let mut lru: PlanLru<u32> = PlanLru::new(4);
        lru.insert("q".into(), opts(), 1);
        let other = EvalOptions {
            max_matches: 10,
            ..opts()
        };
        assert!(lru.get("q", &other).is_none());
        lru.insert("q".into(), other.clone(), 2);
        assert_eq!(lru.get("q", &opts()), Some(&1));
        assert_eq!(lru.get("q", &other), Some(&2));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru: PlanLru<u32> = PlanLru::new(2);
        lru.insert("a".into(), opts(), 1);
        lru.insert("b".into(), opts(), 2);
        assert_eq!(lru.get("a", &opts()), Some(&1)); // refresh a
        lru.insert("c".into(), opts(), 3); // evicts b
        assert_eq!(lru.get("a", &opts()), Some(&1));
        assert!(lru.get("b", &opts()).is_none());
        assert_eq!(lru.get("c", &opts()), Some(&3));
        assert_eq!(lru.stats().len, 2);
    }

    #[test]
    fn capacity_knob_shrinks() {
        let mut lru: PlanLru<u32> = PlanLru::new(8);
        for i in 0..6 {
            lru.insert(format!("q{i}"), opts(), i);
        }
        lru.set_capacity(2);
        assert_eq!(lru.stats().len, 2);
        assert_eq!(lru.stats().capacity, 2);
        // Newest entries survive.
        assert_eq!(lru.get("q5", &opts()), Some(&5));
        assert_eq!(lru.get("q4", &opts()), Some(&4));
    }

    #[test]
    fn shared_cache_is_one_cache_across_clones_and_threads() {
        let shared: SharedPlanLru<u32> = SharedPlanLru::new(4);
        let clones: Vec<SharedPlanLru<u32>> = (0..8).map(|_| shared.clone()).collect();
        std::thread::scope(|scope| {
            for (i, c) in clones.iter().enumerate() {
                scope.spawn(move || {
                    // Everyone races to prepare the same "query".
                    if c.get_cloned("q", &opts()).is_none() {
                        c.insert("q".into(), opts(), i as u32);
                    }
                });
            }
        });
        let stats = shared.stats();
        assert_eq!(stats.len, 1, "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 8, "{stats:?}");
        assert!(shared.get_cloned("q", &opts()).is_some());
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let shared: SharedPlanLru<u32> = SharedPlanLru::new(4);
        let failed = shared.get_or_try_insert("bad", &opts(), || Err("parse error"));
        assert_eq!(failed, Err("parse error"));
        assert_eq!(shared.stats().len, 0);
        let ok = shared.get_or_try_insert("good", &opts(), || Ok::<_, &str>(7));
        assert_eq!(ok, Ok(7));
        let hit = shared.get_or_try_insert("good", &opts(), || Err("not compiled"));
        assert_eq!(hit, Ok(7));
        assert_eq!(shared.stats().len, 1);
    }

    #[test]
    fn replacing_does_not_evict() {
        let mut lru: PlanLru<u32> = PlanLru::new(2);
        lru.insert("a".into(), opts(), 1);
        lru.insert("b".into(), opts(), 2);
        lru.insert("a".into(), opts(), 10);
        assert_eq!(lru.get("a", &opts()), Some(&10));
        assert_eq!(lru.get("b", &opts()), Some(&2));
    }

    /// The obvious LRU: a list kept in recency order, oldest first.
    struct NaiveLru {
        capacity: usize,
        hits: u64,
        misses: u64,
        entries: Vec<((String, EvalOptions), u32)>,
    }

    impl NaiveLru {
        fn get(&mut self, key: &(String, EvalOptions)) -> Option<u32> {
            let Some(i) = self.entries.iter().position(|(k, _)| k == key) else {
                self.misses += 1;
                return None;
            };
            self.hits += 1;
            let entry = self.entries.remove(i);
            self.entries.push(entry);
            self.entries.last().map(|(_, v)| *v)
        }

        fn insert(&mut self, key: (String, EvalOptions), v: u32) {
            if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
                self.entries.remove(i);
            } else if self.entries.len() >= self.capacity {
                self.entries.remove(0);
            }
            self.entries.push((key, v));
        }

        fn set_capacity(&mut self, capacity: usize) {
            self.capacity = capacity.max(1);
            while self.entries.len() > self.capacity {
                self.entries.remove(0);
            }
        }
    }

    #[test]
    fn agrees_with_a_naive_lru_on_random_operations() {
        let other = EvalOptions {
            max_matches: 10,
            ..opts()
        };
        for seed in 1..=40u64 {
            // xorshift64: a fixed sequence per seed.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let capacity = 1 + next(6) as usize;
            let mut lru: PlanLru<u32> = PlanLru::new(capacity);
            let mut model = NaiveLru {
                capacity,
                hits: 0,
                misses: 0,
                entries: Vec::new(),
            };
            for step in 0..300u32 {
                let o = if next(4) == 0 { &other } else { &opts() };
                let key = (format!("q{}", next(10)), o.clone());
                match next(10) {
                    0 => {
                        let capacity = next(8) as usize;
                        lru.set_capacity(capacity);
                        model.set_capacity(capacity);
                    }
                    1..=4 => {
                        lru.insert(key.0.clone(), key.1.clone(), step);
                        model.insert(key, step);
                    }
                    _ => assert_eq!(
                        lru.get(&key.0, &key.1).copied(),
                        model.get(&key),
                        "seed {seed} step {step}"
                    ),
                }
                let s = lru.stats();
                assert_eq!(
                    (s.hits, s.misses, s.len, s.capacity),
                    (
                        model.hits,
                        model.misses,
                        model.entries.len(),
                        model.capacity
                    ),
                    "seed {seed} step {step}"
                );
                let want: Vec<(&str, &EvalOptions, &u32)> = model
                    .entries
                    .iter()
                    .rev()
                    .map(|((q, o), v)| (q.as_str(), o, v))
                    .collect();
                assert_eq!(lru.by_recency(), want, "seed {seed} step {step}");
            }
        }
    }
}
