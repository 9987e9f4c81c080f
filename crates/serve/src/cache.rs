//! A bounded content-addressed cache with LRU eviction and in-flight
//! request coalescing.
//!
//! Keys are 64-bit content fingerprints (see
//! [`fo4depth_study::cells::CellSpec::fingerprint`] and the request
//! fingerprints in [`crate::api`]); values are cheaply clonable handles
//! (`Arc<…>`). Two properties matter for a simulation cache and are easy
//! to get wrong with an off-the-shelf map:
//!
//! * **Coalescing.** [`Cache::get_or_compute`] guarantees at most one
//!   computation per key is ever in flight: concurrent callers with the
//!   same key block on the first caller's computation and share its
//!   result, so N identical requests cost one simulation, not N.
//! * **Bounded memory.** Completed entries are capped at `capacity` and
//!   evicted least-recently-used. In-flight computations are tracked
//!   separately and are never evicted (a waiter must always find its
//!   producer); admission control upstream bounds how many can exist.
//!
//! Every transition is counted — hits, misses, coalesced waits,
//! evictions — so `/metrics` can report cache effectiveness exactly.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};

/// Counter snapshot of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Completed entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Lookups served from a completed entry.
    pub hits: u64,
    /// Lookups that started a computation.
    pub misses: u64,
    /// Lookups that joined another caller's in-flight computation.
    pub coalesced: u64,
    /// Completed entries displaced by LRU pressure.
    pub evictions: u64,
}

/// State of one in-flight computation.
enum PendingState<V> {
    /// The producer is still computing.
    Running,
    /// The producer finished; waiters take the value.
    Done(V),
    /// The producer panicked; waiters retry from scratch.
    Failed,
}

struct Pending<V> {
    state: Mutex<PendingState<V>>,
    done: Condvar,
}

struct Ready<V> {
    value: V,
    /// LRU timestamp: the key's position in `Inner::order`.
    tick: u64,
}

struct Inner<V> {
    capacity: usize,
    clock: u64,
    ready: HashMap<u64, Ready<V>>,
    /// `tick → key`, ordered oldest-first for O(log n) eviction.
    order: BTreeMap<u64, u64>,
    pending: HashMap<u64, Arc<Pending<V>>>,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
}

impl<V: Clone> Inner<V> {
    /// Inserts a completed value, evicting the least-recently-used entry
    /// if the cache is full. With `capacity == 0` nothing is retained
    /// (the cache still coalesces, it just never remembers).
    fn insert_ready(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.ready.contains_key(&key) {
            // A racing producer for the same key already stored it; keep
            // the resident entry and its recency.
            return;
        }
        while self.ready.len() >= self.capacity {
            let (&tick, &victim) = self.order.iter().next().expect("order tracks ready");
            self.order.remove(&tick);
            self.ready.remove(&victim);
            self.evictions += 1;
        }
        self.clock += 1;
        self.order.insert(self.clock, key);
        self.ready.insert(
            key,
            Ready {
                value,
                tick: self.clock,
            },
        );
    }

    /// Refreshes `key`'s recency.
    fn touch(&mut self, key: u64) {
        let Some(entry) = self.ready.get_mut(&key) else {
            return;
        };
        self.order.remove(&entry.tick);
        self.clock += 1;
        entry.tick = self.clock;
        self.order.insert(self.clock, key);
    }
}

/// What a lookup resolved to, decided under the cache lock.
enum Claim<V> {
    Hit(V),
    Wait(Arc<Pending<V>>),
    Compute(Arc<Pending<V>>),
}

/// A bounded LRU cache of content-addressed computation results with
/// single-flight coalescing.
pub struct Cache<V> {
    inner: Mutex<Inner<V>>,
}

impl<V: Clone> Cache<V> {
    /// An empty cache holding at most `capacity` completed entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                capacity,
                clock: 0,
                ready: HashMap::new(),
                order: BTreeMap::new(),
                pending: HashMap::new(),
                hits: 0,
                misses: 0,
                coalesced: 0,
                evictions: 0,
            }),
        }
    }

    /// Returns the value for `key`, computing it with `f` on a miss.
    ///
    /// At most one caller runs `f` per key at a time; concurrent callers
    /// block until that computation finishes and share its result. If the
    /// producer panics, one blocked waiter takes over the computation
    /// (the panic still propagates on the producing thread).
    pub fn get_or_compute(&self, key: u64, f: impl Fn() -> V) -> V {
        loop {
            let claim = {
                let mut inner = self.inner.lock().expect("cache lock");
                if inner.ready.contains_key(&key) {
                    inner.hits += 1;
                    inner.touch(key);
                    Claim::Hit(inner.ready[&key].value.clone())
                } else if let Some(p) = inner.pending.get(&key).map(Arc::clone) {
                    inner.coalesced += 1;
                    Claim::Wait(p)
                } else {
                    inner.misses += 1;
                    let p = Arc::new(Pending {
                        state: Mutex::new(PendingState::Running),
                        done: Condvar::new(),
                    });
                    inner.pending.insert(key, Arc::clone(&p));
                    Claim::Compute(p)
                }
            };
            match claim {
                Claim::Hit(v) => return v,
                Claim::Wait(p) => {
                    let mut state = p.state.lock().expect("pending lock");
                    loop {
                        match &*state {
                            PendingState::Running => {
                                state = p.done.wait(state).expect("pending lock");
                            }
                            PendingState::Done(v) => return v.clone(),
                            // Producer died: retry the whole lookup (the
                            // failed pending entry is already unlinked).
                            PendingState::Failed => break,
                        }
                    }
                }
                Claim::Compute(p) => {
                    // Unwind-safe completion: whatever happens to `f`, the
                    // pending entry is unlinked and waiters are woken.
                    struct Guard<'a, V> {
                        cache: &'a Cache<V>,
                        pending: &'a Pending<V>,
                        key: u64,
                        finished: bool,
                    }
                    impl<V> Drop for Guard<'_, V> {
                        fn drop(&mut self) {
                            if !self.finished {
                                let mut inner = self.cache.inner.lock().expect("cache lock");
                                inner.pending.remove(&self.key);
                                drop(inner);
                                let mut state = self.pending.state.lock().expect("pending lock");
                                *state = PendingState::Failed;
                                self.pending.done.notify_all();
                            }
                        }
                    }
                    let mut guard = Guard {
                        cache: self,
                        pending: &p,
                        key,
                        finished: false,
                    };
                    let value = f();
                    guard.finished = true;
                    let mut inner = self.inner.lock().expect("cache lock");
                    inner.pending.remove(&key);
                    inner.insert_ready(key, value.clone());
                    drop(inner);
                    let mut state = p.state.lock().expect("pending lock");
                    *state = PendingState::Done(value.clone());
                    p.done.notify_all();
                    return value;
                }
            }
        }
    }

    /// Installs a completed value without counting a lookup — the batched
    /// sweep path probes with [`Cache::get`] (which already counted the
    /// miss), computes the cold cells as one lane batch, and installs the
    /// results here. Idempotent: a racing resident entry keeps its value
    /// and recency, exactly as in [`Inner::insert_ready`].
    pub fn insert(&self, key: u64, value: V) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.insert_ready(key, value);
    }

    /// Looks up `key` without computing, refreshing recency on a hit.
    /// Counts as a hit or miss.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.ready.contains_key(&key) {
            inner.hits += 1;
            inner.touch(key);
            Some(inner.ready[&key].value.clone())
        } else {
            inner.misses += 1;
            None
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            entries: inner.ready.len(),
            capacity: inner.capacity,
            hits: inner.hits,
            misses: inner.misses,
            coalesced: inner.coalesced,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn hit_after_miss_returns_cached_value_without_recompute() {
        let cache: Cache<Arc<u64>> = Cache::new(8);
        let computed = AtomicU64::new(0);
        let f = || {
            computed.fetch_add(1, Ordering::SeqCst);
            Arc::new(41)
        };
        assert_eq!(*cache.get_or_compute(1, f), 41);
        assert_eq!(*cache.get_or_compute(1, f), 41);
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn evicts_least_recently_used_in_order() {
        let cache: Cache<Arc<u64>> = Cache::new(2);
        cache.get_or_compute(1, || Arc::new(1));
        cache.get_or_compute(2, || Arc::new(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.get_or_compute(3, || Arc::new(3));
        assert!(cache.get(1).is_some(), "recently used survives");
        assert!(cache.get(2).is_none(), "LRU victim evicted");
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_never_retains_but_still_counts() {
        let cache: Cache<Arc<u64>> = Cache::new(0);
        let computed = AtomicU64::new(0);
        let f = || {
            computed.fetch_add(1, Ordering::SeqCst);
            Arc::new(7)
        };
        cache.get_or_compute(1, f);
        cache.get_or_compute(1, f);
        assert_eq!(computed.load(Ordering::SeqCst), 2);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn concurrent_identical_keys_coalesce_to_one_computation() {
        let cache: Arc<Cache<Arc<u64>>> = Arc::new(Cache::new(8));
        let computed = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                std::thread::spawn(move || {
                    *cache.get_or_compute(42, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Hold the computation open long enough for the
                        // other threads to arrive and coalesce.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Arc::new(99)
                    })
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().expect("thread"), 99);
        }
        assert_eq!(
            computed.load(Ordering::SeqCst),
            1,
            "exactly one computation for 8 concurrent identical requests"
        );
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.coalesced, 7);
    }

    #[test]
    fn failed_computation_unblocks_waiters_and_allows_retry() {
        let cache: Arc<Cache<Arc<u64>>> = Arc::new(Cache::new(8));
        let c2 = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compute(5, || panic!("producer dies"))
            }));
            assert!(result.is_err());
        });
        panicker.join().expect("panicking producer joined");
        // The key is fully unlinked; a later caller recomputes cleanly.
        assert_eq!(*cache.get_or_compute(5, || Arc::new(6)), 6);
    }
}
