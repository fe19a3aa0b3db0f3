//! Sharded LRU solution cache.
//!
//! Production batches repeat themselves: ECO re-runs resubmit mostly
//! unchanged nets, and a serving deployment sees the same noisy nets
//! again after every re-extraction. Optimizing a net costs milliseconds
//! to seconds of DP; a cache lookup costs a hash. Entries are keyed by a
//! content digest of everything that determines the record —
//! `(net, scenario, library, budget/config)` — computed by the caller
//! via [`digest`] / [`Engine::key_for`], so a hit returns a record
//! *identical* to what re-optimizing would produce. The stored outcome
//! also carries the computing run's telemetry (its wall time and DP
//! counters), which a hit replays in its response envelope.
//!
//! The map is sharded to keep lock contention off the worker pool's hot
//! path; each shard is an independent LRU protected by its own mutex.
//!
//! [`Engine::key_for`]: crate::engine::Engine::key_for

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use buffopt_integrity::Crc64;
use buffopt_pipeline::NetOutcome;

use crate::service::push_telemetry;

/// Lock shards of every engine's [`SolutionCache`].
pub const CACHE_SHARDS: usize = 8;

/// FNV-1a 64-bit over a sequence of byte slices, with a length separator
/// between parts so `("ab", "c")` and `("a", "bc")` digest differently.
pub fn digest(parts: &[&[u8]]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part);
    }
    h
}

/// One cached record: the outcome plus the worker that computed it (the
/// service reports the original worker on a hit) and a checksum of the
/// serialized record at insert time, re-verified on every hit.
#[derive(Clone)]
struct Entry {
    tick: u64,
    outcome: NetOutcome,
    worker: usize,
    crc: u64,
}

/// CRC-64 over everything a hit serves: the serialized record, the
/// reported worker, and the telemetry the response envelope appends.
/// (The rest of the in-memory `solution` is not covered here — it never
/// reaches a client directly; the sampled re-verification audit is the
/// layer that checks solutions semantically.)
fn entry_crc(outcome: &NetOutcome, worker: usize) -> u64 {
    let mut bytes = outcome.to_json();
    push_telemetry(&mut bytes, outcome);
    let mut h = Crc64::new();
    h.update(bytes.as_bytes());
    h.update_u64(worker as u64);
    h.finish()
}

struct Shard {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// Counters published in the metrics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Total capacity across shards (0 = caching disabled).
    pub capacity: usize,
    /// Verify-on-hit checksum validations performed.
    pub integrity_checks: u64,
    /// Entries evicted because their checksum no longer matched (each
    /// is also a miss — a corrupt record is never served).
    pub corrupt_evictions: u64,
}

/// A sharded LRU cache from content digest to per-net outcome record.
pub struct SolutionCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    integrity_checks: AtomicU64,
    corrupt_evictions: AtomicU64,
}

impl SolutionCache {
    /// A cache holding at most `capacity` records spread over `shards`
    /// shards (both rounded up so every shard holds at least one entry).
    /// `capacity == 0` disables caching: every lookup misses and inserts
    /// are dropped.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        SolutionCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard,
            capacity: per_shard * shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            integrity_checks: AtomicU64::new(0),
            corrupt_evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // The digest's low bits are well mixed; pick a shard from them.
        &self.shards[(key as usize) % self.shards.len()]
    }

    /// Looks `key` up, refreshing its recency. Returns the stored record
    /// and the worker that originally computed it.
    pub fn get(&self, key: u64) -> Option<(NetOutcome, usize)> {
        if self.per_shard == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        let corrupt = match shard.map.get_mut(&key) {
            Some(entry) => {
                // Verify-on-hit: a record that fails its insert-time
                // checksum is evicted and reported as a miss, never
                // served.
                self.integrity_checks.fetch_add(1, Ordering::Relaxed);
                if entry_crc(&entry.outcome, entry.worker) == entry.crc {
                    entry.tick = tick;
                    let hit = (entry.outcome.clone(), entry.worker);
                    drop(shard);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(hit);
                }
                true
            }
            None => false,
        };
        if corrupt {
            shard.map.remove(&key);
            self.corrupt_evictions.fetch_add(1, Ordering::Relaxed);
        }
        drop(shard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Drops `key` outright (used when a sampled re-verification finds
    /// the served solution inconsistent with its own audit). Returns
    /// whether an entry was present.
    pub fn remove(&self, key: u64) -> bool {
        if self.per_shard == 0 {
            return false;
        }
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.map.remove(&key).is_some()
    }

    /// Stores a record, evicting the least-recently-used entry of the
    /// shard if it is full. Inserting a key that is already present
    /// keeps the stored record and only refreshes its recency: when two
    /// concurrent requests for the same key both miss and both compute,
    /// their records are identical but their `worker` and telemetry
    /// differ, and first-write-wins keeps every subsequent hit's
    /// response byte-identical instead of flapping between the racers'.
    pub fn insert(&self, key: u64, outcome: NetOutcome, worker: usize) {
        if self.per_shard == 0 {
            return;
        }
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.tick = tick;
            return;
        }
        if shard.map.len() >= self.per_shard {
            // Shards are small (capacity / shards); a linear scan for the
            // oldest tick is cheaper than maintaining an intrusive list
            // and runs nowhere near the optimizer's hot path.
            if let Some(&oldest) = shard.map.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| k) {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let crc = entry_crc(&outcome, worker);
        shard.map.insert(
            key,
            Entry {
                tick,
                outcome,
                worker,
                crc,
            },
        );
    }

    /// Test hook: silently damages the stored record for `key` (flips a
    /// high mantissa bit of its slack). With `rehash` false the stored
    /// checksum is kept, so the next `get` must detect the mismatch;
    /// with `rehash` true the checksum is recomputed over the damaged
    /// record, modelling corruption that happened *before* insert —
    /// invisible to verify-on-hit and catchable only by the sampled
    /// re-verification audit. Returns false when the key is absent.
    #[doc(hidden)]
    pub fn corrupt(&self, key: u64, rehash: bool) -> bool {
        if self.per_shard == 0 {
            return false;
        }
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        let Some(entry) = shard.map.get_mut(&key) else {
            return false;
        };
        let slack = entry.outcome.slack.unwrap_or(0.0);
        entry.outcome.slack = Some(f64::from_bits(slack.to_bits() ^ (1 << 51)));
        if rehash {
            entry.crc = entry_crc(&entry.outcome, entry.worker);
        }
        true
    }

    /// Current counter values and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
                .sum(),
            capacity: self.capacity,
            integrity_checks: self.integrity_checks.load(Ordering::Relaxed),
            corrupt_evictions: self.corrupt_evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffopt_pipeline::{NetInput, Outcome};

    fn record(name: &str) -> NetOutcome {
        // A parse-error shell is the cheapest real record to make.
        buffopt_pipeline::optimize_input_with(
            &mut buffopt::DpWorkspace::new(),
            &NetInput::Failed {
                name: name.into(),
                error: "synthetic".into(),
            },
            &buffopt_pipeline::PipelineConfig::new(buffopt_buffers::catalog::single_buffer()),
        )
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(digest(&[b"ab", b"c"]), digest(&[b"a", b"bc"]));
        assert_ne!(digest(&[b"ab"]), digest(&[b"ab", b""]));
        assert_eq!(digest(&[b"ab", b"c"]), digest(&[b"ab", b"c"]));
    }

    #[test]
    fn hit_returns_identical_record_and_counts() {
        let c = SolutionCache::new(8, 2);
        assert!(c.get(1).is_none());
        c.insert(1, record("a"), 3);
        let (got, worker) = c.get(1).expect("hit");
        assert_eq!(worker, 3);
        assert_eq!(got.to_json(), record("a").to_json());
        assert_eq!(got.outcome, Outcome::ParseError);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_oldest_not_recently_used() {
        // One shard of 2 entries: touch `a`, insert `c` — `b` goes.
        let c = SolutionCache::new(2, 1);
        c.insert(10, record("a"), 0);
        c.insert(20, record("b"), 0);
        assert!(c.get(10).is_some(), "refresh a");
        c.insert(30, record("c"), 0);
        assert!(c.get(10).is_some(), "a survived");
        assert!(c.get(20).is_none(), "b evicted");
        assert!(c.get(30).is_some(), "c present");
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = SolutionCache::new(0, 4);
        c.insert(1, record("a"), 0);
        assert!(c.get(1).is_none());
        let s = c.stats();
        assert_eq!((s.capacity, s.entries, s.evictions), (0, 0, 0));
    }

    #[test]
    fn corrupt_entry_is_evicted_and_missed_never_served() {
        let c = SolutionCache::new(8, 2);
        c.insert(1, record("a"), 3);
        assert!(c.corrupt(1, false), "entry present to damage");
        assert!(c.get(1).is_none(), "a corrupt record is never served");
        let s = c.stats();
        assert_eq!(s.corrupt_evictions, 1);
        assert_eq!(s.entries, 0, "the damaged entry is gone");
        assert_eq!((s.hits, s.misses), (0, 1), "corruption is a miss");
        // The slot heals on re-insert.
        c.insert(1, record("a"), 3);
        assert!(c.get(1).is_some());
        assert_eq!(c.stats().corrupt_evictions, 1);
    }

    #[test]
    fn rehashed_corruption_slips_past_verify_on_hit() {
        // Corruption that predates the checksum (rehash=true) is the
        // case verify-on-hit cannot see — that's what the sampled
        // re-verification audit is for.
        let c = SolutionCache::new(8, 2);
        c.insert(1, record("a"), 3);
        assert!(c.corrupt(1, true));
        let (got, _) = c.get(1).expect("served: checksum matches the lie");
        assert_ne!(got.to_json(), record("a").to_json());
        assert_eq!(c.stats().corrupt_evictions, 0);
        assert!(c.remove(1), "explicit invalidation still works");
        assert!(c.get(1).is_none());
    }

    #[test]
    fn hits_count_integrity_checks() {
        let c = SolutionCache::new(8, 2);
        c.insert(1, record("a"), 0);
        c.get(1);
        c.get(1);
        c.get(2);
        let s = c.stats();
        assert_eq!(s.integrity_checks, 2, "only found entries are checked");
    }

    #[test]
    fn keys_spread_over_shards() {
        let c = SolutionCache::new(64, 8);
        for k in 0..64u64 {
            c.insert(k, record("x"), 0);
        }
        assert_eq!(c.stats().entries, 64, "no shard overflowed early");
    }
}
