//! The reference metadata-cache model: the original `HashMap`-of-sets
//! implementation of `seda_protect::MetaCache`, kept here as the oracle
//! for the flat production cache.
//!
//! Each set is a `Vec` of ways found through a hash map, lines are
//! indexed by `/` and `%`, and a miss in a full set evicts the way with
//! the smallest LRU tick. It is the semantic definition the `schemes`
//! family holds the fast cache to, access by access; it is not a second
//! production path.

use seda_protect::cache::CacheAccess;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    dirty: bool,
    lru: u64,
}

/// The hash-map set-associative, write-back, write-allocate cache model.
#[derive(Debug, Clone)]
pub struct ReferenceCache {
    line_bytes: u64,
    sets: u64,
    ways: usize,
    storage: HashMap<u64, Vec<Way>>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl ReferenceCache {
    /// Creates a cache of `capacity_bytes` with `line_bytes` lines and
    /// `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not a
    /// multiple of `line_bytes × ways`).
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(line_bytes > 0 && ways > 0, "degenerate cache geometry");
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= ways as u64 && lines.is_multiple_of(ways as u64),
            "capacity must be a multiple of line_bytes*ways"
        );
        Self {
            line_bytes,
            sets: lines / ways as u64,
            ways,
            storage: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Accesses the line containing `addr`; `is_write` marks it dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.tick += 1;
        let line = addr / self.line_bytes;
        let set = line % self.sets;
        let tick = self.tick;
        let ways = self.ways;
        let set_ways = self.storage.entry(set).or_default();

        if let Some(w) = set_ways.iter_mut().find(|w| w.tag == line) {
            w.lru = tick;
            w.dirty |= is_write;
            self.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        let mut writeback = None;
        if set_ways.len() == ways {
            // Invariant: this branch only runs when `set_ways.len() == ways`
            // and `ways > 0`, so `min_by_key` always finds a victim.
            #[allow(clippy::expect_used)]
            let victim = set_ways
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("full set has ways");
            let v = set_ways.swap_remove(victim);
            if v.dirty {
                writeback = Some(v.tag * self.line_bytes);
                self.writebacks += 1;
            }
        }
        set_ways.push(Way {
            tag: line,
            dirty: is_write,
            lru: tick,
        });
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Flushes all dirty lines, returning their addresses.
    pub fn flush(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for ways in self.storage.values_mut() {
            for w in ways.iter_mut() {
                if w.dirty {
                    out.push(w.tag * self.line_bytes);
                    w.dirty = false;
                }
            }
        }
        self.writebacks += out.len() as u64;
        out.sort_unstable();
        out
    }

    /// (hits, misses, writebacks) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }
}
