//! Set-associative LRU metadata cache.
//!
//! SGX-style schemes keep version-number and MAC lines in small on-chip
//! caches (the paper configures 16 KB VN + 8 KB MAC caches, LRU,
//! write-back, write-allocate). The model tracks hit/miss/eviction
//! behaviour per line without storing payload bytes.

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Address of a dirty line written back to make room, if any.
    pub writeback: Option<u64>,
}

/// One way of a set. An unfilled way carries the `EMPTY` tag (no line
/// index reaches it: lines are `addr / line_bytes` with `line_bytes >= 2`)
/// and `lru == 0`, older than any filled way since ticks start at 1, so
/// the least-recent choice fills a free way before it evicts anything.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    dirty: bool,
    lru: u64,
}

impl Way {
    const EMPTY: Way = Way {
        tag: u64::MAX,
        dirty: false,
        lru: 0,
    };
}

/// How a byte address maps to its line and set.
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    /// Line size and set count are powers of two: shift and mask.
    Pow2 { line_shift: u32, set_mask: u64 },
    /// Any other geometry (a 12 KB, 8-way cache has 24 sets): divide.
    Div { line_bytes: u64, sets: u64 },
}

/// A set-associative, write-back, write-allocate cache model.
///
/// The ways of all sets live in one flat array, `ways` entries per set.
///
/// # Examples
///
/// ```
/// use seda_protect::cache::MetaCache;
///
/// let mut c = MetaCache::new(1024, 64, 4);
/// assert!(!c.access(0, false).hit);
/// assert!(c.access(0, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct MetaCache {
    line_bytes: u64,
    index: SetIndex,
    ways: usize,
    slots: Vec<Way>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl MetaCache {
    /// Creates a cache of `capacity_bytes` with `line_bytes` lines and
    /// `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (lines under 2 B, zero ways,
    /// capacity not a multiple of `line_bytes × ways`).
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(line_bytes > 1 && ways > 0, "degenerate cache geometry");
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= ways as u64 && lines.is_multiple_of(ways as u64),
            "capacity must be a multiple of line_bytes*ways"
        );
        let sets = lines / ways as u64;
        let index = if line_bytes.is_power_of_two() && sets.is_power_of_two() {
            SetIndex::Pow2 {
                line_shift: line_bytes.trailing_zeros(),
                set_mask: sets - 1,
            }
        } else {
            SetIndex::Div { line_bytes, sets }
        };
        Self {
            line_bytes,
            index,
            ways,
            slots: vec![Way::EMPTY; lines as usize],
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
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.access_run(addr, is_write, 1)
    }

    /// Accesses the line containing `addr` `n` times back to back.
    ///
    /// Exactly `n` calls of [`MetaCache::access`]: the first call's outcome
    /// is returned, the other `n − 1` are hits, and the tick, LRU and dirty
    /// state end where the `n` calls would leave them.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn access_run(&mut self, addr: u64, is_write: bool, n: u64) -> CacheAccess {
        assert!(n > 0, "a run has at least one access");
        // The later accesses of the run are hits that only move the line's
        // LRU tick, so the whole run lands on the last tick.
        self.tick += n;
        self.hits += n - 1;
        let tick = self.tick;
        let (line, set) = match self.index {
            SetIndex::Pow2 {
                line_shift,
                set_mask,
            } => {
                let line = addr >> line_shift;
                (line, line & set_mask)
            }
            SetIndex::Div { line_bytes, sets } => {
                let line = addr / line_bytes;
                (line, line % sets)
            }
        };
        let base = set as usize * self.ways;
        let set_ways = &mut self.slots[base..base + self.ways];

        // One branch-free pass finds the line, if resident, and the
        // least-recent way: whether a way matches or is older than the
        // best so far depends on the data, so branches would mispredict.
        let mut hit = usize::MAX;
        let (mut victim, mut victim_lru) = (0, u64::MAX);
        for (i, w) in set_ways.iter().enumerate() {
            hit = if w.tag == line { i } else { hit };
            let older = w.lru < victim_lru;
            victim = if older { i } else { victim };
            victim_lru = if older { w.lru } else { victim_lru };
        }
        if let Some(w) = set_ways.get_mut(hit) {
            w.lru = tick;
            w.dirty |= is_write;
            self.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        let v = &mut set_ways[victim];
        let writeback = if v.dirty {
            self.writebacks += 1;
            Some(v.tag * self.line_bytes)
        } else {
            None
        };
        *v = Way {
            tag: line,
            dirty: is_write,
            lru: tick,
        };
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Flushes all dirty lines, returning their addresses in ascending
    /// order.
    pub fn flush(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for w in &mut self.slots {
            if w.dirty {
                out.push(w.tag * self.line_bytes);
                w.dirty = false;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest() {
        // 2 lines, 2 ways, 1 set.
        let mut c = MetaCache::new(128, 64, 2);
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // refresh line 0
        let a = c.access(128, false); // evicts line 64 (oldest)
        assert!(!a.hit);
        assert!(c.access(0, false).hit, "line 0 must survive");
        assert!(!c.access(64, false).hit, "line 64 was evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = MetaCache::new(128, 64, 2);
        c.access(0, true);
        c.access(64, false);
        c.access(128, false); // evict dirty line 0
                              // line 0 was LRU and dirty.
        let third = c.access(192, false);
        // One of the two evictions so far wrote back address 0.
        let (_, _, wbs) = c.stats();
        assert_eq!(wbs, 1);
        let _ = third;
    }

    #[test]
    fn flush_returns_dirty_lines_once() {
        let mut c = MetaCache::new(1024, 64, 4);
        c.access(0, true);
        c.access(64, false);
        c.access(128, true);
        let mut d = c.flush();
        d.sort_unstable();
        assert_eq!(d, vec![0, 128]);
        assert!(c.flush().is_empty(), "second flush finds nothing dirty");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = MetaCache::new(256, 64, 1); // 4 sets, direct-mapped
        c.access(0, false);
        c.access(64, false);
        assert!(c.access(0, false).hit);
        assert!(c.access(64, false).hit);
    }

    #[test]
    fn same_set_conflict_in_direct_mapped() {
        let mut c = MetaCache::new(256, 64, 1); // 4 sets
        c.access(0, false);
        c.access(256, false); // same set as 0
        assert!(!c.access(0, false).hit);
    }

    #[test]
    #[should_panic(expected = "multiple of line_bytes")]
    fn bad_geometry_rejected() {
        let _ = MetaCache::new(100, 64, 2);
    }

    #[test]
    fn non_power_of_two_sets_index_by_division() {
        // 12 KB, 8-way: 24 sets, so lines 0, 24, 48, … fill set 0 and
        // line 16 maps elsewhere.
        let mut c = MetaCache::new(12 << 10, 64, 8);
        for i in 0..8 {
            c.access(i * 24 * 64, false);
        }
        assert!(!c.access(16 * 64, false).hit);
        for i in 0..8 {
            assert!(c.access(i * 24 * 64, false).hit, "set 0 way {i} kept");
        }
        // A ninth line of set 0 evicts its least-recent way, line 0.
        c.access(8 * 24 * 64, false);
        assert!(!c.access(0, false).hit);
    }

    #[test]
    fn run_of_one_is_a_single_access() {
        let mut a = MetaCache::new(256, 64, 2);
        let mut b = a.clone();
        for (addr, w) in [
            (0, true),
            (128, false),
            (256, false),
            (0, false),
            (384, true),
        ] {
            assert_eq!(a.access(addr, w), b.access_run(addr, w, 1));
            assert_eq!(a.stats(), b.stats());
        }
        assert_eq!(a.flush(), b.flush());
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn empty_run_rejected() {
        let _ = MetaCache::new(256, 64, 2).access_run(0, false, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = MetaCache::new(1024, 64, 4);
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        let (h, m, _) = c.stats();
        assert_eq!((h, m), (1, 2));
    }
}
