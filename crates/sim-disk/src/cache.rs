//! Segmented firmware read cache with track read-ahead.
//!
//! Drive firmware keeps a small number of cache segments, each holding a
//! recently read LBN run extended by read-ahead to the end of the track.
//! Reads fully contained in a segment are serviced at bus speed with no
//! mechanical work. This is precisely the behaviour the general
//! track-extraction algorithm must defeat by interleaving requests to more
//! widespread locations than the cache has segments (§4.1.1 of the paper).
//!
//! Writes invalidate overlapping cached data and do not populate the cache
//! (write-through, no write-back caching).

/// Cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of cache segments (0 disables the cache).
    pub segments: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { segments: 10 }
    }
}

/// The segmented cache. LRU across segments; a hit refreshes recency.
///
/// Live segments are pairwise disjoint — [`SegmentCache::insert`] absorbs
/// every segment it overlaps or abuts and [`SegmentCache::invalidate`]
/// only shrinks — so at most one segment can satisfy a lookup.
/// `tests/cache_props.rs` drives it against a model made of sector sets.
#[derive(Debug, Clone)]
pub struct SegmentCache {
    config: CacheConfig,
    /// Cached `[start, end)` runs, least recently used first.
    segs: Vec<(u64, u64)>,
}

impl SegmentCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        SegmentCache {
            config,
            segs: Vec::with_capacity(config.segments),
        }
    }

    /// Returns true — and refreshes recency — if `[start, start+len)` is
    /// fully contained in one segment.
    pub fn lookup(&mut self, start: u64, len: u64) -> bool {
        if self.config.segments == 0 {
            return false;
        }
        let end = start + len;
        match self.segs.iter().position(|&(s, e)| s <= start && end <= e) {
            Some(at) => {
                self.segs[at..].rotate_left(1);
                true
            }
            None => false,
        }
    }

    /// Records that `[start, end)` was read from media (already extended by
    /// read-ahead by the caller if configured). Evicts the least recently
    /// used segment if full. Overlapping older segments are absorbed.
    pub fn insert(&mut self, mut start: u64, mut end: u64) {
        if self.config.segments == 0 || start >= end {
            return;
        }
        // One pass, oldest first: a segment that overlaps or abuts the run
        // as grown so far joins it; the survivors keep their order.
        self.segs.retain(|&(s, e)| {
            let absorbed = s <= end && start <= e;
            if absorbed {
                start = start.min(s);
                end = end.max(e);
            }
            !absorbed
        });
        while self.segs.len() >= self.config.segments {
            self.segs.remove(0);
        }
        self.segs.push((start, end));
    }

    /// Invalidates any cached data overlapping `[start, start+len)` (called
    /// on writes). Segments are trimmed, not dropped wholesale, except when
    /// the write splits one (then the smaller half is dropped for
    /// simplicity, as real firmware typically does).
    pub fn invalidate(&mut self, start: u64, len: u64) {
        let end = start + len;
        self.segs.retain_mut(|(s, e)| {
            if *s < end && start < *e {
                if start <= *s && end >= *e {
                    *e = *s; // fully covered: empty it
                } else if start <= *s {
                    *s = end;
                } else if end >= *e {
                    *e = start;
                } else if start - *s >= *e - end {
                    // Write splits the segment: keep the larger half.
                    *e = start;
                } else {
                    *s = end;
                }
            }
            *s < *e
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(n: usize) -> SegmentCache {
        SegmentCache::new(CacheConfig { segments: n })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(2);
        assert!(!c.lookup(100, 10));
        c.insert(100, 200);
        assert!(c.lookup(100, 10));
        assert!(c.lookup(150, 50));
        assert!(!c.lookup(150, 51)); // extends past segment end
    }

    #[test]
    fn lru_eviction() {
        let mut c = cache(2);
        c.insert(0, 10);
        c.insert(100, 110);
        c.insert(200, 210); // evicts [0,10)
        assert!(!c.lookup(0, 5));
        assert!(c.lookup(100, 5));
        assert!(c.lookup(200, 5));
    }

    #[test]
    fn hit_refreshes_recency() {
        let mut c = cache(2);
        c.insert(0, 10);
        c.insert(100, 110);
        assert!(c.lookup(0, 5)); // refresh [0,10)
        c.insert(200, 210); // evicts [100,110), not [0,10)
        assert!(c.lookup(0, 5));
        assert!(!c.lookup(100, 5));
    }

    #[test]
    fn overlapping_inserts_merge() {
        let mut c = cache(4);
        c.insert(0, 100);
        c.insert(50, 150);
        assert_eq!(c.segs.len(), 1);
        assert!(c.lookup(0, 150));
    }

    #[test]
    fn writes_invalidate() {
        let mut c = cache(4);
        c.insert(0, 100);
        c.invalidate(20, 10);
        assert!(!c.lookup(0, 100));
        assert!(!c.lookup(25, 1));
        // The larger half [30,100) survives a split.
        assert!(c.lookup(40, 50));
    }

    #[test]
    fn full_cover_invalidation_drops_segment() {
        let mut c = cache(4);
        c.insert(10, 20);
        c.invalidate(0, 100);
        assert!(c.segs.is_empty());
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = SegmentCache::new(CacheConfig { segments: 0 });
        c.insert(0, 1000);
        assert!(!c.lookup(0, 1));
    }
}
