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
    /// Whether a media read populates its segment out to the end of the last
    /// track touched (firmware read-ahead).
    pub readahead_to_track_end: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            segments: 10,
            readahead_to_track_end: true,
        }
    }
}

/// Sentinel "start" for an unoccupied ring slot: no containment or overlap
/// test can match it (`start == u64::MAX` with `end == 0` fails both
/// `s <= x` and `x <= e` for every real LBN range).
const EMPTY_START: u64 = u64::MAX;
/// Sentinel "end" for an unoccupied ring slot.
const EMPTY_END: u64 = 0;

/// The segmented cache. LRU across segments; a hit refreshes recency.
///
/// Cached runs live in two parallel fixed-size rings (`starts`/`ends`) of
/// exactly `config.segments` slots, oldest at `head`, newest at
/// `head + len - 1`. Unoccupied slots hold a sentinel range that no lookup
/// or overlap test can match, so the hot scans sweep the whole array
/// branch-free without translating logical indices; eviction is O(1)
/// (advance `head`). Live segments are
/// pairwise disjoint — [`SegmentCache::insert`] absorbs every overlapping
/// segment and [`SegmentCache::invalidate`] only shrinks — so at most one
/// segment can satisfy a lookup and "first match" equals "unique match".
/// On the trace-replay hot path every media read does one lookup and one
/// insert; a mispredict-free L1-resident sweep is what keeps that
/// affordable.
#[derive(Debug, Clone)]
pub struct SegmentCache {
    config: CacheConfig,
    /// Segment first LBNs (physical ring slots; sentinel when empty).
    starts: Vec<u64>,
    /// Segment end LBNs, exclusive (parallel to `starts`).
    ends: Vec<u64>,
    /// Physical index of the least recently used segment.
    head: usize,
    /// Number of live segments.
    len: usize,
    hits: u64,
    misses: u64,
}

impl SegmentCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let ring = config.segments.max(1);
        SegmentCache {
            config,
            starts: vec![EMPTY_START; ring],
            ends: vec![EMPTY_END; ring],
            head: 0,
            len: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Physical ring slot of logical (recency) index `i` (0 = oldest).
    #[inline]
    fn slot(&self, i: usize) -> usize {
        let p = self.head + i;
        if p >= self.starts.len() {
            p - self.starts.len()
        } else {
            p
        }
    }

    /// Physical slot of the unique segment containing `[start, end)`.
    #[inline]
    fn containing(&self, start: u64, end: u64) -> Option<usize> {
        let mut idx = usize::MAX;
        for (i, (&s, &e)) in self.starts.iter().zip(&self.ends).enumerate() {
            if s <= start && end <= e {
                idx = i;
            }
        }
        (idx != usize::MAX).then_some(idx)
    }

    /// Appends a segment at the most-recent end. Requires a free slot.
    #[inline]
    fn push(&mut self, start: u64, end: u64) {
        debug_assert!(self.len < self.starts.len());
        let at = self.slot(self.len);
        self.starts[at] = start;
        self.ends[at] = end;
        self.len += 1;
    }

    /// Removes the segment in physical slot `at`, sliding newer segments
    /// down one logical position (recency order among survivors is kept).
    fn remove_at(&mut self, at: usize) -> (u64, u64) {
        let removed = (self.starts[at], self.ends[at]);
        let logical = if at >= self.head {
            at - self.head
        } else {
            at + self.starts.len() - self.head
        };
        debug_assert!(logical < self.len);
        for i in logical + 1..self.len {
            let (from, to) = (self.slot(i), self.slot(i - 1));
            self.starts[to] = self.starts[from];
            self.ends[to] = self.ends[from];
        }
        let last = self.slot(self.len - 1);
        self.starts[last] = EMPTY_START;
        self.ends[last] = EMPTY_END;
        self.len -= 1;
        removed
    }

    /// Returns true — and refreshes recency — if `[start, start+len)` is
    /// fully contained in one segment.
    pub fn lookup(&mut self, start: u64, len: u64) -> bool {
        if self.config.segments == 0 {
            return false;
        }
        let end = start + len;
        if let Some(at) = self.containing(start, end) {
            if at != self.slot(self.len - 1) {
                let (s, e) = self.remove_at(at);
                self.push(s, e);
            }
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Records that `[start, end)` was read from media (already extended by
    /// read-ahead by the caller if configured). Evicts the least recently
    /// used segment if full. Overlapping older segments are absorbed.
    pub fn insert(&mut self, start: u64, end: u64) {
        if self.config.segments == 0 || start >= end {
            return;
        }
        // Absorb overlapping or adjacent segments into the new one. The
        // common case (disjoint insert) is a branch-free read-only scan;
        // only an actual overlap pays for removing the absorbed segments
        // (recency order among survivors is kept).
        let (mut new_start, mut new_end) = (start, end);
        let mut any = false;
        for (&s, &e) in self.starts.iter().zip(&self.ends) {
            any |= s <= new_end && new_start <= e;
        }
        if any {
            let mut i = 0;
            while i < self.len {
                let at = self.slot(i);
                let (s, e) = (self.starts[at], self.ends[at]);
                if s <= new_end && new_start <= e {
                    new_start = new_start.min(s);
                    new_end = new_end.max(e);
                    self.remove_at(at);
                } else {
                    i += 1;
                }
            }
        }
        while self.len >= self.config.segments {
            // O(1) eviction: blank the oldest slot and advance the head.
            self.starts[self.head] = EMPTY_START;
            self.ends[self.head] = EMPTY_END;
            self.head += 1;
            if self.head == self.starts.len() {
                self.head = 0;
            }
            self.len -= 1;
        }
        self.push(new_start, new_end);
    }

    /// Invalidates any cached data overlapping `[start, start+len)` (called
    /// on writes). Segments are trimmed, not dropped wholesale, except when
    /// the write splits one (then the smaller half is dropped for
    /// simplicity, as real firmware typically does).
    pub fn invalidate(&mut self, start: u64, len: u64) {
        let end = start + len;
        let mut i = 0;
        while i < self.len {
            let at = self.slot(i);
            let (mut s, mut e) = (self.starts[at], self.ends[at]);
            if s < end && start < e {
                if start <= s && end >= e {
                    e = s; // fully covered: empty it
                } else if start <= s {
                    s = end;
                } else if end >= e {
                    e = start;
                } else {
                    // Write splits the segment: keep the larger half.
                    if start - s >= e - end {
                        e = start;
                    } else {
                        s = end;
                    }
                }
            }
            if s < e {
                self.starts[at] = s;
                self.ends[at] = e;
                i += 1;
            } else {
                self.remove_at(at);
            }
        }
    }

    /// Drops all cached data.
    pub fn clear(&mut self) {
        self.starts.fill(EMPTY_START);
        self.ends.fill(EMPTY_END);
        self.head = 0;
        self.len = 0;
    }

    /// (hits, misses) since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of live segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no segments are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(n: usize) -> SegmentCache {
        SegmentCache::new(CacheConfig {
            segments: n,
            readahead_to_track_end: true,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(2);
        assert!(!c.lookup(100, 10));
        c.insert(100, 200);
        assert!(c.lookup(100, 10));
        assert!(c.lookup(150, 50));
        assert!(!c.lookup(150, 51)); // extends past segment end
        assert_eq!(c.stats(), (2, 2));
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
        assert_eq!(c.len(), 1);
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
        assert!(c.is_empty());
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = SegmentCache::new(CacheConfig {
            segments: 0,
            readahead_to_track_end: false,
        });
        c.insert(0, 1000);
        assert!(!c.lookup(0, 1));
        assert_eq!(c.stats(), (0, 0));
    }

    #[test]
    fn clear_empties() {
        let mut c = cache(2);
        c.insert(0, 10);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.lookup(0, 1));
    }
}
