//! The buffer cache: a bounded LRU over file-system blocks.
//!
//! Blocks are identified by their *disk* block number. The cache tracks
//! clean/dirty state; eviction hands a dirty victim back to the caller (the
//! file system), which is responsible for writing it out.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a block number with one multiply. Block numbers come from the
/// allocator, not from outside the program, so nothing can craft
/// collisions; runs of consecutive blocks (the common case) spread
/// perfectly.
#[derive(Debug, Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("block numbers hash through write_u64");
    }

    fn write_u64(&mut self, block: u64) {
        let h = block.wrapping_mul(traxtent::hash::GOLDEN_GAMMA);
        // Fold the well-mixed high half into the low bits the table indexes by.
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// "No slot": the end of the recency list.
const NIL: u32 = u32::MAX;

/// One cached block, linked into the recency list by slot index.
#[derive(Debug)]
struct Slot {
    block: u64,
    dirty: bool,
    /// Towards least recently used.
    prev: u32,
    /// Towards most recently used.
    next: u32,
}

/// A bounded LRU block cache.
///
/// Cached blocks live in a slab of slots threaded as a doubly linked
/// recency list (oldest at `head`), with one index from block number to
/// slot, so a hit, an insertion and an eviction are each O(1).
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    slots: Vec<Slot>,
    /// Slots vacated by [`discard`](Self::discard), reused before the slab
    /// grows.
    vacant: Vec<u32>,
    index: HashMap<u64, u32, BuildHasherDefault<BlockHasher>>,
    /// Least recently used slot.
    head: u32,
    /// Most recently used slot.
    tail: u32,
    /// The `[start, end)` [`dirty_run`](Self::dirty_run) last reported, while
    /// it still stands: forgotten when a block is cleaned or dropped, or
    /// dirtied anywhere but at its end.
    run: Option<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates a cache holding up to `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (or beyond what a slot index can
    /// address).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(capacity < NIL as usize, "cache capacity exceeds slot index");
        BufferCache {
            capacity,
            slots: Vec::new(),
            vacant: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            run: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// (hits, misses) recorded by [`contains`](Self::contains).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Whether `block` is cached; refreshes recency and records a
    /// hit/miss.
    pub fn contains(&mut self, block: u64) -> bool {
        if let Some(&slot) = self.index.get(&block) {
            self.touch(slot);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Whether `block` is cached, without touching recency or stats.
    pub fn peek(&self, block: u64) -> bool {
        self.index.contains_key(&block)
    }

    /// Inserts `block` (clean unless already dirty). Returns the dirty
    /// block evicted to make room, if any, which the caller must write out.
    pub fn insert(&mut self, block: u64) -> Option<u64> {
        self.admit(block, false)
    }

    /// Marks `block` dirty, inserting it if absent. Returns the evicted
    /// dirty block, if any.
    pub fn insert_dirty(&mut self, block: u64) -> Option<u64> {
        self.admit(block, true)
    }

    /// Whether `block` is cached and dirty.
    pub fn is_dirty(&self, block: u64) -> bool {
        self.index
            .get(&block)
            .is_some_and(|&slot| self.slots[slot as usize].dirty)
    }

    /// The run of consecutive dirty blocks around dirty block `block`, as
    /// `[start, end)`. Extending the run reported last — a sequential
    /// writer's case — does not walk it again.
    pub fn dirty_run(&mut self, block: u64) -> (u64, u64) {
        debug_assert!(self.is_dirty(block));
        let mut start = block;
        match self.run {
            Some((known, end)) if end == block => start = known,
            _ => {
                while start > 0 && self.is_dirty(start - 1) {
                    start -= 1;
                }
            }
        }
        let mut end = block + 1;
        while self.is_dirty(end) {
            end += 1;
        }
        self.run = Some((start, end));
        (start, end)
    }

    /// Marks `block` clean (after write-back); no-op if absent.
    pub fn mark_clean(&mut self, block: u64) {
        if let Some(&slot) = self.index.get(&block) {
            self.slots[slot as usize].dirty = false;
            self.run = None;
        }
    }

    /// Drops `block` regardless of state (file deletion).
    pub fn discard(&mut self, block: u64) {
        if let Some(slot) = self.index.remove(&block) {
            self.unlink(slot);
            self.vacant.push(slot);
            self.run = None;
        }
    }

    /// All dirty blocks, sorted (for sync).
    pub fn dirty_blocks(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .index
            .iter()
            .filter(|&(_, &slot)| self.slots[slot as usize].dirty)
            .map(|(&b, _)| b)
            .collect();
        v.sort_unstable();
        v
    }

    /// Empties the cache (remount). Dirty data is dropped — callers must
    /// sync first.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.vacant.clear();
        self.head = NIL;
        self.tail = NIL;
        self.run = None;
    }

    /// Makes `block` the most recently used entry, dirty if `dirty` or if
    /// it already was; a new entry at capacity takes the least recently
    /// used entry's slot, and that victim is returned if it was dirty.
    fn admit(&mut self, block: u64, dirty: bool) -> Option<u64> {
        if dirty && self.run.is_some_and(|(_, end)| end != block) {
            self.run = None;
        }
        if let Some(&slot) = self.index.get(&block) {
            self.slots[slot as usize].dirty |= dirty;
            self.touch(slot);
            return None;
        }
        let entry = Slot {
            block,
            dirty,
            prev: NIL,
            next: NIL,
        };
        let mut victim = None;
        let slot = if self.index.len() >= self.capacity {
            let slot = self.head;
            self.unlink(slot);
            let old = std::mem::replace(&mut self.slots[slot as usize], entry);
            self.index.remove(&old.block);
            if old.dirty {
                self.run = None;
                victim = Some(old.block);
            }
            slot
        } else if let Some(slot) = self.vacant.pop() {
            self.slots[slot as usize] = entry;
            slot
        } else {
            self.slots.push(entry);
            (self.slots.len() - 1) as u32
        };
        self.index.insert(block, slot);
        self.push_back(slot);
        victim
    }

    /// Moves `slot` to most-recently-used.
    fn touch(&mut self, slot: u32) {
        if slot != self.tail {
            self.unlink(slot);
            self.push_back(slot);
        }
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Appends `slot` at the most-recently-used end.
    fn push_back(&mut self, slot: u32) {
        let tail = self.tail;
        let s = &mut self.slots[slot as usize];
        s.prev = tail;
        s.next = NIL;
        match tail {
            NIL => self.head = slot,
            t => self.slots[t as usize].next = slot,
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let mut c = BufferCache::new(4);
        assert!(!c.contains(1));
        c.insert(1);
        assert!(c.contains(1));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_returns_dirty_victims() {
        let mut c = BufferCache::new(2);
        c.insert_dirty(1);
        c.insert(2);
        let evicted = c.insert(3); // evicts 1 (oldest), which is dirty
        assert_eq!(evicted, Some(1));
        assert!(!c.peek(1));
        assert!(c.peek(2) && c.peek(3));
    }

    #[test]
    fn recency_updates_on_contains() {
        let mut c = BufferCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.contains(1)); // refresh 1
        let evicted = c.insert(3); // evicts 2
        assert!(evicted.is_none());
        assert!(c.peek(1) && !c.peek(2));
    }

    #[test]
    fn dirty_lifecycle() {
        let mut c = BufferCache::new(4);
        c.insert_dirty(7);
        assert!(c.is_dirty(7));
        assert_eq!(c.dirty_blocks(), vec![7]);
        c.mark_clean(7);
        assert!(!c.is_dirty(7));
        assert!(c.dirty_blocks().is_empty());
        c.discard(7);
        assert!(!c.peek(7));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BufferCache::new(0);
    }

    #[test]
    fn clear_empties() {
        let mut c = BufferCache::new(4);
        c.insert(1);
        c.insert_dirty(2);
        c.clear();
        assert!(c.is_empty());
    }
}
