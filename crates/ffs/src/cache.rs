//! The buffer cache: a bounded LRU over file-system blocks.
//!
//! Blocks are identified by their *disk* block number. The cache tracks
//! clean/dirty state; eviction hands a dirty victim back to the caller (the
//! file system), which is responsible for writing it out.

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
/// recency list (oldest at `head`), with one table from block number to
/// slot, so a hit, an insertion and an eviction are each O(1) and none
/// hashes anything.
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    slots: Vec<Slot>,
    /// Slots vacated by [`discard`](Self::discard) (left clean), reused
    /// before the slab grows.
    vacant: Vec<u32>,
    /// Block number → its slot + 1; 0 for a block that is not cached. One
    /// entry per block of the file system, allocated zeroed, so the only
    /// pages ever touched are those a workload's blocks fall in.
    index: Vec<u32>,
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
    /// Creates a cache holding up to `capacity` of a file system's `blocks`
    /// blocks. A block number at or past `blocks` can be asked about (it is
    /// never cached) but not inserted.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (or beyond what a slot index can
    /// address). [`insert`](Self::insert) and
    /// [`insert_dirty`](Self::insert_dirty) panic on a block number that
    /// is not below `blocks`.
    pub fn new(capacity: usize, blocks: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(capacity < NIL as usize, "cache capacity exceeds slot index");
        BufferCache {
            capacity,
            slots: Vec::new(),
            vacant: Vec::new(),
            index: vec![0; blocks],
            head: NIL,
            tail: NIL,
            run: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.slots.len() - self.vacant.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot holding `block`, if it is cached.
    fn slot_of(&self, block: u64) -> Option<u32> {
        let entry = *self.index.get(usize::try_from(block).ok()?)?;
        entry.checked_sub(1)
    }

    /// (hits, misses) recorded by [`contains`](Self::contains).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Whether `block` is cached; refreshes recency and records a
    /// hit/miss.
    pub fn contains(&mut self, block: u64) -> bool {
        if let Some(slot) = self.slot_of(block) {
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
        self.slot_of(block).is_some()
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
        self.slot_of(block)
            .is_some_and(|slot| self.slots[slot as usize].dirty)
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
        if let Some(slot) = self.slot_of(block) {
            self.slots[slot as usize].dirty = false;
            self.run = None;
        }
    }

    /// Drops `block` regardless of state (file deletion).
    pub fn discard(&mut self, block: u64) {
        if let Some(slot) = self.slot_of(block) {
            self.index[block as usize] = 0;
            self.unlink(slot);
            self.slots[slot as usize].dirty = false;
            self.vacant.push(slot);
            self.run = None;
        }
    }

    /// All dirty blocks, sorted (for sync).
    pub fn dirty_blocks(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .slots
            .iter()
            .filter(|slot| slot.dirty)
            .map(|slot| slot.block)
            .collect();
        v.sort_unstable();
        v
    }

    /// Empties the cache (remount). Dirty data is dropped — callers must
    /// sync first.
    pub fn clear(&mut self) {
        // Un-index the few blocks the slab names (a vacated slot's entry is
        // zero already, or belongs to a live slot) rather than zero a table
        // the size of the file system.
        for slot in &self.slots {
            self.index[slot.block as usize] = 0;
        }
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
        if let Some(slot) = self.slot_of(block) {
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
        let slot = if self.len() >= self.capacity {
            let slot = self.head;
            self.unlink(slot);
            let old = std::mem::replace(&mut self.slots[slot as usize], entry);
            self.index[old.block as usize] = 0;
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
        self.index[block as usize] = slot + 1;
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
        let mut c = BufferCache::new(4, 16);
        assert!(!c.contains(1));
        c.insert(1);
        assert!(c.contains(1));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_returns_dirty_victims() {
        let mut c = BufferCache::new(2, 16);
        c.insert_dirty(1);
        c.insert(2);
        let evicted = c.insert(3); // evicts 1 (oldest), which is dirty
        assert_eq!(evicted, Some(1));
        assert!(!c.peek(1));
        assert!(c.peek(2) && c.peek(3));
    }

    #[test]
    fn recency_updates_on_contains() {
        let mut c = BufferCache::new(2, 16);
        c.insert(1);
        c.insert(2);
        assert!(c.contains(1)); // refresh 1
        let evicted = c.insert(3); // evicts 2
        assert!(evicted.is_none());
        assert!(c.peek(1) && !c.peek(2));
    }

    #[test]
    fn dirty_lifecycle() {
        let mut c = BufferCache::new(4, 16);
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
        let _ = BufferCache::new(0, 16);
    }

    #[test]
    fn clear_empties() {
        let mut c = BufferCache::new(4, 16);
        c.insert(1);
        c.insert_dirty(2);
        c.clear();
        assert!(c.is_empty());
    }
}
