//! A file's block map as runs of physically contiguous blocks: the shape
//! the on-media inode records ([`crate::image::InodeRec::extents`]), held
//! in memory too. Under the traxtent personality a run is about a track,
//! so a 1 GB file is a few thousand runs rather than 131 072 block
//! numbers.

use crate::cache::BufferCache;
use std::cell::Cell;

/// File blocks from `fb` up to the next run's `fb` (or the map's end) lie
/// on disk blocks from `db` on. Both fit 32 bits because
/// [`crate::FileSystem::format`] refuses a layout of 2³² blocks or more.
#[derive(Debug, Clone, Copy)]
struct Run {
    fb: u32,
    db: u32,
}

/// A file's block map: file block → disk block, grown by appending.
///
/// Consecutive runs are never adjacent on disk, since [`push`](Self::push)
/// extends the last run with a block that continues it, so every run is
/// as long as the file's layout allows.
#[derive(Debug, Default)]
pub struct RunMap {
    runs: Vec<Run>,
    /// File blocks mapped.
    blocks: u32,
    /// The run the last lookup landed in: a file read in order finds its
    /// next block there, so only a move to another run searches.
    hint: Cell<u32>,
}

impl RunMap {
    /// File blocks mapped.
    pub fn blocks(&self) -> u64 {
        u64::from(self.blocks)
    }

    /// The disk block of the last file block, if any.
    pub fn last(&self) -> Option<u64> {
        let r = self.runs.last()?;
        Some(u64::from(r.db) + u64::from(self.blocks - r.fb) - 1)
    }

    /// Maps the next file block to disk block `db`.
    ///
    /// # Panics
    ///
    /// Panics if `db` is 2³² or more, which no formatted file system
    /// hands out.
    pub fn push(&mut self, db: u64) {
        assert!(db <= u64::from(u32::MAX), "block {db} past 32 bits");
        if self.last().is_none_or(|last| last + 1 != db) {
            self.runs.push(Run {
                fb: self.blocks,
                db: db as u32,
            });
        }
        self.blocks += 1;
    }

    /// Disk block `fb` lives on, and how many blocks its run has from
    /// there on; `None` past the map's end.
    fn locate(&self, fb: u64) -> Option<(u64, u64)> {
        if fb >= self.blocks() {
            return None;
        }
        let end = |i: usize| self.runs.get(i + 1).map_or(self.blocks, |next| next.fb);
        let mut i = self.hint.get() as usize;
        if u64::from(self.runs[i].fb) > fb || u64::from(end(i)) <= fb {
            i = self.runs.partition_point(|r| u64::from(r.fb) <= fb) - 1;
            self.hint.set(i as u32);
        }
        let r = self.runs[i];
        Some((
            u64::from(r.db) + fb - u64::from(r.fb),
            u64::from(end(i)) - fb,
        ))
    }

    /// The disk block holding file block `fb`; `None` past the map's end.
    pub fn get(&self, fb: u64) -> Option<u64> {
        self.locate(fb).map(|(db, _)| db)
    }

    /// Length of the uncached stretch of `fb`'s run starting at `fb`,
    /// capped at `cap`, and at least 1 (0 past the map's end).
    pub fn contiguous_run(&self, fb: u64, cache: &BufferCache, cap: u64) -> u64 {
        let Some((db, left)) = self.locate(fb) else {
            return 0;
        };
        let uncached = (db..db + left.min(cap)).take_while(|&b| !cache.peek(b));
        (uncached.count() as u64).max(1)
    }

    /// The runs as `(first disk block, blocks)`, in file order: what the
    /// on-media inode records.
    pub fn extents(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let ends = self.runs.iter().skip(1).map(|r| r.fb).chain([self.blocks]);
        self.runs
            .iter()
            .zip(ends)
            .map(|(r, end)| (u64::from(r.db), u64::from(end - r.fb)))
    }
}
