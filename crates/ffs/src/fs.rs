//! The file system proper: inodes, the read path with per-personality
//! read-ahead, the clustered write-back path, and small synchronous
//! metadata writes for create/delete.
//!
//! Timing model: the file system owns the simulated clock. Reads are
//! synchronous (the application waits); write-back and metadata-adjacent
//! flushes are issued asynchronously at the current clock and contend for
//! the disk with later reads (the drive services commands FCFS). `sync`
//! flushes everything and advances the clock to disk idle, which is how a
//! workload's run time is measured.

use crate::cache::BufferCache;
use crate::image;
use crate::layout::{Layout, Personality, BLOCKS_PER_GROUP, BLOCK_SECTORS, BYTES_PER_BLOCK};
use sim_disk::crash::SectorImage;
use sim_disk::disk::{Disk, Request};
use sim_disk::{SimDur, SimTime};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use traxtent::RequestPlanner;

/// Cap on clustered transfers, in blocks (32 in FreeBSD).
const CLUSTER_CAP: u64 = 32;

/// Identifies an open file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(u64);

/// Errors from file-system operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// No free blocks remain.
    NoSpace,
    /// The file does not exist.
    NoSuchFile(FileId),
    /// Read beyond end of file.
    BeyondEof {
        /// The file whose end was passed.
        file: FileId,
        /// The offending byte offset.
        offset: u64,
    },
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NoSpace => write!(f, "no free blocks remain"),
            FsError::NoSuchFile(id) => write!(f, "file {id:?} does not exist"),
            FsError::BeyondEof { file, offset } => {
                write!(f, "read beyond end of file {file:?} at offset {offset}")
            }
        }
    }
}

impl Error for FsError {}

/// A condition the crash shadow could not represent on media. The
/// shadow latches the first one rather than failing the (infallible)
/// file-system call that hit it; crash harnesses check
/// [`FileSystem::shadow_error`] before trusting an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowError {
    /// A group ran out of inode slots; the new file exists in memory but
    /// never reaches media.
    InodeSlotsFull {
        /// The block group whose slots filled.
        group: u64,
    },
    /// A file fragmented past what one inode sector can describe; its
    /// on-media extent list is truncated.
    TooManyExtents {
        /// The file's raw id.
        id: u64,
        /// How many extents it actually has.
        have: usize,
    },
}

impl fmt::Display for ShadowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShadowError::InodeSlotsFull { group } => {
                write!(f, "group {group} has no free inode slots")
            }
            ShadowError::TooManyExtents { id, have } => write!(
                f,
                "file {id} spans {have} extents; its on-media inode is truncated"
            ),
        }
    }
}

impl Error for ShadowError {}

/// On-media bookkeeping for crash simulation: which inode slot each file
/// occupies, per-group metadata generations, and the content salt for
/// synthesized data payloads. Present only when the crash shadow is
/// enabled; the default timing-only path never allocates one.
#[derive(Debug)]
struct Shadow {
    /// Salt mixed into synthesized data-sector contents.
    salt: u64,
    /// Monotonic data-write counter (distinguishes overwrites).
    seq: u64,
    /// Metadata generation per on-media group.
    generations: Vec<u64>,
    /// Inode slot occupancy per inode-bearing group.
    slots: Vec<[Option<FileId>; image::INODE_SLOTS]>,
    /// First unrepresentable condition hit, if any.
    error: Option<ShadowError>,
}

impl Shadow {
    /// Encodes group `g`'s metadata block at `generation` from `layout`'s
    /// bitmap and the inodes in `files`. Files too fragmented for one
    /// inode sector are truncated on media and reported in the second
    /// return.
    #[expect(
        clippy::expect_used,
        reason = "every extent list is clamped to MAX_EXTENTS just above, and encoding fails on \
                  nothing else (fs::tests::fragmented_file_is_truncated_on_media)"
    )]
    fn group_meta_bytes(
        &self,
        layout: &Layout,
        files: &[Option<Inode>],
        g: u64,
        generation: u64,
    ) -> (Vec<u8>, Option<ShadowError>) {
        let base = g * BLOCKS_PER_GROUP;
        let alloc: Vec<bool> = (0..image::group_blocks(g, layout.blocks()))
            .map(|i| !layout.is_free(base + i))
            .collect();
        let mut slots: Vec<Option<image::InodeRec>> = vec![None; image::INODE_SLOTS];
        let mut err = None;
        if let Some(owners) = self.slots.get(g as usize) {
            for (si, owner) in owners.iter().enumerate() {
                let Some(fid) = owner else { continue };
                // A deleted file gives its slot up, so every owner is live.
                let Some(Some(inode)) = files.get(fid.0 as usize) else {
                    continue;
                };
                let mut extents = image::extents_of(&inode.blocks);
                if extents.len() > image::MAX_EXTENTS {
                    err = Some(ShadowError::TooManyExtents {
                        id: fid.0,
                        have: extents.len(),
                    });
                    extents.truncate(image::MAX_EXTENTS);
                }
                slots[si] = Some(image::InodeRec {
                    id: fid.0,
                    size_bytes: inode.size_bytes,
                    extents,
                });
            }
        }
        let bytes = image::encode_group(g, generation, &alloc, &slots)
            .expect("extent lists are clamped to MAX_EXTENTS");
        (bytes, err)
    }
}

/// Aggregate I/O statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Disk read commands issued.
    pub disk_reads: u64,
    /// Disk write commands issued.
    pub disk_writes: u64,
    /// Sectors read from disk.
    pub sectors_read: u64,
    /// Sectors written to disk.
    pub sectors_written: u64,
    /// Largest single read request, in sectors.
    pub largest_read_sectors: u64,
}

impl FsStats {
    /// Mean disk request size in bytes (reads and writes combined).
    pub fn mean_request_bytes(&self) -> f64 {
        let reqs = self.disk_reads + self.disk_writes;
        if reqs == 0 {
            return 0.0;
        }
        (self.sectors_read + self.sectors_written) as f64 * 512.0 / reqs as f64
    }
}

#[derive(Debug, Default)]
struct Inode {
    /// File block index → disk block number.
    blocks: Vec<u64>,
    size_bytes: u64,
    /// Sequential-access detector state.
    last_read: Option<u64>,
    seq_count: u64,
    accessed: bool,
    nonseq_seen: bool,
}

/// The FFS instance: layout + buffer cache + simulated clock over one disk.
#[derive(Debug)]
pub struct FileSystem {
    disk: Disk,
    layout: Layout,
    /// Sizes traxtent fetches and write-backs so none crosses a track.
    planner: RequestPlanner,
    cache: BufferCache,
    clock: SimTime,
    /// Inodes by raw file id; `None` marks a deleted file. Ids are handed
    /// out in sequence from 1, so slot 0 is never a file.
    files: Vec<Option<Inode>>,
    /// Prefetched runs still in flight: first block → (blocks, instant the
    /// data arrives). Runs never overlap, and each lies within one file.
    inflight: BTreeMap<u64, (u64, SimTime)>,
    stats: FsStats,
    /// The cluster limit of the dirty run starting at block `.0`, as last
    /// worked out by `maybe_commit_cluster` (it depends on the start alone).
    commit_limit: (u64, u64),
    /// Crash-consistency shadow (None on the default timing-only path).
    shadow: Option<Box<Shadow>>,
}

impl FileSystem {
    /// Default buffer-cache size: 8192 blocks = 64 MB.
    pub const DEFAULT_CACHE_BLOCKS: usize = 8192;

    /// Mounts a freshly formatted file system.
    pub fn format(disk: Disk, personality: Personality) -> Self {
        // Ground truth stands in for a prior extraction run (the dixtrac
        // crate produces identical tables).
        let boundaries = disk.track_boundaries();
        let capacity = disk.geometry().capacity_lbns();
        let layout = Layout::format(personality, boundaries, capacity);
        Self::with_layout(disk, layout)
    }

    fn with_layout(disk: Disk, layout: Layout) -> Self {
        FileSystem {
            disk,
            cache: BufferCache::new(Self::DEFAULT_CACHE_BLOCKS, layout.blocks() as usize),
            planner: RequestPlanner::new(layout.boundaries().clone()),
            layout,
            clock: SimTime::ZERO,
            files: vec![None],
            inflight: BTreeMap::new(),
            stats: FsStats::default(),
            commit_limit: (u64::MAX, 0),
            shadow: None,
        }
    }

    /// Turns on crash simulation: reserves each group's metadata block,
    /// attaches a crash log to the drive, and starts carrying an
    /// on-media payload (the [`crate::image`] format for metadata,
    /// salted patterns for data) on every write the file system issues.
    /// Data contents are synthesized from `salt`, so two runs with the
    /// same salt and workload produce bit-identical media.
    ///
    /// Call immediately after formatting, before any file exists — data
    /// allocated before the reservation could sit where metadata writes
    /// land.
    ///
    /// # Panics
    ///
    /// Panics if files already exist.
    pub fn enable_crash_shadow(&mut self, salt: u64) {
        assert!(
            self.files.iter().all(Option::is_none),
            "enable the crash shadow on a freshly formatted file system"
        );
        self.layout.reserve_group_metadata();
        self.disk.enable_crash_log();
        let groups = image::ngroups(self.layout.blocks()) as usize;
        let inode_groups = (self.layout.blocks() / BLOCKS_PER_GROUP) as usize;
        self.shadow = Some(Box::new(Shadow {
            salt,
            seq: 0,
            generations: vec![0; groups],
            slots: vec![[None; image::INODE_SLOTS]; inode_groups],
            error: None,
        }));
    }

    /// The first condition the crash shadow could not put on media, if
    /// any. A harness that sees `Some` should discard the run (the
    /// on-media image no longer tracks the in-memory state).
    pub fn shadow_error(&self) -> Option<ShadowError> {
        self.shadow.as_ref().and_then(|s| s.error)
    }

    /// The clean on-media image as of now: every group's metadata block
    /// encoded at its current generation, no data sectors. Captured right
    /// after [`enable_crash_shadow`](Self::enable_crash_shadow) it is the
    /// mkfs state a crash replay starts from.
    ///
    /// # Panics
    ///
    /// Panics if the crash shadow is not enabled.
    #[expect(clippy::expect_used, reason = "the # Panics contract")]
    pub fn format_image(&self) -> SectorImage {
        let sh = self.shadow.as_ref().expect("crash shadow not enabled");
        let mut img = SectorImage::new();
        for g in 0..image::ngroups(self.layout.blocks()) {
            let generation = sh.generations[g as usize];
            let (bytes, _) = sh.group_meta_bytes(&self.layout, &self.files, g, generation);
            image::write_group(&mut img, g, &bytes);
        }
        img
    }

    /// Writes every group's metadata block synchronously (the periodic
    /// metadata checkpoint a real FFS performs). Inodes and bitmaps not
    /// checkpointed — here or by a create/delete — since their last
    /// change are stale on media and it is fsck's job to reconcile them
    /// after a crash. Returns the clock at completion.
    ///
    /// # Panics
    ///
    /// Panics if the crash shadow is not enabled (without it the write
    /// would carry no payload and the checkpoint would be meaningless).
    pub fn checkpoint_metadata(&mut self) -> SimTime {
        assert!(self.shadow.is_some(), "crash shadow not enabled");
        for g in 0..image::ngroups(self.layout.blocks()) {
            self.write_group_metadata(g);
        }
        self.clock
    }

    /// Attaches group `g`'s freshly encoded metadata block as the payload
    /// of the metadata write just issued, bumping its generation. No-op
    /// without the shadow.
    fn attach_group_payload(&mut self, g: u64) {
        let Some(sh) = self.shadow.as_deref_mut() else {
            return;
        };
        let generation = sh.generations[g as usize] + 1;
        let (bytes, err) = sh.group_meta_bytes(&self.layout, &self.files, g, generation);
        sh.generations[g as usize] = generation;
        if let Some(e) = err {
            sh.error.get_or_insert(e);
        }
        self.disk.note_write_payload(&bytes);
    }

    /// Attaches a synthesized data payload (salted by the write sequence
    /// number, so overwrites are distinguishable) to the data write just
    /// issued. No-op without the shadow.
    fn attach_data_payload(&mut self, lbn: u64, sectors: u64) {
        let Some(sh) = self.shadow.as_deref_mut() else {
            return;
        };
        sh.seq += 1;
        let salt = sh.salt ^ sh.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let bytes = sim_disk::crash::pattern_payload(salt, lbn, sectors);
        self.disk.note_write_payload(&bytes);
    }

    /// Replaces the buffer cache with one of `blocks` blocks. Call right
    /// after formatting, before running workloads.
    ///
    /// # Panics
    ///
    /// Panics if anything is cached (a dirty block would be dropped
    /// unwritten), or if `blocks` is zero.
    pub fn set_cache_blocks(&mut self, blocks: usize) {
        assert!(
            self.cache.is_empty(),
            "set the cache size before running workloads: {} blocks are cached",
            self.cache.len()
        );
        self.cache = BufferCache::new(blocks, self.layout.blocks() as usize);
    }

    /// The layout (for inspection).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// I/O statistics so far.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    /// Buffer-cache `(hits, misses)` so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Publishes the file system's activity under `ffs.*`: buffer-cache
    /// hits/misses, where allocations were placed (track-aligned traxtent
    /// runs vs the track-unaware fallback), free-space fragmentation and
    /// exclusion high-water marks (parts per million), and disk request
    /// totals.
    pub fn export_metrics(&self, reg: &traxtent::obs::Registry) {
        let (hits, misses) = self.cache.stats();
        reg.add("ffs.cache.hits", hits);
        reg.add("ffs.cache.misses", misses);
        let a = self.layout.alloc_stats();
        reg.add("ffs.alloc.sequential", a.sequential);
        reg.add("ffs.alloc.track_aligned", a.track_aligned);
        reg.add("ffs.alloc.fallback", a.fallback);
        reg.set_max(
            "ffs.fragmentation_ppm",
            (self.layout.fragmentation() * 1e6) as u64,
        );
        reg.set_max(
            "ffs.excluded_ppm",
            (self.layout.excluded_fraction() * 1e6) as u64,
        );
        reg.add("ffs.disk.reads", self.stats.disk_reads);
        reg.add("ffs.disk.writes", self.stats.disk_writes);
        reg.add("ffs.disk.sectors_read", self.stats.sectors_read);
        reg.add("ffs.disk.sectors_written", self.stats.sectors_written);
    }

    /// Resets statistics.
    pub fn reset_stats(&mut self) {
        self.stats = FsStats::default();
    }

    /// The disk, mutably (crash harnesses detach its log with
    /// [`Disk::take_crash_log`]).
    pub fn disk_mut(&mut self) -> &mut Disk {
        &mut self.disk
    }

    /// Every live file as `(id, size_bytes, blocks)`, in id order, the id
    /// as on-media inodes record it — the in-memory truth crash harnesses
    /// compare recovered images against.
    pub fn live_files(&self) -> Vec<(u64, u64, Vec<u64>)> {
        self.files
            .iter()
            .enumerate()
            .filter_map(|(id, inode)| {
                let inode = inode.as_ref()?;
                Some((id as u64, inode.size_bytes, inode.blocks.clone()))
            })
            .collect()
    }

    fn inode(&self, file: FileId) -> Result<&Inode, FsError> {
        self.files
            .get(file.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(FsError::NoSuchFile(file))
    }

    /// The size of a file in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NoSuchFile`] for unknown ids.
    pub fn size_of(&self, file: FileId) -> Result<u64, FsError> {
        Ok(self.inode(file)?.size_bytes)
    }

    /// Creates an empty file, charging a synchronous one-block metadata
    /// write (inode + directory update).
    pub fn create(&mut self) -> FileId {
        let id = FileId(self.files.len() as u64);
        self.files.push(Some(Inode::default()));
        if let Some(sh) = self.shadow.as_deref_mut() {
            let g = (id.0 % (self.layout.blocks() / BLOCKS_PER_GROUP)) as usize;
            match sh.slots[g].iter_mut().find(|s| s.is_none()) {
                Some(slot) => *slot = Some(id),
                None => {
                    sh.error
                        .get_or_insert(ShadowError::InodeSlotsFull { group: g as u64 });
                }
            }
        }
        self.metadata_write(id);
        id
    }

    /// Deletes a file, releasing its blocks and charging a synchronous
    /// metadata write.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NoSuchFile`] for unknown ids.
    pub fn delete(&mut self, file: FileId) -> Result<(), FsError> {
        let inode = self
            .files
            .get_mut(file.0 as usize)
            .and_then(Option::take)
            .ok_or(FsError::NoSuchFile(file))?;
        for &b in &inode.blocks {
            self.cache.discard(b);
            // A run lies within one file, so its first block is one of these.
            self.inflight.remove(&b);
        }
        for (first, len) in image::extents_of(&inode.blocks) {
            self.layout.free(first, len);
        }
        if let Some(sh) = self.shadow.as_deref_mut() {
            let g = (file.0 % (self.layout.blocks() / BLOCKS_PER_GROUP)) as usize;
            for slot in sh.slots[g].iter_mut() {
                if *slot == Some(file) {
                    *slot = None;
                }
            }
        }
        self.metadata_write(file);
        Ok(())
    }

    /// Synchronous small write to the file's block group's metadata area.
    fn metadata_write(&mut self, file: FileId) {
        self.write_group_metadata(file.0 % (self.layout.blocks() / BLOCKS_PER_GROUP));
    }

    /// Writes group `g`'s metadata block (the first block of the group)
    /// and waits for it.
    fn write_group_metadata(&mut self, g: u64) {
        self.clock = self.issue_write(image::meta_lbn(g), BLOCK_SECTORS);
        self.attach_group_payload(g);
    }

    /// Issues one disk write at the current clock and counts it; returns
    /// its completion.
    fn issue_write(&mut self, lbn: u64, sectors: u64) -> SimTime {
        self.stats.disk_writes += 1;
        self.stats.sectors_written += sectors;
        let request = Request::write(lbn, sectors);
        self.disk.service(request, self.clock).completion
    }

    /// Issues one read of `blocks` blocks from block `db` at the current
    /// clock and counts it; returns the instant its data arrives.
    fn issue_fetch(&mut self, db: u64, blocks: u64) -> SimTime {
        let sectors = blocks * BLOCK_SECTORS;
        self.stats.disk_reads += 1;
        self.stats.sectors_read += sectors;
        self.stats.largest_read_sectors = self.stats.largest_read_sectors.max(sectors);
        let request = Request::read(self.layout.block_to_lbn(db), sectors);
        self.disk.service(request, self.clock).completion
    }

    /// Reads `len` bytes at `offset`. Returns when the data is available
    /// (cache hits cost no simulated time).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BeyondEof`] if the range extends past end of file
    /// and [`FsError::NoSuchFile`] for unknown ids.
    pub fn read(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), FsError> {
        if len == 0 {
            return Ok(());
        }
        if offset + len > self.inode(file)?.size_bytes {
            return Err(FsError::BeyondEof {
                file,
                offset: offset + len,
            });
        }
        let first = offset / BYTES_PER_BLOCK;
        let last = (offset + len - 1) / BYTES_PER_BLOCK;
        for fb in first..=last {
            self.read_block(file, fb)?;
        }
        Ok(())
    }

    /// Ensures file block `fb` is cached, fetching a read-ahead cluster on
    /// a miss and keeping one prefetch outstanding per sequential stream
    /// (unmodified FreeBSD "attempts to have at least one outstanding
    /// request for each active data stream", §4.2.2).
    fn read_block(&mut self, file: FileId, fb: u64) -> Result<(), FsError> {
        let inode = live_inode(&mut self.files, file)?;
        let db = inode.blocks[fb as usize];
        if self.cache.contains(db) {
            update_seq(inode, fb);
            return Ok(());
        }
        if let Some((first, len, ready)) = self.prefetch_covering(db) {
            // The prefetch covering this block is in flight. First queue the
            // *next* prefetch behind it — before blocking — so the drive
            // always has a request to start on (the command-queueing overlap
            // of §3.2); then wait and absorb the arrived request, its blocks
            // entering the cache in ascending order.
            self.maybe_prefetch(file, fb + len)?;
            self.clock = self.clock.max(ready);
            self.inflight.remove(&first);
            self.cache_run(first, len);
            update_seq(live_inode(&mut self.files, file)?, fb);
            return Ok(());
        }

        // Demand miss: fetch a cluster synchronously.
        let ra_len = self.plan_fetch(file, fb)?;
        self.clock = self.issue_fetch(db, ra_len);
        self.cache_run(db, ra_len);
        update_seq(live_inode(&mut self.files, file)?, fb);
        self.maybe_prefetch(file, fb + ra_len)
    }

    /// Caches the fetched blocks `[first, first + len)`, in ascending order,
    /// writing back whatever dirty block each one pushes out.
    fn cache_run(&mut self, first: u64, len: u64) {
        for b in first..first + len {
            if let Some(victim) = self.cache.insert(b) {
                self.write_run(victim, 1);
            }
        }
    }

    /// The in-flight prefetch holding block `db`, as `(first block, blocks,
    /// arrival)`.
    fn prefetch_covering(&self, db: u64) -> Option<(u64, u64, SimTime)> {
        let (&first, &(len, ready)) = self.inflight.range(..=db).next_back()?;
        (db < first + len).then_some((first, len, ready))
    }

    /// Sizes a fetch starting at file block `fb` according to the
    /// personality.
    fn plan_fetch(&self, file: FileId, fb: u64) -> Result<u64, FsError> {
        let inode = self.inode(file)?;
        let db = inode.blocks[fb as usize];
        // History-based ramp-up, as in the unmodified file system.
        let ramp = (inode.seq_count.max(1) + 1).min(CLUSTER_CAP);
        // The rest of the traxtent, up to `cap` blocks: the planner never
        // lets a fetch cross a track boundary (§4.2.2, "traxtent-sized
        // access").
        let traxtent = |cap: u64| {
            let sectors = cap * BLOCK_SECTORS;
            let lbn = self.layout.block_to_lbn(db);
            whole_blocks(self.planner.plan_prefetch(lbn, sectors, sectors))
        };
        let want = match self.layout.personality() {
            Personality::Unmodified => ramp,
            Personality::FastStart if !inode.accessed => CLUSTER_CAP,
            Personality::FastStart => ramp,
            Personality::Traxtent if !inode.nonseq_seen => traxtent(CLUSTER_CAP * 4),
            Personality::Traxtent => traxtent(ramp),
        };
        Ok(contiguous_run(inode, fb, &self.cache, want))
    }

    /// Issues an asynchronous prefetch for the run starting at file block
    /// `fb`, unless the file ends, the pattern is non-sequential, or data is
    /// already cached/in flight.
    fn maybe_prefetch(&mut self, file: FileId, fb: u64) -> Result<(), FsError> {
        let inode = self.inode(file)?;
        if fb as usize >= inode.blocks.len() || inode.nonseq_seen {
            return Ok(());
        }
        let db = inode.blocks[fb as usize];
        if self.cache.peek(db) || self.prefetch_covering(db).is_some() {
            return Ok(());
        }
        let len = self.plan_fetch(file, fb)?;
        let ready = self.issue_fetch(db, len);
        // Blocks of an older run that this one covers now arrive with it.
        let end = db + len;
        while let Some((&first, &(l, ready))) = self.inflight.range(db..end).next() {
            self.inflight.remove(&first);
            if first + l > end {
                self.inflight.insert(end, (first + l - end, ready));
            }
        }
        self.inflight.insert(db, (len, ready));
        Ok(())
    }

    /// Writes `len` bytes at `offset`, extending the file as needed. Data
    /// lands in the write-back cache; full clusters are committed to disk
    /// asynchronously.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NoSpace`] when allocation fails (partial writes
    /// are kept) and [`FsError::NoSuchFile`] for unknown ids.
    pub fn write(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), FsError> {
        if len == 0 {
            return Ok(());
        }
        let first = offset / BYTES_PER_BLOCK;
        let last = (offset + len - 1) / BYTES_PER_BLOCK;
        for fb in first..=last {
            // Allocate if beyond current allocation.
            let inode = live_inode(&mut self.files, file)?;
            let nblocks = inode.blocks.len() as u64;
            if fb >= nblocks {
                debug_assert_eq!(fb, nblocks, "writes are block-continuous");
                let prev = inode.blocks.last().copied();
                let hint = (last - fb + 1).min(CLUSTER_CAP);
                let db = self.layout.alloc_next(prev, hint).ok_or(FsError::NoSpace)?;
                inode.blocks.push(db);
            }
            let db = inode.blocks[fb as usize];
            // A partial overwrite of an uncached existing block reads it
            // first (read-modify-write at block granularity).
            let partial = (fb == first && !offset.is_multiple_of(BYTES_PER_BLOCK))
                || (fb == last && !(offset + len).is_multiple_of(BYTES_PER_BLOCK));
            let existed = fb < nblocks;
            if partial && existed && !self.cache.peek(db) {
                self.clock = self.issue_fetch(db, 1);
            }
            if let Some(victim) = self.cache.insert_dirty(db) {
                self.write_run(victim, 1);
            }
            // Commit a full cluster as soon as it exists (FFS behaviour).
            self.maybe_commit_cluster(db);
        }
        let inode = live_inode(&mut self.files, file)?;
        inode.size_bytes = inode.size_bytes.max(offset + len);
        Ok(())
    }

    /// If the dirty run containing `db` reached the cluster limit, write it
    /// out (asynchronously: the clock does not advance).
    fn maybe_commit_cluster(&mut self, db: u64) {
        let (start, end) = self.cache.dirty_run(db);
        if self.commit_limit.0 != start {
            self.commit_limit = (start, self.cluster_limit(start));
        }
        if end - start >= self.commit_limit.1 {
            self.write_run(start, end - start);
        }
    }

    /// The most blocks one write-back starting at block `start` may carry:
    /// to the end of its traxtent, as the planner clips it, for the
    /// traxtent personality, else the cluster cap.
    fn cluster_limit(&self, start: u64) -> u64 {
        match self.layout.personality() {
            Personality::Traxtent => {
                let lbn = self.layout.block_to_lbn(start);
                whole_blocks(self.planner.plan_writeback(lbn, u64::MAX))
            }
            _ => CLUSTER_CAP,
        }
    }

    /// Issues one disk write for blocks `[start, start+len)` and marks
    /// those still cached clean. Does not advance the application clock
    /// (write-back). An evicted dirty block is written this way too, alone:
    /// its neighbours were already clean or they would still be cached.
    fn write_run(&mut self, start: u64, len: u64) {
        let lbn = self.layout.block_to_lbn(start);
        self.issue_write(lbn, len * BLOCK_SECTORS);
        self.attach_data_payload(lbn, len * BLOCK_SECTORS);
        for b in start..start + len {
            self.cache.mark_clean(b);
        }
    }

    /// Flushes all dirty data and waits for the disk to go idle. Returns
    /// the clock at completion.
    pub fn sync(&mut self) -> SimTime {
        // Coalesce into contiguous runs, clipped per the write-back planner.
        for run in self.cache.dirty_blocks().chunk_by(|a, b| a + 1 == *b) {
            let (mut at, end) = (run[0], run[0] + run.len() as u64);
            while at < end {
                let chunk = self.cluster_limit(at).min(end - at);
                self.write_run(at, chunk);
                at += chunk;
            }
        }
        self.clock = self.clock.max(self.disk.idle_at());
        self.clock
    }

    /// Simulates a fresh boot for measurement: syncs, clears the buffer
    /// cache and drive state, resets the sequential detectors and the clock
    /// to zero.
    pub fn remount(&mut self) {
        self.sync();
        self.cache.clear();
        self.inflight.clear();
        self.disk.reset();
        self.clock = SimTime::ZERO;
        self.stats = FsStats::default();
        for inode in self.files.iter_mut().flatten() {
            inode.last_read = None;
            inode.seq_count = 0;
            inode.accessed = false;
            inode.nonseq_seen = false;
        }
    }

    /// Convenience: elapsed simulated time of `f`, measured from a fresh
    /// remount to a final sync.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, SimDur) {
        self.remount();
        let r = f(self);
        let end = self.sync();
        (r, end - SimTime::ZERO)
    }
}

/// The inode of `file`, borrowing the table alone so the cache, layout and
/// drive stay usable beside it.
fn live_inode(files: &mut [Option<Inode>], file: FileId) -> Result<&mut Inode, FsError> {
    files
        .get_mut(file.0 as usize)
        .and_then(Option::as_mut)
        .ok_or(FsError::NoSuchFile(file))
}

/// Updates an inode's sequential detector after an access to file block
/// `fb`.
fn update_seq(inode: &mut Inode, fb: u64) {
    match inode.last_read {
        Some(last) if fb == last + 1 => inode.seq_count += 1,
        Some(last) if fb == last => {}
        Some(_) => {
            inode.seq_count = 1;
            inode.nonseq_seen = true;
        }
        None => inode.seq_count = 1,
    }
    inode.last_read = Some(fb);
    inode.accessed = true;
}

/// The blocks a planned transfer of `sectors` carries: its whole blocks,
/// and at least one (a block that spans a boundary travels alone).
fn whole_blocks(sectors: u64) -> u64 {
    (sectors / BLOCK_SECTORS).max(1)
}

/// Length of the contiguously allocated, uncached run starting at file
/// block `fb`, capped.
fn contiguous_run(inode: &Inode, fb: u64, cache: &BufferCache, cap: u64) -> u64 {
    let tail = &inode.blocks[fb as usize..];
    let run = tail
        .iter()
        .zip(tail[0]..)
        .take(cap as usize)
        .take_while(|&(&db, next)| db == next && !cache.peek(db));
    (run.count() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::models;

    fn fs(p: Personality) -> FileSystem {
        FileSystem::format(Disk::new(models::small_test_disk()), p)
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn create_write_read_round_trip() {
        let mut f = fs(Personality::Unmodified);
        let id = f.create();
        f.write(id, 0, 4 * MB).unwrap();
        assert_eq!(f.size_of(id).unwrap(), 4 * MB);
        f.sync();
        f.read(id, 0, 4 * MB).unwrap();
        assert!(f.sync() > SimTime::ZERO);
    }

    #[test]
    fn traxtent_run_measures_to_track_end() {
        // 200-sector tracks: 12 whole blocks, then one that straddles.
        let table = traxtent::TrackBoundaries::uniform(400, 200);
        let layout = Layout::format(Personality::Traxtent, table, 400 * 200);
        let f = FileSystem::with_layout(Disk::new(models::small_test_disk()), layout);
        assert_eq!(f.cluster_limit(0), 12);
        assert_eq!(f.cluster_limit(5), 7);
        assert_eq!(f.cluster_limit(11), 1);
    }

    #[test]
    fn export_metrics_publishes_the_run() {
        let mut f = fs(Personality::Traxtent);
        let id = f.create();
        f.write(id, 0, 4 * MB).unwrap();
        f.sync();
        f.read(id, 0, 4 * MB).unwrap();
        f.read(id, 0, 4 * MB).unwrap();
        let reg = traxtent::obs::Registry::new();
        f.export_metrics(&reg);
        let snap = reg.snapshot();
        let stats = f.stats();
        assert_eq!(snap.get("ffs.disk.reads"), Some(stats.disk_reads));
        assert_eq!(snap.get("ffs.disk.writes"), Some(stats.disk_writes));
        let (hits, misses) = f.cache_stats();
        assert_eq!(snap.get("ffs.cache.hits"), Some(hits));
        assert!(hits > 0, "second read should hit the cache");
        assert_eq!(snap.get("ffs.cache.misses"), Some(misses));
        let a = f.layout().alloc_stats();
        assert!(a.sequential + a.track_aligned > 0);
        assert_eq!(snap.get("ffs.alloc.sequential"), Some(a.sequential));
        assert!(snap.get("ffs.excluded_ppm").unwrap() > 0);
    }

    #[test]
    fn read_beyond_eof_fails() {
        let mut f = fs(Personality::Unmodified);
        let id = f.create();
        f.write(id, 0, 1000).unwrap();
        assert!(matches!(
            f.read(id, 0, 1001),
            Err(FsError::BeyondEof { .. })
        ));
        assert!(f.read(id, 0, 1000).is_ok());
    }

    #[test]
    fn unknown_file_fails() {
        let mut f = fs(Personality::Unmodified);
        assert!(matches!(
            f.read(FileId(999), 0, 1),
            Err(FsError::NoSuchFile(_))
        ));
        assert!(matches!(f.delete(FileId(999)), Err(FsError::NoSuchFile(_))));
    }

    #[test]
    fn delete_releases_blocks() {
        let mut f = fs(Personality::Unmodified);
        let before = f.layout().free_blocks();
        let id = f.create();
        f.write(id, 0, 8 * MB).unwrap();
        f.sync();
        assert!(f.layout().free_blocks() < before);
        f.delete(id).unwrap();
        assert_eq!(f.layout().free_blocks(), before);
    }

    #[test]
    fn traxtent_files_avoid_excluded_blocks() {
        let mut f = fs(Personality::Traxtent);
        let id = f.create();
        f.write(id, 0, 8 * MB).unwrap();
        f.sync();
        let inode_blocks: Vec<u64> = {
            // Check every allocated block against the layout.
            (0..f.size_of(id).unwrap() / BYTES_PER_BLOCK).collect()
        };
        for fb in inode_blocks {
            f.read(id, fb * BYTES_PER_BLOCK, 1).unwrap();
        }
        // No panic from allocation invariants; excluded fraction intact.
        assert!(f.layout().excluded_fraction() > 0.0);
    }

    #[test]
    fn sequential_reads_use_clusters() {
        let mut f = fs(Personality::Unmodified);
        let id = f.create();
        f.write(id, 0, 16 * MB).unwrap();
        f.remount();
        f.read(id, 0, 16 * MB).unwrap();
        let s = f.stats();
        // 16 MB = 2048 blocks; with ramping read-ahead the request count
        // should be far below one per block.
        assert!(s.disk_reads < 600, "disk reads {}", s.disk_reads);
        assert_eq!(s.sectors_read, 2048 * BLOCK_SECTORS);
    }

    #[test]
    fn traxtent_reads_never_cross_tracks() {
        let mut f = fs(Personality::Traxtent);
        let id = f.create();
        f.write(id, 0, 16 * MB).unwrap();
        f.remount();
        f.read(id, 0, 16 * MB).unwrap();
        // No single read exceeds the largest track (200 sectors on the test
        // disk); the unmodified personality's 32-block clusters would be 512
        // sectors.
        assert!(f.stats().disk_reads > 0);
        assert!(
            f.stats().largest_read_sectors <= 200,
            "largest read {} sectors crosses a track",
            f.stats().largest_read_sectors
        );

        let mut u = fs(Personality::Unmodified);
        let id = u.create();
        u.write(id, 0, 16 * MB).unwrap();
        u.remount();
        u.read(id, 0, 16 * MB).unwrap();
        assert!(u.stats().largest_read_sectors > 200);
    }

    #[test]
    fn a_prefetch_takes_over_the_blocks_of_an_older_one_it_covers() {
        let mut f = fs(Personality::Unmodified);
        let id = f.create();
        f.write(id, 0, MB).unwrap();
        let blocks = f.live_files().remove(0).2;
        assert_eq!(blocks[14], blocks[8] + 6, "the file is contiguous");
        f.remount();
        // A stale prefetch of file blocks 10..14, then a four-block one at 8.
        let stale = SimTime::from_ns(1);
        f.inflight.insert(blocks[10], (4, stale));
        live_inode(&mut f.files, id).unwrap().seq_count = 3;
        f.maybe_prefetch(id, 8).unwrap();
        let fresh = f.disk.idle_at();
        let runs: Vec<_> = f.inflight.iter().map(|(&b, &r)| (b, r)).collect();
        assert_eq!(
            runs,
            vec![(blocks[8], (4, fresh)), (blocks[12], (2, stale))],
            "blocks 10 and 11 now arrive with the newer request"
        );
    }

    #[test]
    fn fast_start_fetches_aggressively_on_first_access() {
        let mut fast = fs(Personality::FastStart);
        let id = fast.create();
        fast.write(id, 0, MB).unwrap();
        fast.remount();
        fast.read(id, 0, 1).unwrap();
        // The demand fetch alone covers a full 32-block cluster.
        assert_eq!(fast.stats().largest_read_sectors, 32 * BLOCK_SECTORS);

        let mut unmod = fs(Personality::Unmodified);
        let id = unmod.create();
        unmod.write(id, 0, MB).unwrap();
        unmod.remount();
        unmod.read(id, 0, 1).unwrap();
        // Demand block + one read-ahead block (the pipelined prefetch for
        // the next run is also small during ramp-up).
        assert_eq!(unmod.stats().largest_read_sectors, 2 * BLOCK_SECTORS);
    }

    #[test]
    fn timed_measures_from_fresh_boot() {
        let mut f = fs(Personality::Unmodified);
        let id = f.create();
        f.write(id, 0, 4 * MB).unwrap();
        let (_, d1) = f.timed(|f| f.read(id, 0, 4 * MB).unwrap());
        let (_, d2) = f.timed(|f| f.read(id, 0, 4 * MB).unwrap());
        assert_eq!(d1, d2, "timed runs from fresh boots are reproducible");
        assert!(d1 > SimDur::ZERO);
    }

    #[test]
    fn no_space_is_reported() {
        let mut f = fs(Personality::Unmodified);
        let id = f.create();
        let total = f.layout().blocks() * BYTES_PER_BLOCK;
        assert!(matches!(
            f.write(id, 0, total + BYTES_PER_BLOCK),
            Err(FsError::NoSpace)
        ));
    }

    /// Two files written a block at a time in turn interleave on disk, so
    /// each needs more extents than an inode sector holds: the shadow
    /// latches the error and puts the first `MAX_EXTENTS` on media.
    #[test]
    fn fragmented_file_is_truncated_on_media() {
        let mut f = fs(Personality::Unmodified);
        f.enable_crash_shadow(7);
        let (a, b) = (f.create(), f.create());
        for i in 0..2 * image::MAX_EXTENTS as u64 {
            for id in [a, b] {
                f.write(id, i * BYTES_PER_BLOCK, BYTES_PER_BLOCK).unwrap();
            }
        }
        f.checkpoint_metadata();
        assert!(matches!(
            f.shadow_error(),
            Some(ShadowError::TooManyExtents { have, .. }) if have > image::MAX_EXTENTS
        ));
        let img = f.format_image();
        let on_media = (0..image::ngroups(f.layout().blocks()))
            .flat_map(|g| image::decode_group(&img, g, f.layout().blocks()).slots)
            .find_map(|s| match s {
                image::SlotState::Inode(rec) if rec.id == a.0 => Some(rec),
                _ => None,
            })
            .unwrap();
        assert_eq!(on_media.extents.len(), image::MAX_EXTENTS);
    }

    #[test]
    fn stats_mean_request_size() {
        let mut f = fs(Personality::Unmodified);
        let id = f.create();
        f.write(id, 0, 8 * MB).unwrap();
        f.remount();
        f.read(id, 0, 8 * MB).unwrap();
        assert!(f.stats().mean_request_bytes() > BYTES_PER_BLOCK as f64);
    }
}
