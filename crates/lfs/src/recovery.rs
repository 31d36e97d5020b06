//! Roll-forward crash recovery for the LFS log (the BSD-LFS recovery
//! discipline, scaled to the simulator's crash model).
//!
//! [`LogDisk`] drives a crash-logged [`sim_disk::disk::Disk`] as an
//! append-only log with a byte-level on-media format:
//!
//! * LBNs 0 and 1 hold two alternating single-sector **checkpoints**
//!   (generation `g` lands on LBN `g % 2`, so a torn checkpoint never
//!   destroys its predecessor). Single-sector writes are atomic under the
//!   crash model — a sector is either durable or absent, never half-new.
//! * The log proper starts at [`LOG_START`]. Each appended **batch** is
//!   one summary sector followed by its data sectors, issued as a single
//!   multi-sector write command. The firmware may tear that command out
//!   of LBN order, so the summary can hit media while the data does not
//!   (or vice versa) — recovery trusts nothing without checksums.
//!
//! After a power cut, [`recover`] reads the resolved [`SectorImage`],
//! picks the newest durable checkpoint (falling back to the mkfs state:
//! generation 0, head at [`LOG_START`]), and rolls forward through
//! batches while each summary self-checksums, continues the sequence
//! numbering, and matches its data checksum. The first batch failing any
//! of those tests is a torn tail and everything from it on is discarded —
//! which is safe precisely because the writer is FCFS: log order is
//! media order, so nothing durable can hide behind a torn batch.

use crate::error::LfsError;
use sim_disk::crash::{checksum, SectorImage, SECTOR_USIZE};
use sim_disk::disk::{Disk, Request};
use sim_disk::SimTime;

/// The two alternating checkpoint sectors.
pub const CHECKPOINT_LBNS: [u64; 2] = [0, 1];
/// First LBN of the append-only log region.
pub const LOG_START: u64 = 2;

const MAGIC_CKPT: u64 = 0x5452_4158_434b_5054; // "TRAXCKPT"
const MAGIC_BATCH: u64 = 0x5452_4158_4241_5443; // "TRAXBATC"

/// Serializes `words` into the head of a sector and appends a
/// self-checksum word over them.
fn seal_sector(words: &[u64]) -> [u8; SECTOR_USIZE] {
    let mut sector = [0u8; SECTOR_USIZE];
    for (i, w) in words.iter().enumerate() {
        sector[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
    }
    let n = words.len();
    let sum = checksum(&sector[..n * 8]);
    sector[n * 8..(n + 1) * 8].copy_from_slice(&sum.to_le_bytes());
    sector
}

/// Reads `n` sealed words back out of `sector`, or `None` if the
/// self-checksum does not hold.
fn unseal_sector(sector: &[u8; SECTOR_USIZE], n: usize) -> Option<Vec<u64>> {
    let (words, _) = sector.as_chunks::<8>();
    if checksum(&sector[..n * 8]) != u64::from_le_bytes(words[n]) {
        return None;
    }
    Some(words[..n].iter().map(|&w| u64::from_le_bytes(w)).collect())
}

/// An append-only checkpointed log over a crash-logged disk.
#[derive(Debug)]
pub struct LogDisk {
    disk: Disk,
    clock: SimTime,
    capacity: u64,
    head: u64,
    seq: u64,
    generation: u64,
}

impl LogDisk {
    /// Wraps `disk` as a log over its first `capacity` LBNs, arming the
    /// crash log so every write's bytes and durability instants are
    /// recorded. The media starts blank (generation 0): until the first
    /// [`checkpoint`](Self::checkpoint) lands, recovery falls back to an
    /// empty log at [`LOG_START`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` does not leave room for the checkpoint pair
    /// plus at least one minimal batch.
    pub fn new(mut disk: Disk, capacity: u64) -> Self {
        assert!(capacity > LOG_START + 1, "log capacity too small");
        disk.enable_crash_log();
        LogDisk {
            disk,
            clock: SimTime::ZERO,
            capacity,
            head: LOG_START,
            seq: 0,
            generation: 0,
        }
    }

    /// Next LBN the log will append at.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// The underlying disk (e.g. to take the crash log after a run).
    pub fn disk_mut(&mut self) -> &mut Disk {
        &mut self.disk
    }

    /// Appends one batch — a sealed summary sector plus `data` — as a
    /// single write command and returns its completion time. `data` must
    /// be a non-empty whole number of sectors.
    ///
    /// # Errors
    ///
    /// Returns [`LfsError::LogFull`] (leaving the log untouched) when the
    /// batch does not fit between the head and the end of the device; the
    /// log never wraps.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or not sector-aligned.
    pub fn append(&mut self, data: &[u8]) -> Result<SimTime, LfsError> {
        assert!(
            !data.is_empty() && data.len().is_multiple_of(SECTOR_USIZE),
            "batch data must be a non-empty whole number of sectors"
        );
        let len = (data.len() / SECTOR_USIZE) as u64;
        let needed = 1 + len;
        let remaining = self.capacity - self.head;
        if needed > remaining {
            return Err(LfsError::LogFull { needed, remaining });
        }
        let seq = self.seq + 1;
        let summary = seal_sector(&[MAGIC_BATCH, seq, len, checksum(data)]);
        let mut payload = Vec::with_capacity((needed as usize) * SECTOR_USIZE);
        payload.extend_from_slice(&summary);
        payload.extend_from_slice(data);
        let c = self
            .disk
            .service(Request::write(self.head, needed), self.clock);
        self.disk.note_write_payload(&payload);
        self.clock = c.completion;
        self.head += needed;
        self.seq = seq;
        Ok(c.completion)
    }

    /// Writes the next checkpoint (single sector, alternating LBN) and
    /// returns its completion time. A durable checkpoint promises that
    /// every batch up to the current head survives recovery without a
    /// roll-forward scan reaching past it from an older generation.
    pub fn checkpoint(&mut self) -> SimTime {
        self.generation += 1;
        let lbn = CHECKPOINT_LBNS[(self.generation % 2) as usize];
        let sector = seal_sector(&[MAGIC_CKPT, self.generation, self.head, self.seq]);
        let c = self.disk.service(Request::write(lbn, 1), self.clock);
        self.disk.note_write_payload(&sector);
        self.clock = c.completion;
        c.completion
    }
}

/// One batch accepted by roll-forward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredBatch {
    /// The batch's sequence number.
    pub seq: u64,
    /// LBN of the batch's first data sector (the summary precedes it).
    pub start_lbn: u64,
    /// The batch's data bytes.
    pub data: Vec<u8>,
}

/// What recovery reconstructed from a post-cut image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredLog {
    /// Generation of the checkpoint recovery anchored on (0 = mkfs
    /// fallback, no durable checkpoint found).
    pub generation: u64,
    /// The anchoring checkpoint's log head.
    pub checkpoint_head: u64,
    /// The anchoring checkpoint's sequence number.
    pub checkpoint_seq: u64,
    /// Batches accepted by roll-forward, in log order.
    pub batches: Vec<RecoveredBatch>,
    /// Log head after roll-forward (where appends would resume).
    pub head: u64,
    /// Sequence number after roll-forward.
    pub seq: u64,
}

fn decode_checkpoint(image: &SectorImage, lbn: u64, capacity: u64) -> Option<(u64, u64, u64)> {
    let words = unseal_sector(&image.read(lbn), 4)?;
    let (magic, generation, head, seq) = (words[0], words[1], words[2], words[3]);
    if magic != MAGIC_CKPT || generation == 0 {
        return None;
    }
    // The stored head must point inside the log region; a corrupt head
    // would otherwise send roll-forward out of bounds.
    if head < LOG_START || head > capacity {
        return None;
    }
    Some((generation, head, seq))
}

/// Recovers the log from a power-cut image: anchors on the newest durable
/// checkpoint (or the mkfs fallback) and rolls forward, discarding the
/// torn tail. Never fails — an unreadable log is an empty log.
pub fn recover(image: &SectorImage, capacity: u64) -> RecoveredLog {
    let anchor = CHECKPOINT_LBNS
        .iter()
        .filter_map(|&lbn| decode_checkpoint(image, lbn, capacity))
        .max_by_key(|&(generation, _, _)| generation);
    let (generation, checkpoint_head, checkpoint_seq) = anchor.unwrap_or((0, LOG_START, 0));

    let mut head = checkpoint_head;
    let mut seq = checkpoint_seq;
    let mut batches = Vec::new();
    while let Some(words) = unseal_sector(&image.read(head), 4) {
        let (magic, bseq, len, sum) = (words[0], words[1], words[2], words[3]);
        if magic != MAGIC_BATCH || bseq != seq + 1 || len == 0 || head + 1 + len > capacity {
            break;
        }
        let mut data = Vec::with_capacity((len as usize) * SECTOR_USIZE);
        for lbn in head + 1..head + 1 + len {
            data.extend_from_slice(&image.read(lbn));
        }
        if checksum(&data) != sum {
            break;
        }
        batches.push(RecoveredBatch {
            seq: bseq,
            start_lbn: head + 1,
            data,
        });
        head += 1 + len;
        seq = bseq;
    }
    RecoveredLog {
        generation,
        checkpoint_head,
        checkpoint_seq,
        batches,
        head,
        seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::crash::{pattern_payload, replay};
    use sim_disk::models;

    fn log_disk() -> LogDisk {
        LogDisk::new(Disk::new(models::small_test_disk()), 4096)
    }

    fn cut_image(log: &mut LogDisk, cut: Option<SimTime>) -> SectorImage {
        let l = log.disk_mut().take_crash_log().expect("log armed");
        let cut = cut.unwrap_or_else(|| l.horizon());
        replay(&SectorImage::new(), &l, cut).expect("payloads attached")
    }

    #[test]
    fn clean_shutdown_round_trips() {
        let mut log = log_disk();
        let a = pattern_payload(1, LOG_START + 1, 3);
        let b = pattern_payload(2, 0, 5);
        log.append(&a).unwrap();
        log.append(&b).unwrap();
        log.checkpoint();
        let c = pattern_payload(3, 7, 2);
        log.append(&c).unwrap();
        let (head, seq) = (log.head(), log.seq);

        let img = cut_image(&mut log, None);
        let r = recover(&img, 4096);
        assert_eq!(r.generation, 1);
        assert_eq!(r.checkpoint_seq, 2);
        assert_eq!(r.head, head);
        assert_eq!(r.seq, seq);
        // Roll-forward resumes from the checkpoint, so only batch 3 is
        // re-scanned; the checkpoint already covers 1 and 2.
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.batches[0].seq, 3);
        assert_eq!(r.batches[0].data, c);
    }

    #[test]
    fn no_checkpoint_falls_back_to_mkfs_and_scans_from_log_start() {
        let mut log = log_disk();
        let a = pattern_payload(9, 0, 2);
        log.append(&a).unwrap();
        let img = cut_image(&mut log, None);
        let r = recover(&img, 4096);
        assert_eq!(r.generation, 0);
        assert_eq!(r.checkpoint_head, LOG_START);
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.batches[0].data, a);
    }

    #[test]
    fn cut_before_a_batch_is_durable_discards_the_tail() {
        let mut log = log_disk();
        log.append(&pattern_payload(4, 0, 2)).unwrap();
        let before_tail = log.clock;
        log.append(&pattern_payload(5, 0, 6)).unwrap();
        // Cut strictly before the second command starts: only batch 1 can
        // have durable sectors.
        let img = cut_image(&mut log, Some(before_tail));
        let r = recover(&img, 4096);
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.batches[0].seq, 1);
        assert_eq!(r.head, LOG_START + 3);
    }

    #[test]
    fn corrupt_data_checksum_stops_roll_forward() {
        let mut log = log_disk();
        let a = pattern_payload(6, 0, 2);
        let b = pattern_payload(7, 0, 2);
        log.append(&a).unwrap();
        log.append(&b).unwrap();
        let mut img = cut_image(&mut log, None);
        // Flip a byte in batch 2's data; batch 2 and everything after it
        // must be discarded.
        let lbn = LOG_START + 3 + 1;
        let mut s = img.read(lbn);
        s[17] ^= 0xff;
        img.write(lbn, &s);
        let r = recover(&img, 4096);
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.batches[0].data, a);
        assert_eq!(r.head, LOG_START + 3);
    }

    #[test]
    fn newer_checkpoint_wins_and_torn_checkpoint_falls_back() {
        let mut log = log_disk();
        log.append(&pattern_payload(8, 0, 2)).unwrap();
        log.checkpoint(); // gen 1 → LBN 1
        let gen1_done = log.clock;
        log.append(&pattern_payload(9, 0, 2)).unwrap();
        log.checkpoint(); // gen 2 → LBN 0

        let full = cut_image_clone(&mut log);
        let r = recover(&full.0, 4096);
        assert_eq!(r.generation, 2);
        assert_eq!(r.batches.len(), 0, "gen-2 checkpoint covers everything");

        // Cut before the gen-2 checkpoint was durable: gen 1 anchors and
        // roll-forward recovers batch 2.
        let mid = replay(&SectorImage::new(), &full.1, gen1_done).expect("payloads");
        let r = recover(&mid, 4096);
        assert_eq!(r.generation, 1);
        assert_eq!(r.batches.len(), 0, "batch 2 not yet durable at gen1_done");

        let r = recover(&full.0, 4096);
        assert_eq!(r.seq, 2);
    }

    fn cut_image_clone(log: &mut LogDisk) -> (SectorImage, sim_disk::crash::CrashLog) {
        let l = log.disk_mut().take_crash_log().expect("log armed");
        let img = replay(&SectorImage::new(), &l, l.horizon()).expect("payloads");
        (img, l)
    }

    #[test]
    fn log_full_is_a_typed_error_and_leaves_the_log_untouched() {
        let mut log = LogDisk::new(Disk::new(models::small_test_disk()), LOG_START + 4);
        let (head, seq) = (log.head(), log.seq);
        let err = log.append(&pattern_payload(1, 0, 4)).unwrap_err();
        assert_eq!(
            err,
            LfsError::LogFull {
                needed: 5,
                remaining: 4
            }
        );
        assert_eq!((log.head(), log.seq), (head, seq));
        // A smaller batch still fits afterwards.
        log.append(&pattern_payload(1, 0, 3)).unwrap();
    }
}
