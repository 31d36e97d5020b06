//! Deterministic power-cut simulation: decide exactly which sectors of
//! which writes had reached the media at an arbitrary cut instant.
//!
//! # Model
//!
//! A write command "hits media" sector by sector: each sector becomes
//! durable at the instant the head finishes writing its physical slot.
//! With the crash log enabled ([`crate::disk::Disk::enable_crash_log`])
//! the drive records, for every write command, the per-sector durable
//! instants computed by the same mechanical pass that produces the
//! command's service time — seek, settle, rotation, zero-latency
//! reordering, slipped/remapped defects, and recovered-media-error
//! retries all shift the instants exactly as they shift the timing.
//!
//! A *power cut* at simulated instant `T` then resolves bit-reproducibly
//! from the log alone:
//!
//! * a sector with durable instant ≤ `T` holds the payload of the last
//!   such write (writes are FCFS, so log order is media order);
//! * every other sector holds whatever it held before — torn
//!   multi-sector writes leave a mix, and zero-latency writes can tear
//!   *out of LBN order* (the firmware writes sectors as they pass under
//!   the head);
//! * volatile contents — the drive's read cache, host buffer caches,
//!   anything never issued as a write — are simply absent from the log
//!   and therefore lost.
//!
//! Because the durable instants are pure functions of the request trace
//! and the fault seed, the post-cut image is a pure function of
//! `(seed, cut_time)`: replaying the same workload and cutting at the
//! same instant yields a byte-identical [`SectorImage`].
//!
//! Payloads are attached by the issuing layer via
//! [`crate::disk::Disk::note_write_payload`] right after each write is
//! serviced; [`replay`] stitches log and payloads into the on-media
//! image at the cut.

use crate::{SimTime, SECTOR_BYTES};
use std::collections::BTreeMap;
use std::fmt;
use traxtent::hash::splitmix64;

/// Sector size in bytes, as a `usize` (see [`crate::SECTOR_BYTES`]).
pub const SECTOR_USIZE: usize = SECTOR_BYTES as usize;

/// One logged write command: where it landed and when each of its
/// sectors became durable.
#[derive(Debug, Clone)]
pub struct WriteRecord {
    /// Drive-assigned request sequence number.
    pub req: u64,
    /// First LBN written.
    pub lbn: u64,
    /// Number of sectors written.
    pub len: u64,
    /// Command issue instant.
    pub issue: SimTime,
    /// Per-sector durable instants, in LBN order (`durable[i]` is when
    /// `lbn + i` hit media). Zero-latency firmware makes these
    /// non-monotonic within a track.
    pub durable: Vec<SimTime>,
    /// Sector contents (`len * SECTOR_BYTES` bytes, LBN order), attached
    /// by the issuing layer. `None` until
    /// [`crate::disk::Disk::note_write_payload`] runs.
    pub payload: Option<Vec<u8>>,
}

impl WriteRecord {
    /// How many of the write's sectors were durable at `cut`.
    pub fn durable_count(&self, cut: SimTime) -> usize {
        self.durable.iter().filter(|&&d| d <= cut).count()
    }

    /// Whether the write is torn at `cut`: some sectors hit media and
    /// some did not.
    pub fn torn_at(&self, cut: SimTime) -> bool {
        let n = self.durable_count(cut);
        n > 0 && n < self.len as usize
    }
}

/// The append-only log of write commands a drive serviced, in issue
/// (equivalently, media) order.
#[derive(Debug, Clone, Default)]
pub struct CrashLog {
    /// The logged writes.
    pub records: Vec<WriteRecord>,
}

impl CrashLog {
    /// Number of logged writes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no writes have been logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The latest durable instant in the log — cutting at or after this
    /// instant loses nothing that was ever written.
    pub fn horizon(&self) -> SimTime {
        self.records
            .iter()
            .flat_map(|r| r.durable.iter().copied())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Attaches `payload` to the most recent record. Used by
    /// [`crate::disk::Disk::note_write_payload`].
    ///
    /// # Panics
    ///
    /// Panics if the log is empty, the last record already has a
    /// payload, or the payload length is not `len * SECTOR_BYTES` —
    /// all three are caller contract violations, not runtime states.
    #[expect(clippy::expect_used, reason = "the # Panics contract")]
    pub fn attach_payload(&mut self, payload: Vec<u8>) {
        let rec = self
            .records
            .last_mut()
            .expect("no write to attach a payload to");
        assert!(
            rec.payload.is_none(),
            "write {} already has a payload",
            rec.req
        );
        assert_eq!(
            payload.len(),
            rec.len as usize * SECTOR_USIZE,
            "payload length must be len * SECTOR_BYTES for write {}",
            rec.req
        );
        rec.payload = Some(payload);
    }
}

/// Why a power-cut replay could not be resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashError {
    /// A logged write had durable sectors at the cut but no payload was
    /// ever attached, so the on-media bytes are unknowable.
    MissingPayload {
        /// The offending write's request sequence number.
        req: u64,
    },
    /// A cut was asked of a capture that was never armed: there is no
    /// snapshot to resolve it against.
    NotArmed,
}

impl fmt::Display for CrashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashError::MissingPayload { req } => {
                write!(f, "write {req} hit media but has no recorded payload")
            }
            CrashError::NotArmed => write!(f, "power cut without armed crash capture"),
        }
    }
}

impl std::error::Error for CrashError {}

/// A sparse byte-addressed disk image: sector contents keyed by LBN.
/// Unwritten sectors read as zeros. `BTreeMap` keeps iteration order
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SectorImage {
    sectors: BTreeMap<u64, Box<[u8; SECTOR_USIZE]>>,
}

impl SectorImage {
    /// An empty (all-zeros) image.
    pub fn new() -> Self {
        SectorImage::default()
    }

    /// The sector's contents, zeros if never written.
    pub fn read(&self, lbn: u64) -> [u8; SECTOR_USIZE] {
        match self.sectors.get(&lbn) {
            Some(s) => **s,
            None => [0u8; SECTOR_USIZE],
        }
    }

    /// Overwrites one sector.
    pub fn write(&mut self, lbn: u64, data: &[u8; SECTOR_USIZE]) {
        self.sectors.insert(lbn, Box::new(*data));
    }
}

/// Hands `write` every sector a power cut at `cut` leaves durable, with
/// the payload bytes it holds, in log (media) order: a sector written
/// twice before the cut comes twice, the later payload last. Sectors
/// whose durable instant is after `cut` are not handed over.
///
/// # Errors
///
/// [`CrashError::MissingPayload`] for the first write with a durable
/// sector and no payload; the sectors of earlier writes have been
/// handed over by then.
pub fn durable_sectors(
    log: &CrashLog,
    cut: SimTime,
    mut write: impl FnMut(u64, &[u8; SECTOR_USIZE]),
) -> Result<(), CrashError> {
    for rec in &log.records {
        let durable = &rec.durable[..rec.len as usize];
        if !durable.iter().any(|&d| d <= cut) {
            continue;
        }
        let payload = rec
            .payload
            .as_deref()
            .ok_or(CrashError::MissingPayload { req: rec.req })?;
        let (sectors, _) = payload.as_chunks::<SECTOR_USIZE>();
        for ((lbn, &d), sector) in (rec.lbn..).zip(durable).zip(sectors) {
            if d <= cut {
                write(lbn, sector);
            }
        }
    }
    Ok(())
}

/// The on-media image an observer would find after losing power at
/// `cut`: `initial` with every [`durable_sectors`] sector written over it.
pub fn replay(
    initial: &SectorImage,
    log: &CrashLog,
    cut: SimTime,
) -> Result<SectorImage, CrashError> {
    let mut img = initial.clone();
    durable_sectors(log, cut, |lbn, sector| img.write(lbn, sector))?;
    Ok(img)
}

/// A 64-bit checksum over arbitrary bytes (SplitMix64-mixed FNV-style
/// fold). Not cryptographic — it detects torn sectors, which is all an
/// fsck/roll-forward pass needs.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(w));
    }
    h
}

/// A deterministic 512-byte fill pattern for sector `lbn` under `salt` —
/// the canonical "user data" payload crash tests check bit-exactness
/// against.
pub fn pattern_sector(salt: u64, lbn: u64) -> [u8; SECTOR_USIZE] {
    let mut s = [0u8; SECTOR_USIZE];
    let base = splitmix64(salt ^ lbn.rotate_left(32));
    for (k, w) in s.chunks_mut(8).enumerate() {
        w.copy_from_slice(&splitmix64(base ^ k as u64).to_le_bytes());
    }
    s
}

/// `len` sectors of [`pattern_sector`] starting at `lbn`, concatenated —
/// ready to hand to [`crate::disk::Disk::note_write_payload`].
pub fn pattern_payload(salt: u64, lbn: u64, len: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len as usize * SECTOR_USIZE);
    for i in 0..len {
        out.extend_from_slice(&pattern_sector(salt, lbn + i));
    }
    out
}

/// Packs one `u64` word per sector (little-endian in the first 8 bytes,
/// rest zeros) — the payload encoding for word-per-sector data planes.
pub fn words_payload(words: &[u64]) -> Vec<u8> {
    let mut out = vec![0u8; words.len() * SECTOR_USIZE];
    for (i, w) in words.iter().enumerate() {
        out[i * SECTOR_USIZE..i * SECTOR_USIZE + 8].copy_from_slice(&w.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusConfig;
    use crate::cache::CacheConfig;
    use crate::disk::{Disk, DiskConfig, Request};
    use crate::fault::FaultConfig;
    use crate::geometry::{GeometrySpec, ZoneSpec};
    use crate::mech::{SeekCurve, Spindle};
    use crate::SimDur;

    fn crash_disk(zero_latency: bool) -> Disk {
        crash_disk_with(zero_latency, FaultConfig::default())
    }

    fn crash_disk_with(zero_latency: bool, fault: FaultConfig) -> Disk {
        let geometry = GeometrySpec::pristine(
            2,
            vec![ZoneSpec {
                cylinders: 50,
                spt: 200,
                track_skew: 30,
                cyl_skew: 40,
            }],
        )
        .build()
        .unwrap();
        let mut d = Disk::new(DiskConfig {
            name: "crash-test".to_string(),
            geometry,
            spindle: Spindle::new(10_000),
            seek: SeekCurve::calibrate(0.8, 2.0, 4.0, 50),
            head_switch: SimDur::from_millis_f64(0.8),
            write_settle: SimDur::from_millis_f64(1.0),
            cmd_overhead: SimDur::from_micros_f64(100.0),
            zero_latency,
            bus: BusConfig::infinite(),
            cache: CacheConfig::default(),
            tracer: None,
            fault,
        });
        d.enable_crash_log();
        d
    }

    #[test]
    fn durable_instants_sit_inside_the_media_window() {
        let mut d = crash_disk(false);
        let c = d.service(Request::write(1000, 64), SimTime::ZERO);
        d.note_write_payload(&pattern_payload(1, 1000, 64));
        let log = d.crash_log().unwrap();
        let rec = &log.records[0];
        assert_eq!(rec.len, 64);
        assert_eq!(rec.durable.len(), 64);
        for &t in &rec.durable {
            assert!(t > c.service_start && t <= c.media_end);
        }
        // Ordinary (non-zero-latency) firmware writes in LBN order.
        for w in rec.durable.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn zero_latency_write_tears_out_of_lbn_order() {
        let mut d = crash_disk(true);
        // Seek somewhere mid-track so the full-track write starts on an
        // arbitrary angle and is reordered by access-on-arrival.
        let c0 = d.service(Request::write(137, 1), SimTime::ZERO);
        d.note_write_payload(&pattern_payload(0, 137, 1));
        let c = d.service(Request::write(0, 200), c0.completion);
        d.note_write_payload(&pattern_payload(0, 0, 200));
        let rec = &d.crash_log().unwrap().records[1];
        let monotonic = rec.durable.windows(2).all(|w| w[0] <= w[1]);
        assert!(
            !monotonic,
            "zero-latency full-track write should commit sectors out of LBN order"
        );
        // Cut in the middle of the media window: the durable set must be
        // a strict subset chosen by rotation order, not a prefix.
        let mid = SimTime::from_ns((c.service_start.as_ns() + c.media_end.as_ns()) / 2);
        assert!(rec.torn_at(mid));
    }

    #[test]
    fn replay_is_bit_reproducible_and_respects_cuts() {
        let run = || {
            let mut d = crash_disk(true);
            let mut t = SimTime::ZERO;
            for i in 0..30u64 {
                let lbn = (i * 977) % 10_000;
                let len = 1 + (i * 37) % 300;
                let c = d.service(Request::write(lbn, len), t);
                d.note_write_payload(&pattern_payload(42 + i, lbn, len));
                t = c.completion;
            }
            d.take_crash_log().unwrap()
        };
        let log = run();
        let log2 = run();
        let horizon = log.horizon();
        for num in [0u64, 1, 3, 7, 10] {
            let cut = SimTime::from_ns(horizon.as_ns() * num / 10);
            let a = replay(&SectorImage::new(), &log, cut).unwrap();
            let b = replay(&SectorImage::new(), &log2, cut).unwrap();
            assert_eq!(a, b, "cut {num}/10 must replay bit-identically");
        }
        // Cutting at the horizon applies everything: each sector holds the
        // payload of the last write covering it.
        let full = replay(&SectorImage::new(), &log, horizon).unwrap();
        let mut expect = SectorImage::new();
        for rec in &log.records {
            let p = rec.payload.as_deref().unwrap();
            for i in 0..rec.len as usize {
                let mut s = [0u8; SECTOR_USIZE];
                s.copy_from_slice(&p[i * SECTOR_USIZE..(i + 1) * SECTOR_USIZE]);
                expect.write(rec.lbn + i as u64, &s);
            }
        }
        assert_eq!(full, expect);
        // Cutting at zero applies nothing.
        let none = replay(&SectorImage::new(), &log, SimTime::ZERO).unwrap();
        assert_eq!(none, SectorImage::new());
    }

    #[test]
    fn missing_payload_is_a_typed_error() {
        let mut d = crash_disk(true);
        let c = d.service(Request::write(0, 8), SimTime::ZERO);
        let log = d.take_crash_log().unwrap();
        let err = replay(&SectorImage::new(), &log, c.media_end).unwrap_err();
        assert!(matches!(err, CrashError::MissingPayload { req: 0 }));
        // But a cut before anything hit media needs no payloads.
        assert!(replay(&SectorImage::new(), &log, SimTime::ZERO).is_ok());
    }

    #[test]
    fn media_error_retry_delays_durability() {
        let mk = |media_ppm: u32| {
            let fault = FaultConfig {
                media_per_million: media_ppm,
                ..FaultConfig::default()
            };
            let mut d = crash_disk_with(false, fault);
            let _ = d.service(Request::write(0, 32), SimTime::ZERO);
            d.note_write_payload(&pattern_payload(0, 0, 32));
            d.take_crash_log().unwrap().records[0].durable.clone()
        };
        let clean = mk(0);
        let faulty = mk(1_000_000);
        let rev = Spindle::new(10_000).revolution();
        for (a, b) in clean.iter().zip(&faulty) {
            assert_eq!(*a + rev, *b, "retry shifts durability by one revolution");
        }
    }
}
