//! End-to-end LFS roll-forward properties: a random append/checkpoint
//! stream, a power cut at a random instant, then recovery must anchor on
//! the newest durable checkpoint and accept exactly the fully-durable
//! batch prefix — bit-exact and reproducible from (seed, cut) alone.

use lfs::recovery::{recover, LogDisk, RecoveredLog, LOG_START};
use proptest::prelude::*;
use sim_disk::crash::{pattern_payload, replay, CrashLog, SectorImage, SECTOR_USIZE};
use sim_disk::disk::Disk;
use sim_disk::{models, SimTime};
use traxtent::hash::splitmix64;

const CAPACITY: u64 = 4096;

/// One logged operation, with the index of the write command it issued
/// (appends and checkpoints each issue exactly one command, in order).
enum Op {
    Append {
        seq: u64,
        start_lbn: u64,
        data: Vec<u8>,
    },
    Checkpoint {
        generation: u64,
        head: u64,
        seq: u64,
    },
}

/// Runs a deterministic pseudo-random stream of appends (1–16 sectors)
/// and occasional checkpoints; returns the ops in issue order plus the
/// crash log.
fn build(seed: u64) -> (Vec<Op>, CrashLog) {
    let mut log = LogDisk::new(Disk::new(models::small_test_disk()), CAPACITY);
    let mut h = seed;
    let mut next = move || {
        h = splitmix64(h);
        h
    };
    // Checkpoints count generations from 1 and batches count sequence
    // numbers from 1, each on its own.
    let (mut generation, mut seq) = (0, 0);
    let mut ops = Vec::new();
    for i in 0..40 {
        if next() % 5 == 0 {
            log.checkpoint();
            generation += 1;
            ops.push(Op::Checkpoint {
                generation,
                head: log.head(),
                seq,
            });
        } else {
            let sectors = 1 + next() % 16;
            let start_lbn = log.head() + 1;
            let data = pattern_payload(seed ^ (i + 1), start_lbn, sectors);
            log.append(&data).expect("40 small batches fit in the log");
            seq += 1;
            ops.push(Op::Append {
                seq,
                start_lbn,
                data,
            });
        }
    }
    let l = log
        .disk_mut()
        .take_crash_log()
        .expect("LogDisk arms the log");
    (ops, l)
}

fn fully_durable(log: &CrashLog, record: usize, cut: SimTime) -> bool {
    log.records[record].durable.iter().all(|&d| d <= cut)
}

/// Where nothing durable exists — blank media, or a log cut before its
/// first checkpoint lands — recovery is the mkfs log: generation 0, the
/// head at `LOG_START`, nothing to roll forward.
#[test]
fn nothing_durable_recovers_the_empty_log() {
    let assert_empty = |got: RecoveredLog| {
        assert_eq!(
            (got.generation, got.checkpoint_head, got.head, got.seq),
            (0, LOG_START, LOG_START, 0)
        );
        assert!(got.batches.is_empty());
    };
    assert_empty(recover(&SectorImage::new(), CAPACITY));

    let mut log = LogDisk::new(Disk::new(models::small_test_disk()), CAPACITY);
    log.checkpoint();
    log.append(&pattern_payload(1, LOG_START + 1, 4))
        .expect("one small batch fits");
    let crash = log
        .disk_mut()
        .take_crash_log()
        .expect("LogDisk arms the log");
    let first_durable = crash.records[0].durable.iter().min().expect("one sector");
    let cut = SimTime::from_ns(first_durable.as_ns() - 1);
    let img = replay(&SectorImage::new(), &crash, cut).expect("payloads attached");
    assert_empty(recover(&img, CAPACITY));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For ANY cut point: recovery anchors on the max-generation durable
    /// checkpoint (or the mkfs fallback), accepts exactly the leading run
    /// of fully-durable batches past that anchor, returns their bytes
    /// bit-exact, and the whole pipeline reproduces from (seed, cut).
    #[test]
    fn any_cut_recovers_the_durable_prefix(
        seed in 0u64..u64::MAX,
        frac in 0u64..=1000,
    ) {
        let (ops, log) = build(seed);
        let cut = SimTime::from_ns(log.horizon().as_ns() * frac / 1000);
        let img = replay(&SectorImage::new(), &log, cut).expect("payloads attached");
        let got = recover(&img, CAPACITY);

        // Oracle, computed from the crash log's durability instants alone
        // (ops and write commands correspond one-to-one, in issue order).
        // Single-sector checkpoints are atomic: durable or absent.
        let mut anchor = (0u64, LOG_START, 0u64);
        for (rec, op) in ops.iter().enumerate() {
            if let Op::Checkpoint { generation, head, seq } = op {
                if fully_durable(&log, rec, cut) && *generation > anchor.0 {
                    anchor = (*generation, *head, *seq);
                }
            }
        }
        prop_assert_eq!(got.generation, anchor.0);
        prop_assert_eq!(got.checkpoint_head, anchor.1);
        prop_assert_eq!(got.checkpoint_seq, anchor.2);

        // Expected batches: the consecutive fully-durable run starting at
        // the anchor's sequence number (FCFS ⇒ log order is media order,
        // so the first torn or absent batch ends recovery).
        let mut want: Vec<(u64, u64, &[u8])> = Vec::new();
        let mut next_seq = anchor.2 + 1;
        for (rec, op) in ops.iter().enumerate() {
            if let Op::Append { seq, start_lbn, data } = op {
                if *seq != next_seq {
                    continue;
                }
                if !fully_durable(&log, rec, cut) {
                    break;
                }
                want.push((*seq, *start_lbn, data));
                next_seq += 1;
            }
        }
        prop_assert_eq!(got.batches.len(), want.len());
        let mut head = anchor.1;
        for (b, (seq, start_lbn, data)) in got.batches.iter().zip(&want) {
            prop_assert_eq!(b.seq, *seq);
            prop_assert_eq!(b.start_lbn, *start_lbn);
            prop_assert_eq!(&b.data[..], *data);
            head = start_lbn + (data.len() / SECTOR_USIZE) as u64;
        }
        prop_assert_eq!(got.head, head, "appends must resume exactly past the recovered tail");
        prop_assert_eq!(got.seq, next_seq - 1);

        // Bit-reproducibility: an identical run cut at the same instant
        // recovers identically.
        let (_, log2) = build(seed);
        let img2 = replay(&SectorImage::new(), &log2, cut).expect("payloads attached");
        prop_assert_eq!(&img2, &img);
        prop_assert_eq!(recover(&img2, CAPACITY), got);
    }

    /// Cutting at or past the horizon loses nothing: every batch after
    /// the last checkpoint is recovered and the resume point equals the
    /// writer's final head and sequence number.
    #[test]
    fn horizon_cut_recovers_everything(seed in 0u64..u64::MAX) {
        let (ops, log) = build(seed);
        let img = replay(&SectorImage::new(), &log, log.horizon()).expect("payloads attached");
        let got = recover(&img, CAPACITY);

        let mut final_head = LOG_START;
        let mut final_seq = 0;
        let mut appended = 0u64;
        for op in &ops {
            match op {
                Op::Append { seq, start_lbn, data } => {
                    final_head = start_lbn + (data.len() / SECTOR_USIZE) as u64;
                    final_seq = *seq;
                    appended += 1;
                }
                Op::Checkpoint { .. } => {}
            }
        }
        prop_assert_eq!(got.head, final_head);
        prop_assert_eq!(got.seq, final_seq);
        // The anchor covers everything up to its seq; roll-forward gets
        // the rest.
        prop_assert_eq!(got.batches.len() as u64, appended - got.checkpoint_seq);
    }
}
