//! A `server::video` round against the loop it replaced.
//!
//! A video round used to be timed by hand: sort the round's LBNs, issue
//! every read with `Disk::service` at the round start (all queued at the
//! drive), and end the round at the last completion. Now a round is a
//! burst of arrivals at the round start that `server::serve` dispatches
//! under C-LOOK as one batch. That loop lives on here as the oracle, on a
//! twin of the same drive: over several consecutive rounds, every read
//! must complete at the same instant on both drives, and each round must
//! end where the twin's last read does. The property prints how often
//! each kind of round ran and fails if one hardly did.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use server::video;
use sim_disk::disk::{Disk, DiskConfig, Request};
use sim_disk::fault::FaultConfig;
use sim_disk::models;
use sim_disk::SimTime;

/// The replaced round: the reads in ascending-LBN order, all issued at
/// `start`. Returns each read's completion in that order.
fn sorted_round(disk: &mut Disk, start: SimTime, lbns: &[u64], io_sectors: u64) -> Vec<SimTime> {
    let mut sorted = lbns.to_vec();
    sorted.sort_unstable();
    (sorted.iter())
        .map(|&lbn| {
            disk.service(Request::read(lbn, io_sectors), start)
                .completion
        })
        .collect()
}

/// The drive a case runs on: the Atlas 10K II or the small test drive,
/// optionally with transient command failures and media retries on.
fn drive(atlas: bool, faults: Option<u64>) -> DiskConfig {
    let mut cfg = if atlas {
        models::quantum_atlas_10k_ii()
    } else {
        models::small_test_disk()
    };
    if let Some(seed) = faults {
        cfg.fault = FaultConfig {
            media_per_million: 2_000,
            transient_per_million: 100_000,
            seed,
            ..FaultConfig::default()
        };
    }
    cfg
}

#[test]
fn a_video_round_matches_the_sorted_loop() {
    let name = "a_video_round_matches_the_sorted_loop";
    let mut tally = Tally::default();
    for_cases(
        name,
        128,
        (
            (any_bool(), any_bool(), any_bool()),
            (0u8..4, 2usize..25, 3usize..6),
            (1u64..3, 0u8..4, 0u64..u64::MAX),
        ),
        |((atlas, aligned, faulty), (shape, many, rounds), (tracks, dup, seed))| {
            let cfg = drive(atlas, faulty.then_some(seed));
            let v = if shape == 0 { 1 } else { many };
            let mut disk = Disk::new(cfg.clone());
            let mut twin = Disk::new(cfg);
            let zone = disk.geometry().zones()[0];
            let track = u64::from(disk.geometry().track(0).lbn_count());
            let io_sectors = if aligned {
                tracks * track
            } else {
                1 + seed % (2 * track)
            };
            let starts = disk.geometry().track_starts_fitting(0, io_sectors);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut now = SimTime::ZERO;
            let mut duplicated = false;
            for _ in 0..rounds {
                let mut lbns: Vec<u64> = (0..v)
                    .map(|_| {
                        if aligned {
                            starts[rng.gen_range(0..starts.len())]
                        } else {
                            zone.first_lbn + rng.gen_range(0..zone.lbn_count - io_sectors)
                        }
                    })
                    .collect();
                if dup == 0 && v > 1 {
                    lbns[v - 1] = lbns[rng.gen_range(0..v - 1)];
                }
                let mut seen = lbns.clone();
                seen.sort_unstable();
                seen.dedup();
                duplicated |= seen.len() < v;

                let want = sorted_round(&mut twin, now, &lbns, io_sectors);
                let got = video::round(&mut disk, now, &lbns, io_sectors).unwrap();
                assert_eq!((got.completed(), got.rejected()), (v as u64, 0));
                assert_eq!(got.dispatches, v as u64, "one command a read");
                // The twin served the reads in `(lbn, id)` order.
                let mut order: Vec<usize> = (0..v).collect();
                order.sort_by_key(|&id| (lbns[id], id));
                for (k, &id) in order.iter().enumerate() {
                    let c = got.completions[id];
                    assert_eq!(c.id, id as u64);
                    assert_eq!(c.arrival, now);
                    assert_eq!(c.completion, want[k], "read {id} (sorted {k}) of {lbns:?}");
                }
                assert_eq!(Some(&got.sim_end), want.last(), "the round's end");
                now = got.sim_end;
            }
            let stats = disk.fault_stats();
            assert_eq!(stats, twin.fault_stats());
            tally.note(if aligned { "aligned" } else { "unaligned" });
            tally.note(if atlas { "atlas" } else { "small_test_disk" });
            tally.note_if(duplicated, "duplicate_lbn");
            tally.note_if(v == 1, "v_is_1");
            tally.note_if(
                stats.transient_recovered > 0 && stats.media_errors > 0,
                "transient_and_media_retries",
            );
        },
    );
    tally.require(
        name,
        &[
            "aligned",
            "unaligned",
            "atlas",
            "small_test_disk",
            "duplicate_lbn",
            "v_is_1",
            "transient_and_media_retries",
        ],
    );
}

/// A fair coin.
fn any_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}
