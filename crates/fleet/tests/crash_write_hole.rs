//! Write-hole properties: random volume workloads, power cuts at the
//! logged durable instants, then the repair scrub must restore the
//! redundancy invariant without ever touching data columns —
//! reproducibly from (seed, cut) alone.

use fleet::{
    member_boundaries, pattern_word, FleetError, SectorStore, StripePolicy, Volume, FAULT_RETRIES,
};
use proptest::prelude::*;
use sim_disk::crash::CrashLog;
use sim_disk::disk::Disk;
use sim_disk::models;
use sim_disk::SimTime;
use traxtent::hash::splitmix64;
use traxtent::obs::Registry;

/// Member spindle speeds. Identical members service a logical write's
/// member commands in lockstep, so a cut tears every column at the same
/// offset and opens no hole; unequal speeds spread their durable instants.
const RPMS: [u32; 3] = [10_000, 12_000, 15_000];

/// A RAID-5 volume of three members (a two-way mirror when `raid5` is
/// false) at [`RPMS`], formatted, armed, and run through [`workload`]
/// from `seed`; with every member's store as the arm found it.
fn armed(raid5: bool, seed: u64) -> (Volume, Vec<SectorStore>) {
    let n = if raid5 { 3 } else { 2 };
    let members: Vec<_> = RPMS[..n]
        .iter()
        .map(|&rpm| {
            let mut cfg = models::small_test_disk();
            cfg.spindle = sim_disk::mech::Spindle::new(rpm);
            let d = Disk::new(cfg);
            let b = member_boundaries(&d);
            (d, b)
        })
        .collect();
    let policy = StripePolicy::aligned();
    let mut v = if raid5 {
        Volume::raid5(members, policy)
    } else {
        Volume::mirrored(members, policy)
    }
    .unwrap();
    v.format(0x5eed);
    v.arm_crash();
    let base = (0..n).map(|m| v.member_store(m).unwrap().clone()).collect();
    workload(&mut v, seed);
    (v, base)
}

/// Random writes (and a few reads to interleave member traffic), all
/// derived from `seed`.
fn workload(v: &mut Volume, seed: u64) {
    let mut h = seed;
    let mut next = move || {
        h = splitmix64(h);
        h
    };
    let cap = v.capacity();
    let mut t = SimTime::ZERO;
    for _ in 0..25 {
        let len = 1 + next() % 256;
        let lbn = next() % (cap - len);
        if next() % 4 == 0 {
            let (c, _) = v.read(lbn, len, t).expect("healthy volume serves reads");
            t = c.completion;
        } else {
            let words: Vec<u64> = (0..len).map(|o| splitmix64(seed ^ (lbn + o))).collect();
            let c = v
                .write(lbn, &words, t)
                .expect("healthy volume serves writes");
            t = c.completion;
        }
    }
}

/// Every logical word, read back through the volume (data columns only —
/// parity never appears in the logical space).
fn logical_contents(v: &mut Volume) -> Vec<u64> {
    let cap = v.capacity();
    let mut out = Vec::with_capacity(cap as usize);
    let mut lbn = 0;
    while lbn < cap {
        let len = 2048.min(cap - lbn);
        let (_, words) = v.read(lbn, len, SimTime::ZERO).expect("healthy read");
        out.extend(words);
        lbn += len;
    }
    out
}

/// Every durable instant a volume [`armed`] from `seed` logged, in ns,
/// ascending.
fn durable_instants(raid5: bool, seed: u64) -> Vec<u64> {
    let (v, base) = armed(raid5, seed);
    let logs = (0..base.len()).map(|m| v.member_crash_log(m).unwrap());
    let mut instants: Vec<u64> = (logs.flat_map(|l| &l.records))
        .flat_map(|r| r.durable.iter().map(|d| d.as_ns()))
        .collect();
    instants.sort_unstable();
    instants
}

/// A cut aimed as crash_sweep's `snap_cut` aims one: at the durable
/// instant `pick` selects, moved by `nudge − 1` ns; or, for `at` 0 and 1,
/// anywhere before the first durable instant and at or just after the
/// last.
fn draw_cut(instants: &[u64], at: u8, pick: u64, nudge: u64) -> SimTime {
    let (first, last) = (instants[0], instants[instants.len() - 1]);
    SimTime::from_ns(match at {
        0 => pick % first,
        1 => last + nudge,
        _ => (instants[(pick % instants.len() as u64) as usize] + nudge).saturating_sub(1),
    })
}

/// Cuts a volume [`armed`] from `seed` at `cut` and checks every member
/// store against the arm's snapshot with, in log order, the first word
/// of each sector durable by `cut` written over it.
fn cut_and_check(raid5: bool, seed: u64, cut: SimTime) -> (Volume, fleet::PowerCutReport) {
    let (mut v, base) = armed(raid5, seed);
    let logs: Vec<CrashLog> = (0..base.len())
        .map(|m| v.member_crash_log(m).unwrap().clone())
        .collect();
    let report = v.power_cut(cut).expect("all write paths attach payloads");
    assert_eq!(report.member_writes.len(), base.len());
    for (m, (mut want, log)) in base.into_iter().zip(&logs).enumerate() {
        for rec in &log.records {
            let payload = rec.payload.as_deref().unwrap();
            for (i, &d) in rec.durable.iter().enumerate() {
                if d <= cut {
                    let word = &payload[i * 512..i * 512 + 8];
                    want.set_word(
                        rec.lbn + i as u64,
                        u64::from_le_bytes(word.try_into().unwrap()),
                    );
                }
            }
        }
        assert!(
            v.member_store(m) == Some(&want),
            "member {m} after a cut at {cut:?}"
        );
    }
    (v, report)
}

/// RAID-5: any cut leaves at most a write hole, never data loss the scrub
/// cannot see. After `power_cut` + `scrub_repair`, a plain scrub finds
/// zero mismatches, the repair touched only parity columns, and the
/// whole pipeline reproduces from (seed, cut).
#[test]
fn raid5_repair_closes_every_write_hole() {
    let name = "raid5_repair_closes_every_write_hole";
    let mut tally = Tally::default();
    let cut = (0u64..u64::MAX, 0u64..3);
    for_cases(
        name,
        16,
        (0u64..u64::MAX, prop::collection::vec(cut, 3..4)),
        |(seed, cuts)| {
            let instants = durable_instants(true, seed);
            let (first, last) = (instants[0], instants[instants.len() - 1]);
            // Before any durable write, after everything, and at three
            // logged durable instants.
            let plan = [(0, seed, 0), (1, 0, seed % 3)].into_iter();
            let plan = plan.chain(cuts.iter().map(|&(pick, nudge)| (2, pick, nudge)));
            for (k, (at, pick, nudge)) in plan.enumerate() {
                let cut = draw_cut(&instants, at, pick, nudge);
                let (mut v, report) = cut_and_check(true, seed, cut);
                tally.note_if(cut.as_ns() < first, "before_any_durable_write");
                tally.note_if(cut.as_ns() >= last, "after_everything");
                tally.note_if(report.torn_writes > 0, "torn_command");

                // Data columns before repair: repair must recompute
                // parity only, never rewrite durable data.
                let reg = Registry::new();
                let before = v.scrub(&reg);
                tally.note_if(before.mismatches > 0, "write_hole");
                let data_before = logical_contents(&mut v);
                let repair = v
                    .scrub_repair(&reg, SimTime::ZERO)
                    .expect("all members healthy");
                assert_eq!(
                    repair.mismatched_sectors, before.mismatches,
                    "repair must see exactly what the read-only scrub saw"
                );
                let after = v.scrub(&reg);
                assert_eq!(after.mismatches, 0, "repair left holes: {repair:?}");
                assert_eq!(
                    logical_contents(&mut v),
                    data_before,
                    "repair rewrote a data column"
                );

                // Reproducibility: identical run, identical cut → identical
                // repair outcome.
                if k == 2 {
                    let (mut v2, report2) = cut_and_check(true, seed, cut);
                    assert_eq!(report2, report);
                    let repair2 = v2.scrub_repair(&reg, SimTime::ZERO).expect("healthy");
                    assert_eq!(repair2.mismatched_sectors, repair.mismatched_sectors);
                    assert_eq!(repair2.repaired_sectors, repair.repaired_sectors);
                }
            }
        },
    );
    tally.require(
        name,
        &[
            "before_any_durable_write",
            "torn_command",
            "write_hole",
            "after_everything",
        ],
    );
}

/// RAID-1: after any cut, the repair scrub converges every copy onto the
/// authoritative member — zero mismatches on re-scrub.
#[test]
fn mirror_repair_converges_all_copies() {
    let name = "mirror_repair_converges_all_copies";
    let mut tally = Tally::default();
    let cut = (0u8..4, 0u64..u64::MAX, 0u64..3);
    for_cases(
        name,
        16,
        (0u64..u64::MAX, prop::collection::vec(cut, 3..4)),
        |(seed, cuts)| {
            let instants = durable_instants(false, seed);
            for (at, pick, nudge) in cuts {
                let cut = draw_cut(&instants, at, pick, nudge);
                let (mut v, _) = cut_and_check(false, seed, cut);
                let reg = Registry::new();
                let repair = v
                    .scrub_repair(&reg, SimTime::ZERO)
                    .expect("all members healthy");
                tally.note(if repair.mismatched_sectors > 0 {
                    "diverged_copies"
                } else {
                    "no_divergence"
                });
                let after = v.scrub(&reg);
                assert_eq!(after.mismatches, 0, "copies still diverge: {repair:?}");
            }
        },
    );
    tally.require(name, &["diverged_copies", "no_divergence"]);
}

/// Satellite: the degraded RAID-1 write path under transient command
/// faults. A three-way mirror runs with one member failed (degraded) and
/// one member surfacing a transient fault on every command. A write must
/// exhaust the retry budget on the faulting copy and surface the typed
/// [`FleetError::RetriesExhausted`] — and even though the healthy copy's
/// command already succeeded, the two-phase commit must leave every data
/// plane untouched: no partial stripe, reads still return the pre-write
/// contents.
#[test]
fn degraded_mirror_write_retry_exhaustion_is_typed_and_atomic() {
    let mut always_faulting = models::small_test_disk();
    always_faulting.fault.transient_per_million = 1_000_000;
    let mut members = Vec::new();
    for cfg in [
        models::small_test_disk(),
        always_faulting,
        models::small_test_disk(),
    ] {
        let d = Disk::new(cfg);
        let b = member_boundaries(&d);
        members.push((d, b));
    }
    let mut v = Volume::mirrored(members, StripePolicy::aligned()).unwrap();
    v.format(7);
    v.fail_member(2).unwrap();
    assert!(v.is_degraded() && v.can_serve());

    // Reads fall past the faulting copy to the healthy one.
    let (_, before) = v
        .read(100, 64, SimTime::ZERO)
        .expect("a healthy copy serves");
    let words = vec![0xabcd_ef01_2345_6789u64; 64];
    let err = v.write(100, &words, SimTime::ZERO).unwrap_err();
    assert_eq!(
        err,
        FleetError::RetriesExhausted {
            member: 1,
            attempts: FAULT_RETRIES,
        }
    );

    // No partial stripe: member 0's write command succeeded before member
    // 1 exhausted its retries, but the store commit is all-or-nothing, so
    // the logical contents are exactly the pre-write data on every copy.
    let (_, after) = v
        .read(100, 64, SimTime::ZERO)
        .expect("a healthy copy serves");
    assert_eq!(after, before, "failed write must not leave partial data");
    assert_ne!(after, words, "the aborted write must not be visible");
}

/// The RAID-5 twin: a member that never takes a command is read around
/// by reconstruction, and a write whose data or parity column lands on
/// it fails typed before anything is committed — no half-updated stripe.
#[test]
fn raid5_write_onto_a_faulting_member_is_typed_and_atomic() {
    let mut always_faulting = models::small_test_disk();
    always_faulting.fault.transient_per_million = 1_000_000;
    let mut members = Vec::new();
    for cfg in [
        models::small_test_disk(),
        always_faulting,
        models::small_test_disk(),
    ] {
        let d = Disk::new(cfg);
        let b = member_boundaries(&d);
        members.push((d, b));
    }
    let mut v = Volume::raid5(members, StripePolicy::aligned()).unwrap();
    v.format(7);
    assert!(!v.is_degraded(), "faulting is not failed");

    // Member 1's data column is served by XOR of the other two, bit-exact.
    let layout = v.layout().clone();
    let units = layout.units();
    // The first unit whose member and parity member pass `keep`.
    let find = |keep: &dyn Fn(usize, usize) -> bool| {
        (0..units.len())
            .find(|&i| keep(layout.member(i), layout.parity(layout.round(i))))
            .map(|i| &units[i])
    };
    let on_faulting = find(&|member, _| member == 1).expect("owns units");
    let before = *v.stats();
    let (_, words) = v
        .read(on_faulting.lstart, 64, SimTime::ZERO)
        .expect("parity stands in");
    let after = v.stats();
    assert_eq!(after.degraded_reads, before.degraded_reads + 1);
    assert_eq!(after.member_cmds, before.member_cmds + 2);
    for (o, &w) in words.iter().enumerate() {
        assert_eq!(w, pattern_word(7, on_faulting.lstart + o as u64));
    }
    let before = logical_contents(&mut v);

    // A read-modify-write has to read the old data and the old parity,
    // so either column on member 1 stops it at the read, naming member 1.
    let parity_on_faulting = find(&|member, parity| member != 1 && parity == 1)
        .expect("parity rotates onto every member");
    let payload = vec![0xabcd_ef01_2345_6789u64; 64];
    for unit in [on_faulting, parity_on_faulting] {
        let err = v.write(unit.lstart, &payload, SimTime::ZERO).unwrap_err();
        assert_eq!(err, FleetError::Unrecoverable { member: 1 });
    }
    // A stripe that keeps both columns off member 1 still takes writes.
    let clear = find(&|member, parity| member != 1 && parity != 1)
        .expect("some round has member 1 as the bystander");
    let old: Vec<u64> = before[clear.lstart as usize..][..64].to_vec();
    v.write(clear.lstart, &old, SimTime::ZERO)
        .expect("member 1 is not involved");

    assert_eq!(
        logical_contents(&mut v),
        before,
        "failed writes are invisible"
    );
    assert_eq!(v.scrub(&Registry::new()).mismatches, 0, "no torn stripe");
}

/// A torn RAID-5 logical write is detectable: cut between the data and
/// parity member commands of one read-modify-write, and the parity
/// syndrome for that stripe must be nonzero until `scrub_repair` closes
/// it.
#[test]
fn cut_inside_rmw_opens_a_detectable_write_hole() {
    // Identical phase-locked members service the RMW's data and parity
    // writes in perfect lockstep — every cut tears both columns at the
    // same offsets and the syndrome stays zero. A heterogeneous fleet
    // (different spindle speeds, same geometry) makes the two writes'
    // per-sector durable instants diverge, so a cut between them leaves
    // a genuine hole.
    fn run() -> (Volume, SimTime, SimTime) {
        let members: Vec<_> = [10_000u32, 12_000, 15_000]
            .iter()
            .map(|&rpm| {
                let mut cfg = models::small_test_disk();
                cfg.spindle = sim_disk::mech::Spindle::new(rpm);
                let d = Disk::new(cfg);
                let b = member_boundaries(&d);
                (d, b)
            })
            .collect();
        let mut v = Volume::raid5(members, StripePolicy::aligned()).unwrap();
        v.format(0x5eed);
        v.arm_crash();
        let words = vec![0x1111_2222_3333_4444u64; 32];
        let done = v.write(10, &words, SimTime::ZERO).expect("healthy write");
        (v, SimTime::ZERO, done.completion)
    }
    let (_, start, end) = run();
    let span = end.as_ns() - start.as_ns();
    let mut holed = false;
    for frac in 1..400u64 {
        let cut = SimTime::from_ns(start.as_ns() + span * frac / 400);
        let (mut probe, _, _) = run();
        let rep = probe.power_cut(cut).expect("payloads attached");
        if rep.lost_writes + rep.torn_writes == 0 {
            continue;
        }
        let reg = Registry::new();
        let scrub = probe.scrub(&reg);
        let repair = probe.scrub_repair(&reg, SimTime::ZERO).expect("healthy");
        assert_eq!(repair.mismatched_sectors, scrub.mismatches);
        assert_eq!(
            probe.scrub(&reg).mismatches,
            0,
            "repair must close the hole"
        );
        if scrub.mismatches > 0 {
            holed = true;
            break;
        }
    }
    assert!(holed, "no cut instant opened a write hole across the RMW");
}
