//! Write-hole properties: random volume workloads, a power cut at a
//! random instant, then the repair scrub must restore the redundancy
//! invariant without ever touching data columns — reproducibly from
//! (seed, cut) alone.

use fleet::{member_boundaries, pattern_word, FleetError, StripePolicy, Volume, FAULT_RETRIES};
use proptest::prelude::*;
use sim_disk::crash::splitmix;
use sim_disk::disk::Disk;
use sim_disk::models;
use sim_disk::SimTime;
use traxtent::obs::Registry;

fn raid5(n: usize) -> Volume {
    let members: Vec<_> = (0..n)
        .map(|_| {
            let d = Disk::new(models::small_test_disk());
            let b = member_boundaries(&d);
            (d, b)
        })
        .collect();
    let mut v = Volume::raid5(members, StripePolicy::aligned()).unwrap();
    v.format(0x5eed);
    v
}

fn mirror(n: usize) -> Volume {
    let members: Vec<_> = (0..n)
        .map(|_| {
            let d = Disk::new(models::small_test_disk());
            let b = member_boundaries(&d);
            (d, b)
        })
        .collect();
    let mut v = Volume::mirrored(members, StripePolicy::aligned()).unwrap();
    v.format(0x5eed);
    v
}

/// Random writes (and a few reads to interleave member traffic), all
/// derived from `seed`.
fn workload(v: &mut Volume, seed: u64) {
    let mut h = seed;
    let mut next = move || {
        h = splitmix(h);
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
            let words: Vec<u64> = (0..len).map(|o| splitmix(seed ^ (lbn + o))).collect();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// RAID-5: any cut leaves at most a write hole, never data loss the
    /// scrub cannot see. After `power_cut` + `scrub_repair`, a plain
    /// scrub finds zero mismatches, the repair touched only parity
    /// columns, and the whole pipeline reproduces from (seed, frac).
    #[test]
    fn raid5_repair_closes_every_write_hole(seed in 0u64..u64::MAX, frac in 0u64..=1000) {
        let mut v = raid5(3);
        v.arm_crash();
        workload(&mut v, seed);
        let cut = SimTime::from_ns(v.crash_horizon().as_ns() * frac / 1000);
        let report = v.power_cut(cut).expect("all write paths attach payloads");
        prop_assert_eq!(report.member_writes.len(), 3);

        // Data columns before repair: repair must recompute parity only,
        // never rewrite durable data.
        let reg = Registry::new();
        let before = v.scrub(&reg);
        let data_before = logical_contents(&mut v);

        let repair = v.scrub_repair(&reg, SimTime::ZERO).expect("all members healthy");
        prop_assert_eq!(
            repair.mismatched_sectors, before.mismatches,
            "repair must see exactly what the read-only scrub saw"
        );
        let after = v.scrub(&reg);
        prop_assert_eq!(after.mismatches, 0, "repair left holes: {:?}", repair);
        let data_after = logical_contents(&mut v);
        prop_assert_eq!(data_after, data_before, "repair rewrote a data column");

        // Reproducibility: identical run, identical cut → identical
        // repair outcome.
        let mut v2 = raid5(3);
        v2.arm_crash();
        workload(&mut v2, seed);
        let report2 = v2.power_cut(cut).expect("payloads attached");
        prop_assert_eq!(report2, report);
        let repair2 = v2.scrub_repair(&reg, SimTime::ZERO).expect("healthy");
        prop_assert_eq!(repair2.mismatched_sectors, repair.mismatched_sectors);
        prop_assert_eq!(repair2.repaired_sectors, repair.repaired_sectors);
    }

    /// RAID-1: after any cut, the repair scrub converges every copy onto
    /// the authoritative member — zero mismatches on re-scrub, and every
    /// logical read afterwards is identical no matter which copy serves
    /// it.
    #[test]
    fn mirror_repair_converges_all_copies(seed in 0u64..u64::MAX, frac in 0u64..=1000) {
        let mut v = mirror(2);
        v.arm_crash();
        workload(&mut v, seed);
        let cut = SimTime::from_ns(v.crash_horizon().as_ns() * frac / 1000);
        v.power_cut(cut).expect("all write paths attach payloads");

        let reg = Registry::new();
        let repair = v.scrub_repair(&reg, SimTime::ZERO).expect("all members healthy");
        let after = v.scrub(&reg);
        prop_assert_eq!(after.mismatches, 0, "copies still diverge: {:?}", repair);
    }
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
    let (c, words) = v
        .read(on_faulting.lstart, 64, SimTime::ZERO)
        .expect("parity stands in");
    assert!(c.reconstructed && c.member_cmds == 2);
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
