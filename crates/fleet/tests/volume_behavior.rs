//! End-to-end volume behavior on real simulated drives: degraded-mode
//! reads return bit-exact data, writes maintain the redundancy
//! invariant, rebuild restores a failed member, and scrub verifies it.

use fleet::{
    member_boundaries, pattern_word, FleetError, SectorStore, StripePolicy, Volume, VolumeKind,
    VolumeLayout, VolumeStats,
};
use server::{serve, Backend, SchedulerKind, ServerConfig};
use sim_disk::crash::CrashError;
use sim_disk::disk::Disk;
use sim_disk::models::small_test_disk;
use sim_disk::SimTime;
use traxtent::boundaries::ConfidentBoundaries;
use traxtent::obs::Registry;

fn members(n: usize) -> Vec<(Disk, traxtent::boundaries::ConfidentBoundaries)> {
    (0..n)
        .map(|_| {
            let d = Disk::new(small_test_disk());
            let b = member_boundaries(&d);
            (d, b)
        })
        .collect()
}

const SEED: u64 = 0x5eed;

/// Runs `access` on `v` and returns what it added to the volume's
/// counters beside its result.
fn counted<T>(v: &mut Volume, access: impl FnOnce(&mut Volume) -> T) -> (T, VolumeStats) {
    let before = *v.stats();
    let out = access(v);
    let after = v.stats();
    let added = VolumeStats {
        member_cmds: after.member_cmds - before.member_cmds,
        degraded_reads: after.degraded_reads - before.degraded_reads,
        reconstructed_sectors: after.reconstructed_sectors - before.reconstructed_sectors,
        degraded_writes: after.degraded_writes - before.degraded_writes,
    };
    (out, added)
}

fn expect_pattern(words: &[u64], lbn: u64) {
    for (o, &w) in words.iter().enumerate() {
        assert_eq!(
            w,
            pattern_word(SEED, lbn + o as u64),
            "lbn {}",
            lbn + o as u64
        );
    }
}

/// Boundary state: a volume short of its kind's minimum is refused.
#[test]
fn too_few_members_is_a_typed_error() {
    let policy = StripePolicy::aligned();
    let too_few = |kind, need, got| Some(FleetError::TooFewMembers { kind, need, got });
    assert_eq!(
        Volume::striped(members(1), policy).err(),
        too_few("striped", 2, 1)
    );
    assert_eq!(
        Volume::mirrored(members(1), policy).err(),
        too_few("mirrored", 2, 1)
    );
    assert_eq!(
        Volume::raid5(members(2), policy).err(),
        too_few("raid5", 3, 2)
    );
}

/// Boundary state: a stripe unit on a member past index 65 535 has no
/// `u16` spindle id, so the layout is refused rather than mislabelled.
#[test]
fn too_many_members_is_a_typed_error() {
    let one_track = ConfidentBoundaries::from_unit_lengths([(1, 1.0)]).unwrap();
    let policy = StripePolicy::aligned();
    let maps = vec![one_track; 65_537];
    let err = VolumeLayout::new(VolumeKind::Striped, &maps, &policy).err();
    assert_eq!(err, Some(FleetError::TooManyMembers { got: 65_537 }));
    assert_eq!(
        err.map(|e| e.to_string()).as_deref(),
        Some("a volume spans at most 65 536 members, got 65537")
    );
    let layout = VolumeLayout::new(VolumeKind::Striped, &maps[1..], &policy).unwrap();
    assert_eq!(layout.member(layout.units().len() - 1), 65_535);
}

/// Boundary state: a stripe unit is one member request, so no policy or
/// track may make it longer than a 32-bit transfer length.
#[test]
fn a_unit_past_a_32_bit_transfer_is_a_typed_error() {
    let tracks = ConfidentBoundaries::from_unit_lengths([(1 << 32, 1.0), (8, 0.0)]).unwrap();
    let maps = vec![tracks; 3];
    let longest = u64::from(u32::MAX);
    let aligned = |fallback_sectors| StripePolicy::Aligned {
        threshold: 0.9,
        fallback_sectors,
    };
    for (policy, msg) in [
        (
            StripePolicy::fixed(0),
            "fixed unit size must be 1 to u32::MAX sectors",
        ),
        (
            StripePolicy::fixed(longest + 1),
            "fixed unit size must be 1 to u32::MAX sectors",
        ),
        (
            aligned(longest + 1),
            "fallback unit size must be 1 to u32::MAX sectors",
        ),
        (
            aligned(8),
            "a trusted track must be at most u32::MAX sectors",
        ),
    ] {
        for kind in [VolumeKind::Striped, VolumeKind::Mirrored, VolumeKind::Raid5] {
            let err = VolumeLayout::new(kind, &maps, &policy).err();
            assert_eq!(err, Some(FleetError::BadPolicy(msg)), "{kind:?} {policy:?}");
        }
    }
    let layout = VolumeLayout::new(VolumeKind::Raid5, &maps, &StripePolicy::fixed(longest));
    let units = layout.unwrap().units().to_vec();
    assert_eq!((units[0].len, units[1].lstart), (u32::MAX, longest));
}

#[test]
fn striped_reads_whole_logical_space() {
    let mut v = Volume::striped(members(2), StripePolicy::aligned()).unwrap();
    v.format(SEED);
    let cap = v.capacity();
    for lbn in [0, 199, 200, cap / 2, cap - 64] {
        let (c, data) = v.read(lbn, 64, SimTime::ZERO).unwrap();
        assert!(c.completion > SimTime::ZERO);
        expect_pattern(&data, lbn);
    }
    v.fail_member(1).unwrap();
    assert!(!v.can_serve());
    // Anything striped onto the dead member is gone.
    let layout = v.layout();
    let owned = (0..layout.units().len()).find(|&i| layout.member(i) == 1);
    let lost = layout.units()[owned.expect("member 1 owns units")].lstart;
    assert!(matches!(
        v.read(lost, 8, SimTime::ZERO),
        Err(FleetError::Unrecoverable { member: 1 })
    ));
}

#[test]
fn mirror_survives_failure_and_rebuilds() {
    let mut v = Volume::mirrored(members(3), StripePolicy::aligned()).unwrap();
    v.format(SEED);
    let cap = v.capacity();

    // A write lands on every copy; a read after failing two members
    // still returns it.
    let payload: Vec<u64> = (0..32).map(|o| pattern_word(SEED, 5000 + o)).collect();
    v.write(5000, &payload, SimTime::ZERO).unwrap();
    v.fail_member(0).unwrap();
    v.fail_member(2).unwrap();
    assert!(v.can_serve());
    let (read, added) = counted(&mut v, |v| v.read(5000, 32, SimTime::from_ns(1)));
    let (_, data) = read.unwrap();
    assert!(added.degraded_reads == 1 || added.member_cmds == 1);
    assert_eq!(data, payload);
    let (_, tail) = v.read(cap - 100, 100, SimTime::from_ns(2)).unwrap();
    expect_pattern(&tail, cap - 100);

    // Rebuild both copies back from the one survivor.
    let reg = Registry::new();
    let r2 = v.rebuild_member(2, &reg, SimTime::from_ns(3)).unwrap();
    assert!(r2.finished > r2.started && r2.sectors == cap);
    let r0 = v.rebuild_member(0, &reg, r2.finished).unwrap();
    assert_eq!(r0.sectors, cap);
    assert!(!v.is_degraded());

    // Every copy agrees again.
    let scrub = v.scrub(&reg);
    assert_eq!(scrub.mismatches, 0);
    assert_eq!(scrub.checked_sectors, 2 * cap);
    assert_eq!(reg.snapshot().get("fleet.rebuild.completed"), Some(2));
}

#[test]
fn raid5_degraded_reads_and_writes_are_exact() {
    let mut v = Volume::raid5(members(4), StripePolicy::aligned()).unwrap();
    v.format(SEED);
    let cap = v.capacity();
    let probes: Vec<u64> = (0..16).map(|i| i * (cap - 128) / 15).collect();

    // Healthy baseline.
    let mut healthy = Vec::new();
    for &lbn in &probes {
        healthy.push(v.read(lbn, 128, SimTime::ZERO).unwrap().1);
        expect_pattern(healthy.last().unwrap(), lbn);
    }

    // Healthy RMW write keeps parity consistent.
    let payload: Vec<u64> = (0..200).map(|o| !pattern_word(SEED, o)).collect();
    let (w, added) = counted(&mut v, |v| v.write(1000, &payload, SimTime::ZERO));
    w.unwrap();
    assert!(added.member_cmds >= 4, "RMW reads and writes data + parity");

    // Fail a member: every probe still reads bit-exact data, including
    // the overwritten range.
    v.fail_member(2).unwrap();
    assert!(v.can_serve() && v.is_degraded());
    for (i, &lbn) in probes.iter().enumerate() {
        let (read, added) = counted(&mut v, |v| v.read(lbn, 128, SimTime::from_ns(1)));
        let (_, data) = read.unwrap();
        assert_eq!(data, healthy[i], "probe at lbn {lbn}");
        let owners: Vec<usize> = v
            .layout()
            .split(lbn, 128)
            .unwrap()
            .iter()
            .map(|ch| ch.member)
            .collect();
        assert_eq!(added.degraded_reads > 0, owners.contains(&2));
    }
    let (_, got) = v.read(1000, 200, SimTime::from_ns(2)).unwrap();
    assert_eq!(got, payload);

    // Degraded writes (reconstruct-write / parity-skip) still land.
    let payload2: Vec<u64> = (0..300).map(|o| pattern_word(!SEED, o)).collect();
    let wd = v.write(2000, &payload2, SimTime::from_ns(3)).unwrap();
    assert!(wd.completion > wd.issue);
    let (_, got2) = v.read(2000, 300, SimTime::from_ns(4)).unwrap();
    assert_eq!(got2, payload2);

    // Rebuild writes the member back bit-exactly; scrub finds a clean
    // parity invariant over every round.
    let reg = Registry::new();
    let report = v.rebuild_member(2, &reg, SimTime::from_ns(5)).unwrap();
    assert!(report.units > 0 && report.finished > report.started);
    assert!(!v.is_degraded());
    let scrub = v.scrub(&reg);
    assert_eq!(scrub.mismatches, 0);
    assert!(scrub.checked_sectors > 0);
    for (i, &lbn) in probes.iter().enumerate() {
        let (read, added) = counted(&mut v, |v| v.read(lbn, 128, SimTime::from_ns(6)));
        assert_eq!(read.unwrap().1, healthy[i]);
        assert_eq!(added.degraded_reads, 0);
    }

    // A second simultaneous failure is fatal: RAID-5 tolerates one.
    v.fail_member(0).unwrap();
    v.fail_member(2).unwrap();
    assert!(!v.can_serve());
    let layout = v.layout();
    let owned = (0..layout.units().len()).find(|&i| layout.member(i) == 2);
    let lost = layout.units()[owned.expect("member 2 owns units")].lstart;
    assert!(matches!(
        v.read(lost, 8, SimTime::from_ns(7)),
        Err(FleetError::Unrecoverable { .. })
    ));
    // And RAID-5 rebuild refuses to run while a peer is down.
    let reg = Registry::new();
    assert!(matches!(
        v.rebuild_member(2, &reg, SimTime::from_ns(8)),
        Err(FleetError::DegradedPeer { member: 0 })
    ));
}

/// A degraded read counts chunks, not logical reads: one read over three
/// units of a failed RAID-5 member adds 3.
#[test]
fn a_degraded_read_counts_each_chunk_served_from_redundancy() {
    let mut v = Volume::raid5(members(4), StripePolicy::aligned()).unwrap();
    v.format(SEED);
    let layout = v.layout();
    let dead = layout.member(0);
    let third = (0..layout.units().len())
        .filter(|&i| layout.member(i) == dead)
        .nth(2)
        .expect("the member owns three units");
    let end = layout.units()[third].lstart + u64::from(layout.units()[third].len);
    v.fail_member(dead).unwrap();
    let (read, added) = counted(&mut v, |v| v.read(0, end, SimTime::ZERO));
    expect_pattern(&read.unwrap().1, 0);
    assert_eq!(added.degraded_reads, 3);
}

/// Which member of a one-chunk access's stripe is failed.
#[derive(Debug, Clone, Copy)]
enum Failed {
    Nobody,
    /// The chunk's home member (for a mirror: the preferred copy).
    Owner,
    /// The RAID-5 round's parity member.
    Parity,
    /// A member the healthy access would not have touched.
    Bystander,
}

/// The accounting the single member-command path owns, as one table:
/// what a one-chunk read and a one-chunk write fan out into and what they
/// add to the degraded counters, per volume kind and per failed member
/// (DESIGN.md §9), read off the volume's counters — and that background
/// passes add to the same counter. A degraded mirror write adds no
/// degraded write: only RAID-5 chunk writes are counted.
#[test]
fn member_command_accounting_by_mode() {
    use Failed::*;
    use VolumeKind::*;
    // (kind, members, failed, read (cmds, degraded_reads), write (cmds, degraded_writes))
    let table = [
        (Striped, 3, Nobody, (1, 0), (1, 0)),
        (Striped, 3, Bystander, (1, 0), (1, 0)),
        (Mirrored, 3, Nobody, (1, 0), (3, 0)),
        (Mirrored, 3, Owner, (1, 1), (2, 0)),
        (Mirrored, 3, Bystander, (1, 0), (2, 0)),
        (Raid5, 4, Nobody, (1, 0), (4, 0)),
        (Raid5, 4, Owner, (3, 1), (3, 1)),
        (Raid5, 4, Parity, (1, 0), (1, 1)),
        (Raid5, 4, Bystander, (1, 0), (4, 0)),
    ];
    for (kind, n, failed, read, write) in table {
        let case = format!("{kind:?} x {n}, failed: {failed:?}");
        let policy = StripePolicy::aligned();
        let mut v = match kind {
            Striped => Volume::striped(members(n), policy),
            Mirrored => Volume::mirrored(members(n), policy),
            Raid5 => Volume::raid5(members(n), policy),
        }
        .unwrap();
        v.format(SEED);
        let unit = v.layout().units()[0];
        let owner = v.layout().member(0);
        let parity = (kind == Raid5).then(|| v.layout().parity(0));
        let dead = match failed {
            Nobody => None,
            Owner => Some(owner),
            Parity => parity,
            Bystander => (0..n).find(|&m| m != owner && Some(m) != parity),
        };
        if let Some(m) = dead {
            v.fail_member(m).unwrap();
        }

        let (r, rs) = counted(&mut v, |v| v.read(unit.lstart, 16, SimTime::ZERO));
        let (r, data) = r.unwrap();
        expect_pattern(&data, unit.lstart);
        assert_eq!((rs.member_cmds, rs.degraded_reads), read, "{case}: read");
        let (w, ws) = counted(&mut v, |v| v.write(unit.lstart, &data, r.completion));
        let w = w.unwrap();
        let got = (ws.member_cmds, ws.degraded_writes);
        assert_eq!(got, write, "{case}: write");
        let mut issued = rs.member_cmds + ws.member_cmds;
        assert_eq!(v.stats().member_cmds, issued, "{case}: foreground");

        // Background passes go through the same two functions: a rebuild
        // step reads its sources and writes one unit, a clean repair pass
        // reads every column once and writes nothing.
        let reg = Registry::new();
        let steps = match kind {
            Striped => 0,
            Mirrored | Raid5 => v.layout().rounds().len() as u64,
        };
        if let (Some(m), true) = (dead, kind.redundant()) {
            let rebuilt = v.rebuild_member(m, &reg, w.completion).unwrap();
            assert_eq!(rebuilt.units, steps, "{case}");
            issued += steps * if kind == Mirrored { 2 } else { n as u64 };
            assert_eq!(v.stats().member_cmds, issued, "{case}: rebuild");
        }
        if !v.is_degraded() {
            let repair = v.scrub_repair(&reg, w.completion).unwrap();
            assert_eq!(repair.repaired_sectors, 0, "{case}");
            issued += steps * n as u64;
            assert_eq!(v.stats().member_cmds, issued, "{case}: scrub_repair");
        }
    }
}

/// A member index past the last member is its own typed error from both
/// calls that take one, not a claim that data was lost; RAID-0 still
/// refuses to rebuild a member it has.
#[test]
fn a_missing_member_is_no_such_member() {
    for kind in [VolumeKind::Striped, VolumeKind::Mirrored, VolumeKind::Raid5] {
        let policy = StripePolicy::aligned();
        let mut v = match kind {
            VolumeKind::Striped => Volume::striped(members(3), policy),
            VolumeKind::Mirrored => Volume::mirrored(members(3), policy),
            VolumeKind::Raid5 => Volume::raid5(members(3), policy),
        }
        .unwrap();
        v.format(SEED);
        let missing = FleetError::NoSuchMember {
            member: 9,
            members: 3,
        };
        assert_eq!(v.fail_member(9), Err(missing.clone()), "{kind:?}");
        let reg = Registry::new();
        assert_eq!(
            v.rebuild_member(9, &reg, SimTime::ZERO),
            Err(missing.clone()),
            "{kind:?}"
        );
        assert_eq!(
            missing.to_string(),
            "member 9 does not exist: the volume has 3 members"
        );
        assert!(v.member_store(0).is_none(), "a refused call fills nothing");
    }
    let mut v = Volume::striped(members(2), StripePolicy::aligned()).unwrap();
    v.fail_member(1).unwrap();
    assert_eq!(
        v.rebuild_member(1, &Registry::new(), SimTime::ZERO),
        Err(FleetError::Unrecoverable { member: 1 })
    );
}

/// A failed member holds no store: a rebuild that cannot finish leaves it
/// failed with none, and one rebuilt inside a crash window replays the
/// rebuild's durable writes onto the zeroed store it was rebuilt into.
#[test]
fn a_failed_member_holds_no_store() {
    let reg = Registry::new();
    let empty = |v: &Volume, m: usize| v.member_store(m).map(SectorStore::capacity) == Some(0);
    let mut faulting = small_test_disk();
    faulting.fault.transient_per_million = 1_000_000;
    let pair = [small_test_disk(), faulting].map(|config| {
        let d = Disk::new(config);
        let b = member_boundaries(&d);
        (d, b)
    });
    let mut v = Volume::mirrored(pair.into(), StripePolicy::aligned()).unwrap();
    v.format(SEED);
    v.fail_member(0).unwrap();
    assert!(empty(&v, 0), "a failure drops the store");
    assert_eq!(
        v.rebuild_member(0, &reg, SimTime::ZERO),
        Err(FleetError::Unrecoverable { member: 0 }),
        "the only copy never answers"
    );
    assert_eq!(v.failed_members(), [0]);
    assert!(empty(&v, 0), "a failed rebuild installs nothing");

    let mut twin = Volume::raid5(members(3), StripePolicy::aligned()).unwrap();
    twin.format(SEED);
    twin.scrub(&reg);
    let mut v = Volume::raid5(members(3), StripePolicy::aligned()).unwrap();
    v.format(SEED);
    v.fail_member(1).unwrap();
    v.arm_crash();
    v.rebuild_member(1, &reg, SimTime::ZERO).unwrap();
    let horizon = v.crash_horizon();
    v.power_cut(horizon).unwrap();
    assert!(
        v.member_store(1) == twin.member_store(1),
        "rebuilt as never failed"
    );
    assert_eq!(v.scrub(&reg).mismatches, 0);
}

/// A power cut needs an armed capture to resolve against: without one —
/// never armed, or disarmed by an earlier cut — it is a typed error that
/// leaves the plane as it was.
#[test]
fn a_cut_without_an_armed_capture_is_not_armed() {
    let mut v = Volume::raid5(members(3), StripePolicy::aligned()).unwrap();
    v.format(SEED);
    assert_eq!(v.power_cut(SimTime::ZERO), Err(CrashError::NotArmed));
    assert!(v.member_store(0).is_none(), "a refused cut fills nothing");
    v.arm_crash();
    v.write(0, &[7; 64], SimTime::ZERO).unwrap();
    let horizon = v.crash_horizon();
    let report = v.power_cut(horizon).unwrap();
    assert_eq!(report.lost_writes, 0);
    let after = v.member_store(0).cloned();
    assert_eq!(v.power_cut(horizon), Err(CrashError::NotArmed));
    assert_eq!(v.member_store(0).cloned(), after);
    assert_eq!(
        CrashError::NotArmed.to_string(),
        "power cut without armed crash capture"
    );
}

/// A zero-length trace serves nothing and reports zeros, on one drive and
/// on a RAID-5 volume, under every scheduler.
#[test]
fn an_empty_trace_serves_nothing() {
    let replayed = workloads::replay::replay(&mut Disk::new(small_test_disk()), &[]);
    assert_eq!(replayed.requests(), 0);
    assert_eq!(replayed.sim_span(), sim_disk::SimDur::ZERO);
    assert_eq!(replayed.max_response_ms(), 0.0);
    assert_eq!(replayed.mean_response_ms(), 0.0);

    let check = |backend: &mut dyn Backend, map: traxtent::boundaries::ConfidentBoundaries| {
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::CLook,
            SchedulerKind::Traxtent,
        ] {
            let cfg = ServerConfig::new(kind).with_boundaries(map.clone());
            let res = serve(backend, &[], &cfg).expect("an empty trace is served");
            assert_eq!((res.completed(), res.rejected()), (0, 0), "{kind:?}");
            assert_eq!(res.percentiles_ms([0.99]), [0.0], "{kind:?}");
        }
    };
    let mut disk = Disk::new(small_test_disk());
    let map = member_boundaries(&disk);
    check(&mut disk, map);
    let mut volume = Volume::raid5(members(5), StripePolicy::aligned()).unwrap();
    volume.format(SEED);
    let map = volume.logical_boundaries();
    check(&mut volume, map);
}
