//! The deferred data plane against an eager twin. `Volume::format` keeps
//! only its seed until the first operation that changes or snapshots
//! contents fills the stores; here a formatted volume runs beside a twin
//! whose stores were filled right after every format, through random
//! sequences of reads (keeping their words, and timing-only), writes,
//! member failures, rebuilds, scrubs, repair scrubs, power cuts and
//! re-formats, on random small volumes of every kind under both stripe
//! policies — some with a member whose transient faults force
//! reconstruct-reads and mirror failover. Every answer, every read's
//! words, `VolumeStats`, the failed set and finally every member's
//! contents must be equal.
//!
//! With `-- --nocapture` the test prints how often the deferred volume
//! answered a read while still implicit and which operation filled it,
//! and fails if any of those ran fewer than 16 times.
//!
//! A second property holds a degraded volume to its never-failed twin: a
//! mirror or RAID-5 volume loses a member, serves the same reads, writes
//! and power cuts as a twin that keeps every member, and is rebuilt. Every
//! read returns the twin's words, the dead member holds an empty store
//! until the rebuild, every survivor's store equals the twin's throughout,
//! and after the rebuild every member's store does, sectors no unit maps
//! included.

use fleet::{pattern_word, Chunk, FleetError, StripePolicy, Volume, VolumeKind, VolumeLayout};
use proptest::prelude::*;
use sim_disk::disk::{Disk, DiskConfig};
use sim_disk::geometry::{GeometrySpec, ZoneSpec};
use sim_disk::models::small_test_disk;
use sim_disk::request::Request;
use sim_disk::SimTime;
use std::fmt::Debug;
use traxtent::boundaries::ConfidentBoundaries;
use traxtent::obs::Registry;

/// One random volume.
#[derive(Debug, Clone)]
struct Spec {
    kind: VolumeKind,
    members: usize,
    policy: StripePolicy,
    /// Per member: track cut points (any order, repeats allowed) and
    /// whether each track is trusted.
    cuts: Vec<Vec<(u64, bool)>>,
    /// A member surfacing transient faults, at this rate per million
    /// attempts (a read or write gives up after four).
    faulty: Option<(usize, u32)>,
    /// A member failed before the first format, so that the formatted
    /// plane starts out implicit with a member to rebuild.
    failed: Option<usize>,
    seed: u64,
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    // RAID-5 twice: its reconstruct-read is the rarest fill.
    let kind = prop_oneof![
        Just(VolumeKind::Striped),
        Just(VolumeKind::Mirrored),
        Just(VolumeKind::Raid5),
        Just(VolumeKind::Raid5),
    ];
    let policy = prop_oneof![
        (150u64..600).prop_map(StripePolicy::fixed),
        (150u64..600).prop_map(|fallback_sectors| StripePolicy::Aligned {
            threshold: 0.9,
            fallback_sectors,
        }),
    ];
    let cuts = prop::collection::vec(
        prop::collection::vec((1u64..u64::MAX, (0u32..3).prop_map(|t| t > 0)), 1..24),
        5..6,
    );
    let faulty = prop_oneof![
        Just(None),
        (0usize..5).prop_map(|m| Some((m, 600_000))),
        (0usize..5).prop_map(|m| Some((m, 1_000_000))),
    ];
    let failed = prop_oneof![Just(None), (0usize..5).prop_map(Some)];
    let volume = (kind, 2usize..6, policy, cuts);
    (volume, faulty, failed, 0u64..u64::MAX).prop_map(
        |((kind, members, policy, cuts), faulty, failed, seed)| {
            let members = if kind == VolumeKind::Raid5 {
                members.max(3)
            } else {
                members
            };
            Spec {
                kind,
                members,
                policy,
                cuts,
                faulty: faulty.map(|(m, ppm)| (m % members, ppm)),
                failed: failed.map(|m| m % members),
                seed,
            }
        },
    )
}

/// A member drive: `small_test_disk` cut to 2 surfaces of 30 cylinders,
/// 12 000 sectors.
fn member_config() -> DiskConfig {
    let zone = ZoneSpec {
        cylinders: 30,
        spt: 200,
        track_skew: 30,
        cyl_skew: 36,
    };
    DiskConfig {
        geometry: GeometrySpec::pristine(2, vec![zone])
            .build()
            .expect("a valid geometry"),
        ..small_test_disk()
    }
}

/// The volume `spec` describes, unformatted; `None` if no layout fits.
fn build(spec: &Spec) -> Option<Volume> {
    let members = (0..spec.members)
        .map(|m| {
            let mut config = member_config();
            if let Some((_, ppm)) = spec.faulty.filter(|&(f, _)| f == m) {
                config.fault.transient_per_million = ppm;
            }
            let disk = Disk::new(config);
            let cap = disk.geometry().capacity_lbns();
            let mut cuts: Vec<(u64, bool)> =
                spec.cuts[m].iter().map(|&(c, t)| (c % cap, t)).collect();
            cuts.push((cap, true));
            cuts.sort_unstable();
            cuts.dedup_by_key(|c| c.0);
            let mut start = 0;
            let tracks = cuts
                .into_iter()
                .filter(|&(c, _)| c > 0)
                .map(|(end, trusted)| {
                    let len = end - start;
                    start = end;
                    (len, if trusted { 1.0 } else { 0.35 })
                });
            let map = ConfidentBoundaries::from_unit_lengths(tracks).expect("positive lengths");
            (disk, map)
        })
        .collect();
    match spec.kind {
        VolumeKind::Striped => Volume::striped(members, spec.policy),
        VolumeKind::Mirrored => Volume::mirrored(members, spec.policy),
        VolumeKind::Raid5 => Volume::raid5(members, spec.policy),
    }
    .ok()
}

/// One operation, applied to both volumes. Positions and lengths are
/// folded into the volume when applied.
#[derive(Debug, Clone)]
enum Step {
    /// `Volume::read`, keeping the words.
    Read {
        lbn: u64,
        len: u64,
    },
    /// `Volume::service`: a timing-only read, or a write of synthesized
    /// words.
    Serve {
        write: bool,
        lbn: u64,
        len: u64,
    },
    Write {
        lbn: u64,
        len: u64,
        salt: u64,
    },
    /// One past the last member is `NoSuchMember`.
    Fail {
        member: usize,
    },
    /// A failed member when there is one.
    Rebuild {
        member: usize,
    },
    Scrub,
    ScrubRepair,
    /// `arm_crash`, these writes, maybe a format (which the cut undoes),
    /// then `power_cut` at `frac` ‰ of the crash horizon.
    Crash {
        writes: Vec<(u64, u64, u64)>,
        reformat: Option<u64>,
        frac: u64,
    },
    Format {
        seed: u64,
    },
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let pos = || (0u64..u64::MAX, 1u64..400);
    let step = prop_oneof![
        pos().prop_map(|(lbn, len)| Step::Read { lbn, len }),
        pos().prop_map(|(lbn, len)| Step::Read { lbn, len }),
        pos().prop_map(|(lbn, len)| Step::Read { lbn, len }),
        (0u32..2, pos()).prop_map(|(w, (lbn, len))| Step::Serve {
            write: w == 1,
            lbn,
            len
        }),
        (pos(), 0u64..u64::MAX).prop_map(|((lbn, len), salt)| Step::Write { lbn, len, salt }),
        (0usize..6).prop_map(|member| Step::Fail { member }),
        (0usize..6).prop_map(|member| Step::Rebuild { member }),
        (0usize..6).prop_map(|member| Step::Rebuild { member }),
        Just(Step::Scrub),
        Just(Step::ScrubRepair),
        (
            prop::collection::vec((0u64..u64::MAX, 1u64..400, 0u64..u64::MAX), 0..4),
            prop_oneof![Just(None), Just(None), (0u64..u64::MAX).prop_map(Some)],
            0u64..=1000
        )
            .prop_map(|(writes, reformat, frac)| Step::Crash {
                writes,
                reformat,
                frac
            }),
        (0u64..u64::MAX).prop_map(|seed| Step::Format { seed }),
        (0u64..u64::MAX).prop_map(|seed| Step::Format { seed }),
        (0u64..u64::MAX).prop_map(|seed| Step::Format { seed }),
    ];
    prop::collection::vec(step, 1..16)
}

/// The deferred volume and its eager twin.
struct Twins {
    lazy: Volume,
    eager: Volume,
}

impl Twins {
    /// Applies `op` to both and requires the same answer.
    fn same<T: PartialEq + Debug>(&mut self, what: &Step, op: impl Fn(&mut Volume) -> T) -> T {
        let got = op(&mut self.lazy);
        let want = op(&mut self.eager);
        assert_eq!(got, want, "{what:?}");
        got
    }

    fn format(&mut self, seed: u64) {
        self.lazy.format(seed);
        self.eager.format(seed);
        // The eager twin's fill, right after the format: a scrub reads
        // the whole plane.
        self.eager.scrub(&Registry::new());
        assert!(self.lazy.member_store(0).is_none(), "a format is implicit");
        assert!(self.eager.member_store(0).is_some(), "a scrub fills");
    }

    fn implicit(&self) -> bool {
        self.lazy.member_store(0).is_none()
    }
}

/// `(lbn, len)` folded into a volume of `cap` sectors.
fn fold(cap: u64, lbn: u64, len: u64) -> (u64, u64) {
    let len = len.min(cap);
    (lbn % (cap - len + 1), len)
}

fn words(lbn: u64, len: u64, salt: u64) -> Vec<u64> {
    (0..len).map(|o| pattern_word(salt, lbn + o)).collect()
}

fn run_case(spec: &Spec, steps: &[Step], tally: &mut Tally) {
    let (Some(lazy), Some(eager)) = (build(spec), build(spec)) else {
        return; // e.g. no complete round fits
    };
    tally.note("cases");
    tally.note(match spec.kind {
        VolumeKind::Striped => "striped",
        VolumeKind::Mirrored => "mirrored",
        VolumeKind::Raid5 => "raid5",
    });
    tally.note(match spec.policy {
        StripePolicy::Fixed { .. } => "fixed",
        StripePolicy::Aligned { .. } => "aligned",
    });
    let mut v = Twins { lazy, eager };
    if let Some(m) = spec.failed {
        v.same(&Step::Fail { member: m }, |v| v.fail_member(m))
            .expect("a member");
    }
    v.format(spec.seed);
    let cap = v.lazy.capacity();
    let n = spec.members;
    let missing = Err(FleetError::NoSuchMember {
        member: n,
        members: n,
    });
    let mut t = SimTime::ZERO;
    for step in steps {
        let implicit = v.implicit();
        let fill = match *step {
            Step::Read { lbn, len } => {
                let (lbn, len) = fold(cap, lbn, len);
                let degraded_reads = v.lazy.stats().degraded_reads;
                let got = v.same(step, |v| v.read(lbn, len, t));
                let failed_over = v.lazy.stats().degraded_reads > degraded_reads;
                if let Ok((done, _)) = got {
                    t = t.max(done.completion);
                    if implicit && v.implicit() {
                        // A kept read answered from the seed, the plane
                        // still implicit after; and a mirror read served by
                        // a copy other than the preferred one.
                        tally.note("implicit_read");
                        tally.note_if(
                            spec.kind == VolumeKind::Mirrored && failed_over,
                            "implicit_failover",
                        );
                    }
                }
                "by_reconstruct_read"
            }
            Step::Serve { write, lbn, len } => {
                let (lbn, len) = fold(cap, lbn, len);
                let req = if write {
                    Request::write(lbn, len)
                } else {
                    Request::read(lbn, len)
                };
                if let Ok(done) = v.same(step, |v| v.service(req, t)) {
                    t = t.max(done.completion);
                }
                "by_serve"
            }
            Step::Write { lbn, len, salt } => {
                let (lbn, len) = fold(cap, lbn, len);
                let data = words(lbn, len, salt);
                if let Ok(done) = v.same(step, |v| v.write(lbn, &data, t)) {
                    t = t.max(done.completion);
                }
                "by_write"
            }
            Step::Fail { member } => {
                let i = member % (n + 1);
                let got = v.same(step, |v| v.fail_member(i));
                if i == n {
                    assert_eq!(got, missing);
                    tally.note("no_such_member");
                }
                "by_fail"
            }
            Step::Rebuild { member } => {
                let failed = v.lazy.failed_members();
                let i = match failed.len() {
                    0 => member % (n + 1),
                    k => failed[member % k],
                };
                let got = v.same(step, |v| v.rebuild_member(i, &Registry::new(), t));
                if i == n {
                    assert_eq!(got.map(|_| ()), missing);
                    tally.note("no_such_member");
                } else if let Ok(report) = got {
                    t = t.max(report.finished);
                }
                "by_rebuild"
            }
            Step::Scrub => {
                v.same(step, |v| v.scrub(&Registry::new()));
                "by_scrub"
            }
            Step::ScrubRepair => {
                if let Ok(report) = v.same(step, |v| v.scrub_repair(&Registry::new(), t)) {
                    t = t.max(report.finished);
                }
                "by_scrub_repair"
            }
            Step::Crash {
                ref writes,
                reformat,
                frac,
            } => {
                v.same(step, Volume::arm_crash);
                for &(lbn, len, salt) in writes {
                    let (lbn, len) = fold(cap, lbn, len);
                    let data = words(lbn, len, salt);
                    if let Ok(done) = v.same(step, |v| v.write(lbn, &data, t)) {
                        t = t.max(done.completion);
                    }
                }
                if let Some(seed) = reformat {
                    v.format(seed);
                }
                let horizon = v.same(step, |v| v.crash_horizon());
                let cut = SimTime::from_ns(horizon.as_ns() * frac / 1000);
                v.same(step, |v| {
                    v.power_cut(cut)
                        .expect("every write path attaches payloads")
                });
                "by_crash"
            }
            Step::Format { seed } => {
                v.format(seed);
                continue;
            }
        };
        // What filled an implicit plane.
        tally.note_if(implicit && !v.implicit(), fill);
        assert_eq!(v.lazy.stats(), v.eager.stats(), "after {step:?}");
        assert_eq!(v.lazy.failed_members(), v.eager.failed_members());
    }
    let last = Step::Scrub;
    v.same(&last, |v| v.scrub(&Registry::new()));
    for m in 0..n {
        let (lazy, eager) = (v.lazy.member_store(m), v.eager.member_store(m));
        assert!(lazy.is_some(), "a scrub fills");
        assert!(lazy == eager, "member {m}'s contents differ");
    }
}

#[test]
fn deferred_plane_matches_an_eager_twin() {
    let name = "deferred_plane_matches_an_eager_twin";
    let mut tally = Tally::default();
    for_cases(name, 512, (arb_spec(), arb_steps()), |(spec, steps)| {
        run_case(&spec, &steps, &mut tally)
    });
    tally.require(
        name,
        &[
            "striped",
            "mirrored",
            "raid5",
            "fixed",
            "aligned",
            "implicit_read",
            "implicit_failover",
            "by_write",
            "by_serve",
            "by_fail",
            "by_rebuild",
            "by_scrub",
            "by_scrub_repair",
            "by_crash",
            "by_reconstruct_read",
            "no_such_member",
        ],
    );
}

// ---------------------------------------------------------------------
// A rebuilt volume against its never-failed twin.
// ---------------------------------------------------------------------

/// When the member fails: on a plane a format left implicit, on one a
/// write filled, or inside an armed crash window (which the first `Cut`
/// resolves).
#[derive(Debug, Clone, Copy, PartialEq)]
enum When {
    Implicit,
    Filled,
    Armed,
}

/// One operation of a degraded run, applied to the volume and its twin.
#[derive(Debug, Clone)]
enum Degraded {
    Read {
        lbn: u64,
        len: u64,
    },
    Write {
        lbn: u64,
        len: u64,
        salt: u64,
    },
    /// `arm_crash`, these writes, then `power_cut` either after every
    /// write was durable or before any was.
    Cut {
        writes: Vec<(u64, u64, u64)>,
        durable: bool,
    },
    /// A re-format while the member is dead: the next fill must leave its
    /// store empty.
    Format {
        seed: u64,
    },
}

fn arb_degraded() -> impl Strategy<Value = (When, Vec<Degraded>)> {
    let when = prop_oneof![Just(When::Implicit), Just(When::Filled), Just(When::Armed)];
    let pos = || (0u64..u64::MAX, 1u64..400);
    let op = prop_oneof![
        pos().prop_map(|(lbn, len)| Degraded::Read { lbn, len }),
        pos().prop_map(|(lbn, len)| Degraded::Read { lbn, len }),
        (pos(), 0u64..u64::MAX).prop_map(|((lbn, len), salt)| Degraded::Write { lbn, len, salt }),
        (pos(), 0u64..u64::MAX).prop_map(|((lbn, len), salt)| Degraded::Write { lbn, len, salt }),
        (
            prop::collection::vec((0u64..u64::MAX, 1u64..400, 0u64..u64::MAX), 0..3),
            0u32..2
        )
            .prop_map(|(writes, durable)| Degraded::Cut {
                writes,
                durable: durable == 1
            }),
        (0u64..u64::MAX).prop_map(|seed| Degraded::Format { seed }),
    ];
    (when, prop::collection::vec(op, 1..10))
}

/// Requires every store of `v` but the failed member's to equal `twin`'s
/// (which is always filled), and the failed member's to be empty; an
/// implicit `v` has nothing to compare yet.
fn survivors_match(v: &Volume, twin: &Volume, dead: Option<usize>, what: &dyn Debug) {
    for m in 0..v.layout().members() {
        let Some(got) = v.member_store(m) else {
            continue;
        };
        if Some(m) == dead {
            assert_eq!(got.capacity(), 0, "dead member {m} holds a store, {what:?}");
        } else {
            let want = twin.member_store(m);
            assert!(Some(got) == want, "member {m}'s contents differ, {what:?}");
        }
    }
}

/// Writes `salt`'s words at `lbn` on both volumes; returns the chunks.
fn write_both(
    v: &mut Volume,
    twin: &mut Volume,
    (lbn, len, salt): (u64, u64, u64),
    t: &mut SimTime,
) -> Vec<Chunk> {
    let data = words(lbn, len, salt);
    let a = v
        .write(lbn, &data, *t)
        .expect("one failed member is served");
    let b = twin
        .write(lbn, &data, *t)
        .expect("a healthy volume is served");
    *t = (*t).max(a.completion).max(b.completion);
    v.layout().split(lbn, len).expect("in range")
}

/// Notes the degraded RAID-5 write arms `chunks` took with `dead` failed.
fn note_write(layout: &VolumeLayout, chunks: &[Chunk], dead: usize, tally: &mut Tally) {
    if layout.kind() == VolumeKind::Raid5 {
        tally.note_if(chunks.iter().any(|c| c.member == dead), "reconstruct_write");
        tally.note_if(
            chunks.iter().any(|c| layout.parity(c.round) == dead),
            "parity_skip",
        );
    }
}

fn run_degraded(spec: &Spec, dead: usize, when: When, ops: &[Degraded], tally: &mut Tally) {
    let (Some(mut v), Some(mut twin)) = (build(spec), build(spec)) else {
        return; // e.g. no complete round fits
    };
    let dead = dead % spec.members;
    v.format(spec.seed);
    twin.format(spec.seed);
    twin.scrub(&Registry::new()); // the twin is always filled
    let cap = v.capacity();
    let mut t = SimTime::ZERO;
    match when {
        When::Implicit => assert!(v.member_store(0).is_none(), "a format is implicit"),
        When::Filled => {
            let (lbn, len) = fold(cap, spec.seed, 1 + spec.seed % 300);
            write_both(&mut v, &mut twin, (lbn, len, !spec.seed), &mut t);
        }
        When::Armed => {
            v.arm_crash();
            twin.arm_crash();
        }
    }
    tally.note(match when {
        When::Implicit => "failed_while_implicit",
        When::Filled => "failed_while_filled",
        When::Armed => "failed_while_armed",
    });
    v.fail_member(dead).expect("a member");
    assert!(v.member_store(dead).is_some(), "a failure fills");
    survivors_match(&v, &twin, Some(dead), &"fail_member");
    let mut armed = when == When::Armed;
    for op in ops {
        match *op {
            Degraded::Read { lbn, len } => {
                let (lbn, len) = fold(cap, lbn, len);
                let (a, got) = v.read(lbn, len, t).expect("one failed member is served");
                let (b, want) = twin.read(lbn, len, t).expect("a healthy volume is served");
                assert_eq!(got, want, "read({lbn}, {len})");
                t = t.max(a.completion).max(b.completion);
                let chunks = v.layout().split(lbn, len).expect("in range");
                tally.note_if(
                    v.layout().kind() == VolumeKind::Raid5
                        && chunks.iter().any(|c| c.member == dead),
                    "reconstruct_read",
                );
            }
            Degraded::Write { lbn, len, salt } => {
                let (lbn, len) = fold(cap, lbn, len);
                let chunks = write_both(&mut v, &mut twin, (lbn, len, salt), &mut t);
                note_write(v.layout(), &chunks, dead, tally);
            }
            Degraded::Cut {
                ref writes,
                durable,
            } => {
                v.arm_crash();
                twin.arm_crash();
                let before = t;
                for &(lbn, len, salt) in writes {
                    let (lbn, len) = fold(cap, lbn, len);
                    let chunks = write_both(&mut v, &mut twin, (lbn, len, salt), &mut t);
                    note_write(v.layout(), &chunks, dead, tally);
                }
                // The two volumes issue different commands, so each is cut
                // at its own horizon, or both where nothing was yet durable.
                for x in [&mut v, &mut twin] {
                    let cut = if durable { x.crash_horizon() } else { before };
                    x.power_cut(cut)
                        .expect("every write path attaches payloads");
                }
                tally.note("cut_while_dead");
                tally.note_if(std::mem::take(&mut armed), "cut_after_an_armed_failure");
            }
            Degraded::Format { seed } => {
                if armed {
                    // A cut would undo the format under the writes after
                    // it, leaving parity the twin's rebuild would not see.
                    continue;
                }
                v.format(seed);
                twin.format(seed);
                twin.scrub(&Registry::new());
                tally.note("format_while_dead");
            }
        }
        survivors_match(&v, &twin, Some(dead), op);
    }
    let report = (v.rebuild_member(dead, &Registry::new(), t)).expect("the peers are healthy");
    assert_eq!(report.member, dead);
    survivors_match(&v, &twin, None, &"rebuild_member");
    let layout = v.layout();
    let mapped: u64 = (layout.rounds())
        .map(|r| layout.member_extent(r, dead).len)
        .sum();
    tally.note_if(mapped < layout.member_caps()[dead], "unmapped_tail");
}

#[test]
fn a_rebuilt_volume_equals_its_never_failed_twin() {
    let name = "a_rebuilt_volume_equals_its_never_failed_twin";
    let mut tally = Tally::default();
    let cases = (arb_spec(), 0usize..5, arb_degraded());
    for_cases(name, 256, cases, |(spec, dead, (when, ops))| {
        // Mirror or RAID-5, no faulty member, nothing failed yet.
        let kind = match spec.kind {
            VolumeKind::Striped => VolumeKind::Mirrored,
            kind => kind,
        };
        let spec = Spec {
            kind,
            faulty: None,
            failed: None,
            ..spec
        };
        run_degraded(&spec, dead, when, &ops, &mut tally)
    });
    tally.require(
        name,
        &[
            "failed_while_implicit",
            "failed_while_filled",
            "failed_while_armed",
            "reconstruct_write",
            "parity_skip",
            "reconstruct_read",
            "cut_while_dead",
            "cut_after_an_armed_failure",
            "format_while_dead",
            "unmapped_tail",
        ],
    );
}
