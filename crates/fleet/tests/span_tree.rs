//! The PR's acceptance criterion, end to end: a request served through a
//! RAID-5 volume produces ONE connected span tree spanning server →
//! scheduler → volume → member → sim-disk phases, and the tree exports
//! cleanly to Chrome trace format.

use fleet::{member_boundaries, StripePolicy, Volume};
use server::{serve, SchedulerKind, ServerConfig};
use sim_disk::disk::Disk;
use sim_disk::models::small_test_disk;
use sim_disk::trace::{DiskSpanBridge, Tracer};
use sim_disk::{SimTime, TraceRecord};
use traxtent::obs::span::{self, chrome_trace, Span, SpanRecorder};
use workloads::replay::{synthetic_trace, SyntheticSpec};

/// A RAID-5 volume whose member drives all bridge their trace streams
/// into `rec`, plus the volume's own span hookup.
fn traced_raid5(members: usize, rec: &SpanRecorder) -> Volume {
    let disks: Vec<_> = (0..members)
        .map(|_| {
            let mut config = small_test_disk();
            config.tracer = Some(Tracer::from_sink(DiskSpanBridge::new(rec.clone())));
            let d = Disk::new(config);
            let b = member_boundaries(&d);
            (d, b)
        })
        .collect();
    let mut v = Volume::raid5(disks, StripePolicy::aligned()).unwrap();
    v.format(41);
    v.attach_spans(rec.clone());
    v
}

fn workload(count: usize, capacity: u64) -> Vec<TraceRecord> {
    synthetic_trace(&SyntheticSpec {
        count,
        interarrival_ms: 6.0,
        io_sectors: 64,
        read_fraction: 0.6,
        capacity_lbns: capacity,
        seed: 77,
    })
}

fn spanned_volume_run(
    volume: &mut Volume,
    rec: &SpanRecorder,
    records: &[TraceRecord],
) -> (server::ServerResult, Vec<Span>) {
    let cfg = ServerConfig::new(SchedulerKind::CLook).with_spans(rec.clone());
    let res = serve(volume, records, &cfg).unwrap();
    (res, rec.take_sorted())
}

#[test]
fn raid5_request_yields_one_connected_tree_to_the_media() {
    let rec = SpanRecorder::new();
    rec.set_salt(0xF1EE7);
    let mut volume = traced_raid5(3, &rec);
    let records = workload(60, volume.capacity());
    let (res, spans) = spanned_volume_run(&mut volume, &rec, &records);
    assert!(res.completed() > 0);

    let stats = span::validate(&spans).unwrap();
    // request → dispatch → vol_cmd → member_cmd → disk_cmd → phase.
    assert!(stats.max_depth >= 6, "depth {}", stats.max_depth);

    // Walk one completed request's tree: it must reach media spans
    // through every layer, and each layer's spans nest inside the tree.
    let by_id: std::collections::BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let chain_of = |mut id: u64| {
        let mut names = Vec::new();
        while id != 0 {
            let s = by_id[&id];
            names.push(s.name.as_str());
            id = s.parent;
        }
        names.reverse();
        names
    };
    let mut full_chains = 0;
    for s in spans.iter().filter(|s| s.name == "media") {
        let chain = chain_of(s.id);
        if chain
            == [
                "request",
                "dispatch",
                "vol_cmd",
                "member_cmd",
                "disk_cmd",
                "media",
            ]
        {
            full_chains += 1;
        }
    }
    assert!(
        full_chains > 0,
        "no media span chains through all five layers"
    );

    // Every vol_cmd sits under a dispatch, every member_cmd under a
    // vol_cmd (or a reconstruct grouping), every disk_cmd under a
    // member_cmd.
    for s in &spans {
        let parent_name = (s.parent != 0).then(|| by_id[&s.parent].name.as_str());
        match s.name.as_str() {
            "vol_cmd" => assert_eq!(parent_name, Some("dispatch")),
            "member_cmd" => assert!(
                matches!(parent_name, Some("vol_cmd") | Some("reconstruct")),
                "member_cmd under {parent_name:?}"
            ),
            "disk_cmd" => assert_eq!(parent_name, Some("member_cmd")),
            _ => {}
        }
    }

    // RAID-5 writes fan out: some vol_cmd carries the rmw mode attr and
    // at least four member commands.
    let rmw = spans
        .iter()
        .find(|s| s.name == "vol_cmd" && s.attr("mode") == Some("rmw"))
        .expect("an rmw write");
    let fanout = spans.iter().filter(|s| s.parent == rmw.id).count();
    assert!(fanout >= 4, "rmw fanned into {fanout} member cmds");

    // Member commands land on per-member tracks (1-based; track 0 is the
    // server/volume lane), so Chrome export gets one process per member.
    let tracks: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == "member_cmd")
        .map(|s| s.track)
        .collect();
    assert_eq!(tracks, [1u32, 2, 3].into());
    let chrome = chrome_trace(&spans);
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.contains("\"process_name\""));
}

#[test]
fn degraded_raid5_reads_show_reconstruct_spans() {
    let rec = SpanRecorder::new();
    rec.set_salt(3);
    let mut volume = traced_raid5(3, &rec);
    volume.fail_member(1).unwrap();
    assert!(volume.can_serve());

    // Read the whole logical space directly; some chunks live on the
    // failed member and must reconstruct from the survivors.
    let cap = volume.capacity();
    let mut at = SimTime::ZERO;
    let mut lbn = 0;
    while lbn < cap {
        let len = 64.min(cap - lbn);
        let (c, _) = volume.read(lbn, len, at).unwrap();
        at = c.completion;
        lbn += len;
    }
    let spans = rec.take_sorted();
    span::validate(&spans).unwrap();

    let recon: Vec<&Span> = spans.iter().filter(|s| s.name == "reconstruct").collect();
    assert!(!recon.is_empty(), "degraded reads reconstruct");
    let by_id: std::collections::BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for r in &recon {
        assert_eq!(by_id[&r.parent].name, "vol_cmd");
        let survivors = spans
            .iter()
            .filter(|s| s.parent == r.id && s.name == "member_cmd")
            .count();
        assert_eq!(survivors, 2, "both survivors read per reconstruction");
    }
    // Direct volume access (no server above): vol_cmds are roots with
    // the degraded mode recorded.
    assert!(spans.iter().any(|s| s.name == "vol_cmd"
        && s.parent == 0
        && s.attr("mode") == Some("reconstruct_read")));
}

#[test]
fn member_busy_reaches_the_server_timeline() {
    use server::{Backend, TimelineConfig};
    let rec = SpanRecorder::new();
    let mut volume = traced_raid5(3, &rec);
    let records = workload(120, volume.capacity());
    let cfg = ServerConfig::new(SchedulerKind::CLook).with_timeline(TimelineConfig::new(100.0));
    let res = serve(&mut volume, &records, &cfg).unwrap();
    assert_eq!(volume.member_busy_ns().len(), 3);
    let t = res.timeline.expect("timeline");
    // Three per-member busy columns, every member exercised.
    for b in &t.buckets {
        assert_eq!(b.busy_frac.len(), 3);
    }
    for m in 0..3 {
        assert!(
            t.buckets.iter().any(|b| b.busy_frac[m] > 0.0),
            "member {m} never busy"
        );
    }
}
