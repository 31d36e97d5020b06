//! Criterion micro-benchmarks for the library's hot paths: LBN↔physical
//! translation, drive request servicing, the firmware cache and spindle
//! phase, boundary-table queries, the traxtent allocator, the file
//! system's per-block structures, the LFS cleaner, a volume's request
//! split, format and first write, the server's admission and scheduling
//! round, and what a catalogued drive and `mkfs` cost to set up. These
//! guard the performance of the building blocks that every figure harness
//! leans on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ffs::cache::BufferCache;
use ffs::{FileSystem, Layout, Personality, BLOCK_SECTORS, BYTES_PER_BLOCK};
use fleet::{member_boundaries, StripePolicy, Volume, VolumeKind, VolumeLayout};
use lfs::cleaner::{LfsConfig, LfsSim};
use server::{Queued, Scheduler, Traxtent};
use sim_disk::bus::{BusConfig, Delivery};
use sim_disk::cache::{CacheConfig, SegmentCache};
use sim_disk::defects::{DefectPolicy, SpareScheme};
use sim_disk::disk::{Disk, DiskConfig, Request};
use sim_disk::models;
use sim_disk::{SimTime, TraceRecord};
use std::hint::black_box;
use traxtent::{ConfidentBoundaries, Extent, TrackBoundaries, TraxtentAllocator};
use workloads::apps;
use workloads::arrivals::{stream_trace, StreamsSpec};

fn bench_geometry(c: &mut Criterion) {
    let cfg = models::quantum_atlas_10k_ii();
    let geom = cfg.geometry;
    let cap = geom.capacity_lbns();
    c.bench_function("geometry/track_of_lbn_random", |b| {
        let mut lbn = 0u64;
        b.iter(|| {
            lbn = (lbn.wrapping_mul(6364136223846793005).wrapping_add(1)) % cap;
            black_box(geom.track_of_lbn(black_box(lbn)).unwrap())
        })
    });
    // A member of the benchmark's RAID-5 volume: spare sectors in every
    // cylinder leave no zone uniform, so no lookup takes the divide.
    c.bench_function("geometry/track_of_lbn_random_defective", |b| {
        let geom = raid5_member(0).geometry;
        let cap = geom.capacity_lbns();
        let mut lbn = 0u64;
        b.iter(|| {
            lbn = (lbn.wrapping_mul(6364136223846793005).wrapping_add(1)) % cap;
            black_box(geom.track_of_lbn(black_box(lbn)).unwrap())
        })
    });
}

/// An Atlas 10K II as `serve_raid5` builds its members.
fn raid5_member(m: u32) -> DiskConfig {
    models::with_factory_defects(
        models::quantum_atlas_10k_ii(),
        SpareScheme::SectorsPerCylinder(8),
        DefectPolicy::Slip,
        150 + 50 * m,
        0x6d30 + u64::from(m),
    )
}

fn bench_disk_service(c: &mut Criterion) {
    c.bench_function("disk/track_read", |b| {
        let mut disk = Disk::new(models::quantum_atlas_10k_ii());
        let mut t = SimTime::ZERO;
        let mut lbn = 0u64;
        b.iter(|| {
            lbn = (lbn + 52800) % 4_000_000;
            let done = disk.service(Request::read(lbn, 528), t);
            t = done.completion;
            black_box(done.completion)
        })
    });
    // The zero-latency window kernel on its own: an infinite bus keeps
    // delivery out of it, and the random stride defeats the firmware
    // cache. That infinite bus is also why this row never saw what a
    // finite one cost: every catalogued drive has a finite bus, and until
    // `Delivery` a finite bus sent every read down the per-sector path,
    // past the kernel this row measures. The rows below it are the ones
    // that price a catalogued drive.
    c.bench_function("disk/zero_latency_scan", |b| {
        let cfg = DiskConfig {
            bus: BusConfig::infinite(),
            ..models::quantum_atlas_10k_ii()
        };
        random_reads(b, cfg, 528)
    });
    c.bench_function("disk/finite_bus_read_128", |b| {
        random_reads(b, models::quantum_atlas_10k_ii(), 128)
    });
    c.bench_function("disk/finite_bus_track_read", |b| {
        random_reads(b, models::quantum_atlas_10k_ii(), 528)
    });
    c.bench_function("disk/finite_bus_track_read_out_of_order", |b| {
        let cfg = DiskConfig {
            bus: BusConfig::out_of_order(160.0),
            ..models::quantum_atlas_10k_ii()
        };
        random_reads(b, cfg, 528)
    });
    // Every row above runs a pristine drive. A `serve_raid5` member has a
    // slipped defect on about one track in ten, and a whole-track command
    // there is a zero-latency visit of two or more contiguous sub-runs.
    let member = raid5_member(2);
    let holed = slipped_tracks(&member);
    c.bench_function("disk/finite_bus_track_read_slipped", |b| {
        whole_tracks(b, member.clone(), &holed, Request::read)
    });
    c.bench_function("disk/track_write_slipped", |b| {
        whole_tracks(b, member.clone(), &holed, Request::write)
    });
}

/// `(first LBN, LBNs)` of each track of `cfg` with a slipped defect
/// between its first and last LBN.
fn slipped_tracks(cfg: &DiskConfig) -> Vec<(u64, u64)> {
    let g = &cfg.geometry;
    let mut tracks: Vec<(u64, u64)> = (g.defect_list().iter())
        .map(|d| (d, g.track(g.track_at(d.cyl, d.head).unwrap().0)))
        .filter(|(d, t)| {
            let slot = |lbn| g.lbn_to_pba(lbn).unwrap().slot;
            t.lbn_count() > 0 && slot(t.first_lbn()) < d.slot && d.slot < slot(t.end_lbn() - 1)
        })
        .map(|(_, t)| (t.first_lbn(), u64::from(t.lbn_count())))
        .collect();
    tracks.dedup();
    tracks
}

/// Back-to-back whole-track commands on tracks drawn at random from
/// `tracks`.
fn whole_tracks(
    b: &mut criterion::Bencher,
    cfg: DiskConfig,
    tracks: &[(u64, u64)],
    op: fn(u64, u64) -> Request,
) {
    let mut disk = Disk::new(cfg);
    let mut t = SimTime::ZERO;
    let mut state = 1u64;
    b.iter(|| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let (lbn, len) = tracks[(state >> 33) as usize % tracks.len()];
        let done = disk.service(op(lbn, len), t);
        t = done.completion;
        black_box(done.completion)
    })
}

/// Back-to-back `len`-sector reads at a random stride over the drive's
/// first four million sectors.
fn random_reads(b: &mut criterion::Bencher, cfg: DiskConfig, len: u64) {
    let mut disk = Disk::new(cfg);
    let mut t = SimTime::ZERO;
    let mut lbn = 1u64;
    b.iter(|| {
        lbn = (lbn.wrapping_mul(6364136223846793005).wrapping_add(1)) % 4_000_000;
        let done = disk.service(Request::read(lbn, len), t);
        t = done.completion;
        black_box(done.completion)
    })
}

/// Bus delivery of one zero-latency full-track read, old vs new: the
/// per-sector algorithm the read path ran on every finite bus (collect an
/// availability instant per sector, run the delivery recurrence over
/// them; `sim-disk`'s `bus_props` keeps it as its oracle) against
/// [`Delivery::zero_latency_run`]. Both produce the same instant to the
/// nanosecond; only the cost differs.
fn bench_bus(c: &mut Criterion) {
    let cfg = models::quantum_atlas_10k_ii();
    let (bus, spindle) = (cfg.bus, cfg.spindle);
    let track = &cfg.geometry.track(0);
    let spt = track.spt();
    let base = SimTime::from_ns(123_456_789);
    let next = |angle: &mut f64| {
        *angle += 0.000_37;
        if *angle >= 1.0 {
            *angle -= 1.0;
        }
        black_box(*angle)
    };
    c.bench_function("bus/delivery_scan_ref", |b| {
        let mut angle = 0.1234_f64;
        let mut avail: Vec<SimTime> = Vec::new();
        b.iter(|| {
            let arr = next(&mut angle);
            avail.clear();
            for slot in 0..spt {
                let d = sim_disk::rotation::slot_distance(track, arr, slot);
                avail.push(base + spindle.sweep(d + track.inv_spt()));
            }
            let sector = bus.sector_time();
            let mut end = base;
            for &a in &avail {
                end = a.max(end) + sector;
            }
            black_box(end)
        })
    });
    c.bench_function("bus/delivery_closed", |b| {
        let mut angle = 0.1234_f64;
        b.iter(|| {
            let arr = next(&mut angle);
            let mut delivery = Delivery::new(&bus, base);
            black_box(delivery.zero_latency_run(track, spindle, base, arr, 0, spt));
            black_box(delivery.end())
        })
    });
}

/// The firmware segment cache and the spindle phase: the kernel-level
/// price of the two plain forms DESIGN.md §5's table weighs end to end.
fn bench_firmware(c: &mut Criterion) {
    // Ten segments, the drives' default. An iteration is what a
    // cache-missing read does (a miss, then an insert that evicts the
    // oldest segment) and what a cached one does (a hit on a segment that
    // is not the newest, moved to the back).
    c.bench_function("cache/lookup_insert_10", |b| {
        let mut cache = SegmentCache::new(CacheConfig::default());
        let mut lbn = 0u64;
        b.iter(|| {
            let prev = lbn;
            lbn += 1_000;
            let miss = cache.lookup(black_box(lbn), 8);
            cache.insert(lbn, lbn + 528);
            black_box((miss, cache.lookup(black_box(prev), 8)))
        })
    });
    c.bench_function("mech/angle_at", |b| {
        let spindle = models::quantum_atlas_10k_ii().spindle;
        let mut t = 0u64;
        b.iter(|| {
            t += 7_654_321;
            black_box(spindle.angle_at(SimTime::from_ns(black_box(t))))
        })
    });
}

/// The zero-latency window kernel, old vs new: the per-sector reference
/// scan ([`sim_disk::rotation::window_scan`], what the service path ran
/// before the event-driven rework) against its closed-form replacement
/// ([`sim_disk::rotation::window_closed`]). Both produce bit-identical
/// results; only the cost differs — this pair pins the gap.
fn bench_rotation(c: &mut Criterion) {
    let cfg = models::quantum_atlas_10k_ii();
    let geom = cfg.geometry;
    let track = &geom.track(0);
    let spt = track.spt();
    c.bench_function("rotation/window_scan_ref", |b| {
        let mut angle = 0.1234_f64;
        b.iter(|| {
            angle += 0.000_37;
            if angle >= 1.0 {
                angle -= 1.0;
            }
            black_box(sim_disk::rotation::window_scan(
                track,
                black_box(angle),
                0,
                spt,
            ))
        })
    });
    c.bench_function("rotation/window_closed", |b| {
        let mut angle = 0.1234_f64;
        b.iter(|| {
            angle += 0.000_37;
            if angle >= 1.0 {
                angle -= 1.0;
            }
            black_box(sim_disk::rotation::window_closed(
                track,
                black_box(angle),
                0,
                spt,
            ))
        })
    });
}

fn bench_boundaries(c: &mut Criterion) {
    // The shape of an aligned RAID-5 volume's logical table: one "track"
    // per stripe unit, ≈ 208 000 of them, looked up at uniform LBNs.
    c.bench_function("boundaries/track_index_random", |b| {
        let lengths = (0..208_000).map(|i| 330 + i % 29);
        let units = TrackBoundaries::from_track_lengths(lengths).unwrap();
        let mut lbn = 0u64;
        b.iter(|| {
            lbn = (lbn.wrapping_mul(2862933555777941757).wrapping_add(3)) % units.capacity();
            black_box(units.track_index(black_box(lbn)))
        })
    });
}

fn bench_fleet(c: &mut Criterion) {
    // `serve_raid5`'s layout and its request: the whole stripe unit a
    // uniform LBN falls in.
    c.bench_function("fleet/split_whole_unit_random", |b| {
        let maps: Vec<ConfidentBoundaries> = (0..5)
            .map(|m| member_boundaries(&Disk::new(raid5_member(m))))
            .collect();
        let layout = VolumeLayout::new(VolumeKind::Raid5, &maps, &StripePolicy::aligned()).unwrap();
        let mut lbn = 0u64;
        b.iter(|| {
            lbn = (lbn.wrapping_mul(2862933555777941757).wrapping_add(3)) % layout.capacity();
            let unit = layout.units()[layout.unit_index(black_box(lbn))];
            black_box(layout.split(unit.lstart, u64::from(unit.len)).unwrap())
        })
    });
    // A RAID-5 volume of five small-drive members (84 000 sectors each).
    // A format records its seed; the first write after it fills every
    // member's store, so the second row is what a format costs a volume
    // that is written at all.
    let small_raid5 = || {
        let members = (0..5)
            .map(|_| {
                let disk = Disk::new(models::small_test_disk());
                let map = member_boundaries(&disk);
                (disk, map)
            })
            .collect();
        Volume::raid5(members, StripePolicy::aligned()).unwrap()
    };
    c.bench_function("fleet/format_raid5", |b| {
        let mut volume = small_raid5();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            volume.format(black_box(seed))
        })
    });
    c.bench_function("fleet/first_write_after_format", |b| {
        let mut volume = small_raid5();
        let words = [0x5eed_u64; 16];
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            volume.format(black_box(seed));
            black_box(volume.write(1000, &words, SimTime::ZERO).unwrap())
        })
    });
}

fn bench_allocator(c: &mut Criterion) {
    c.bench_function("alloc/traxtent_alloc_free", |b| {
        let tb = TrackBoundaries::uniform(4096, 440);
        b.iter_batched(
            || TraxtentAllocator::new(tb.clone()),
            |mut a| {
                let mut got: Vec<Extent> = Vec::new();
                for i in 0..64 {
                    if let Some(e) = a.alloc_traxtent(i * 8111) {
                        got.push(e);
                    }
                }
                for e in got {
                    a.free(e);
                }
                black_box(a.free_units())
            },
            BatchSize::SmallInput,
        )
    });
}

/// The file system's per-block structures: what a cached block, an
/// eviction and a written block cost, what `create` costs on a disk whose
/// low tracks are full (entirely, or but for a hole a track, as Postmark
/// leaves them), what taking the first free block of such a disk costs,
/// and `mkfs`.
fn bench_ffs(c: &mut Criterion) {
    let atlas = Disk::new(models::quantum_atlas_10k());
    let table = atlas.track_boundaries();
    let capacity = atlas.geometry().capacity_lbns();
    let fs_blocks = capacity / BLOCK_SECTORS;
    let blocks = FileSystem::DEFAULT_CACHE_BLOCKS as u64;
    c.bench_function("ffs/cache_hit", |b| {
        let mut cache = BufferCache::new(blocks as usize, fs_blocks as usize);
        for block in 0..blocks {
            cache.insert(block);
        }
        let mut block = 0u64;
        b.iter(|| {
            block = (block + 1) % blocks;
            black_box(cache.contains(black_box(block)))
        })
    });
    c.bench_function("ffs/cache_insert_evict", |b| {
        let mut cache = BufferCache::new(blocks as usize, fs_blocks as usize);
        let mut block = 0u64;
        b.iter(|| {
            block = (block + 1) % fs_blocks;
            black_box(cache.insert(black_box(block)))
        })
    });
    c.bench_function("ffs/write_block_sequential", |b| {
        let disk = Disk::new(models::quantum_atlas_10k());
        let mut fs = FileSystem::format(disk, Personality::Traxtent);
        let mut file = fs.create();
        let mut at = 0u64;
        b.iter(|| {
            if fs.write(file, at, BYTES_PER_BLOCK).is_ok() {
                at += BYTES_PER_BLOCK;
            } else {
                // Disk full: start over on an empty one.
                fs.delete(file).expect("file exists");
                file = fs.create();
                at = 0;
            }
        })
    });
    // The first `tracks` tracks full; with `holes`, but for the sixth whole
    // block of each.
    let filled = |tracks: usize, holes: bool| {
        let mut layout = Layout::format(Personality::Traxtent, table.clone(), capacity);
        let full = table.track_extent(tracks).start / BLOCK_SECTORS;
        for block in 0..full {
            if layout.is_free(block) {
                // A free block right after `prev` is the one taken.
                let taken = layout.alloc_next(block.checked_sub(1), 1);
                assert_eq!(taken, Some(block));
            }
        }
        if holes {
            for track in 0..tracks {
                layout.free(
                    table.track_extent(track).start.div_ceil(BLOCK_SECTORS) + 5,
                    1,
                );
            }
        }
        layout
    };
    c.bench_function("ffs/create_past_2000_full_tracks", |b| {
        let mut layout = filled(2000, false);
        b.iter(|| {
            let first = layout.alloc_next(None, 8).expect("space");
            layout.free(first, 1);
            black_box(first)
        })
    });
    // A two-block file finds no room in any of the 60 holes it walks past.
    c.bench_function("ffs/create_into_singleton_holes", |b| {
        let mut layout = filled(60, true);
        b.iter(|| {
            let first = layout.alloc_next(None, 2).expect("space");
            layout.free(first, 1);
            black_box(first)
        })
    });
    // Taking the lowest hole (the block after its predecessor) moves the
    // first-free-block mark a track on.
    c.bench_function("ffs/take_at_low_water_fragmented", |b| {
        let mut layout = filled(60, true);
        let lowest = table.track_extent(0).start.div_ceil(BLOCK_SECTORS) + 5;
        b.iter(|| {
            black_box(layout.alloc_next(Some(black_box(lowest) - 1), 1));
            layout.free(lowest, 1);
        })
    });
    c.bench_function("ffs/format_atlas10k", |b| {
        b.iter(|| Layout::format(Personality::Traxtent, table.clone(), capacity))
    });
}

/// Figure 10's cell at the two ends of its sweep: a fresh 2¹⁸-sector log
/// at the default 75 % utilization, overwritten twice (2¹⁹ updates an
/// iteration — divide by 524 288 for ns per update). 64-sector segments
/// make 4 096 of them, where choosing a victim costs most; 528 is the
/// track. `clean_pass` fills the log to the 95 % the simulator allows, so
/// that an iteration (2¹⁷ updates) is nearly all cleaning: 1 450 passes
/// moving 435 sectors each.
fn bench_lfs(c: &mut Criterion) {
    const LOG: u64 = 1 << 18;
    let mut row = |name: &str, segment, utilization, updates| {
        let config = LfsConfig {
            utilization,
            ..LfsConfig::default()
        };
        c.bench_function(name, |b| {
            b.iter_batched(
                || LfsSim::fixed(LOG, segment, config),
                |mut sim| sim.run_updates(updates).expect("the reserve holds"),
                BatchSize::LargeInput,
            )
        });
    };
    row("lfs/run_updates/track_528", 528, 0.75, 2 * LOG);
    row("lfs/run_updates/fixed_64", 64, 0.75, 2 * LOG);
    row("lfs/clean_pass/track_528", 528, 0.95, LOG / 2);
}

/// The repo benchmark's `serve_disk` traffic at a tenth of its length: 16
/// readers and 16 writers, each walking forward in 132-sector chunks at its
/// own period around 120 ms, inside the first 3 000 tracks of `table`.
fn stream_clients(table: &TrackBoundaries, requests: usize) -> Vec<TraceRecord> {
    let starts = table.iter().take(3000).map(|e| e.start).collect();
    let band = TrackBoundaries::new(starts, table.track_extent(2999).end()).expect("a prefix");
    let mut trace = Vec::new();
    for i in 0..32usize {
        let period = 120.0 + 0.5 * (i as f64 - 16.0);
        let spec = StreamsSpec {
            read_streams: (i + 1) % 2,
            write_streams: i % 2,
            chunk_sectors: 132,
            chunk_period_ms: period,
            chunks_per_stream: (requests as f64 / 32.0 * 120.0 / period) as usize,
            seed: 11 ^ ((i as u64) << 32),
        };
        trace.extend(stream_trace(&spec, &band));
    }
    trace.sort_by_key(|r| r.arrival);
    trace
}

/// Consecutive `depth`-request windows of `trace` as lanes, each entry put
/// in place by `place`; ids are trace indices, as `serve` assigns them.
fn lanes(
    trace: &[TraceRecord],
    depth: usize,
    place: impl Fn(&mut Vec<Queued>, Queued),
) -> Vec<Vec<Queued>> {
    let mut id = 0;
    let lane = |window: &[TraceRecord]| {
        let mut lane = Vec::with_capacity(depth + 1);
        for r in window {
            let q = Queued {
                id,
                arrival: r.arrival,
                request: r.request,
            };
            place(&mut lane, q);
            id += 1;
        }
        lane
    };
    trace.chunks_exact(depth).take(1000).map(lane).collect()
}

/// The server's host cost per request on `serve_disk`'s traffic: one
/// scheduling round on a lane as `serve` builds it (through `admit`), and
/// one admission.
fn bench_server(c: &mut Criterion) {
    let table = Disk::new(models::quantum_atlas_10k_ii()).track_boundaries();
    let trace = stream_clients(&table, 50_000);
    let traxtent = Traxtent::new(ConfidentBoundaries::certain(table.clone()), 0.9);
    let admit = |lane: &mut Vec<Queued>, q| traxtent.admit(lane, q);
    // One round of `sched` (whose sweep carries on from call to call) on a
    // fresh copy of each lane in turn; the copy is not timed.
    fn rounds(b: &mut criterion::Bencher, mut sched: impl Scheduler, lanes: &[Vec<Queued>]) {
        let mut next = 0;
        let lane = || {
            next = (next + 1) % lanes.len();
            lanes[next].clone()
        };
        b.iter_batched(
            lane,
            |mut lane| sched.select(&mut lane, 32),
            BatchSize::SmallInput,
        )
    }
    let in_sweep_order = lanes(&trace, 40, admit);
    c.bench_function("server/select_traxtent_lane_40", |b| {
        rounds(b, traxtent.clone(), &in_sweep_order)
    });
    for depth in [40, 128] {
        let lanes = lanes(&trace, depth, admit);
        let mut next = 0;
        c.bench_function(&format!("server/admit_depth_{depth}"), |b| {
            // Each lane admits the first request of the window after it.
            let lane = || {
                next = (next + 1) % (lanes.len() - 1);
                (lanes[next].clone(), lanes[next + 1][0])
            };
            let one = |(mut lane, q): (Vec<Queued>, Queued)| {
                admit(&mut lane, q);
                lane
            };
            b.iter_batched(lane, one, BatchSize::SmallInput)
        });
    }
}

/// What a catalogued drive costs the code that asks for one: the preset
/// (the process has asked for it before), a clone of its configuration,
/// and `mkfs` on a fresh drive — `ffs_apps` pays the last once per
/// application. Each iteration drops what it built, as a caller does.
fn bench_setup(c: &mut Criterion) {
    c.bench_function("setup/model_atlas_10k", |b| {
        b.iter(|| black_box(models::quantum_atlas_10k()))
    });
    c.bench_function("setup/mkfs_traxtent", |b| {
        b.iter(|| {
            let disk = Disk::new(models::quantum_atlas_10k());
            black_box(apps::mkfs(disk, Personality::Traxtent))
        })
    });
    let cfg = models::quantum_atlas_10k();
    c.bench_function("setup/disk_config_clone", |b| {
        b.iter(|| black_box(cfg.clone()))
    });
}

criterion_group!(
    benches,
    bench_geometry,
    bench_disk_service,
    bench_rotation,
    bench_bus,
    bench_firmware,
    bench_boundaries,
    bench_fleet,
    bench_allocator,
    bench_ffs,
    bench_lfs,
    bench_server,
    bench_setup
);
criterion_main!(benches);
