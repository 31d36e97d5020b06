//! Behavioural tests of the file system across personalities: allocation
//! invariants under churn, cache-pressure write-back, and the request-size
//! signatures that distinguish the three variants.

use ffs::{FileSystem, Personality, BLOCK_SECTORS, BYTES_PER_BLOCK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_disk::disk::Disk;
use sim_disk::models;

const MB: u64 = 1 << 20;

fn fs(p: Personality) -> FileSystem {
    FileSystem::format(Disk::new(models::small_test_disk()), p).unwrap()
}

/// Create/write/delete churn conserves free space exactly, for every
/// personality.
#[test]
fn churn_conserves_space() {
    for p in [
        Personality::Unmodified,
        Personality::FastStart,
        Personality::Traxtent,
    ] {
        let mut f = fs(p);
        let baseline = f.layout().free_blocks();
        let mut rng = StdRng::seed_from_u64(11);
        let mut live = Vec::new();
        for _ in 0..120 {
            if live.is_empty() || rng.gen_bool(0.6) {
                let id = f.create();
                let size = rng.gen_range(1..64 * 1024u64);
                f.write(id, 0, size).expect("space available");
                live.push(id);
            } else {
                let idx = rng.gen_range(0..live.len());
                f.delete(live.swap_remove(idx)).expect("exists");
            }
        }
        for id in live {
            f.delete(id).expect("exists");
        }
        f.sync();
        assert_eq!(f.layout().free_blocks(), baseline, "{p:?} leaked blocks");
    }
}

/// Writing more than the buffer cache holds forces write-back; the data is
/// still fully accounted and readable afterwards.
#[test]
fn cache_pressure_forces_writeback() {
    let mut f = fs(Personality::Unmodified);
    f.set_cache_blocks(64); // 512 KB cache
    let id = f.create();
    f.write(id, 0, 8 * MB).expect("space available");
    let s = f.stats();
    assert!(
        s.sectors_written >= 8 * MB / 512 - 64 * BLOCK_SECTORS,
        "most dirty data must have been written back under pressure"
    );
    f.sync();
    f.read(id, 0, 8 * MB).expect("in range");
}

/// Resizing the cache under a workload would drop its dirty blocks
/// unwritten; it is refused.
#[test]
#[should_panic(expected = "set the cache size before running workloads")]
fn resizing_a_cache_that_holds_blocks_panics() {
    let mut f = fs(Personality::Unmodified);
    let id = f.create();
    f.write(id, 0, MB).expect("space available");
    f.set_cache_blocks(64);
}

/// Sparse re-reads after a remount produce cache hits only for blocks
/// actually fetched.
#[test]
fn rereads_hit_the_buffer_cache() {
    let mut f = fs(Personality::Unmodified);
    let id = f.create();
    f.write(id, 0, MB).expect("space available");
    f.remount();
    f.read(id, 0, MB).expect("in range");
    let reads_cold = f.stats().disk_reads;
    f.reset_stats();
    f.read(id, 0, MB).expect("in range");
    assert_eq!(f.stats().disk_reads, 0, "warm re-read must be free");
    assert!(reads_cold > 0);
}

/// The traxtent personality reverts to bounded read-ahead after a
/// non-sequential access (the §4.2.2 worst-case guard).
#[test]
fn traxtent_reverts_on_random_access() {
    let mut f = fs(Personality::Traxtent);
    let id = f.create();
    f.write(id, 0, 4 * MB).expect("space available");
    f.remount();
    // Random access pattern: block 0, then far away, then back.
    f.read(id, 0, 1).expect("in range");
    f.read(id, 3 * MB, 1).expect("in range");
    f.read(id, MB, 1).expect("in range");
    f.reset_stats();
    f.read(id, 2 * MB, 1).expect("in range");
    let s = f.stats();
    // After non-sequential detection, a one-byte read must not drag a whole
    // traxtent (12 blocks on this disk) — at most the seq+1 cluster.
    assert!(
        s.largest_read_sectors <= 4 * BLOCK_SECTORS,
        "random access fetched {} sectors",
        s.largest_read_sectors
    );
}

/// Appending growth keeps each personality's files readable and the sizes
/// exact.
#[test]
fn append_growth_is_exact() {
    for p in [Personality::Unmodified, Personality::Traxtent] {
        let mut f = fs(p);
        let id = f.create();
        let mut size = 0u64;
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let chunk = rng.gen_range(1..3 * BYTES_PER_BLOCK);
            f.write(id, size, chunk).expect("space available");
            size += chunk;
        }
        assert_eq!(f.size_of(id).unwrap(), size);
        f.sync();
        f.read(id, 0, size).expect("in range");
        f.read(id, size - 1, 1).expect("last byte readable");
    }
}

/// A partial overwrite of an uncached block reads it first, and that read
/// is counted like every other fetch — a file system whose only reads are
/// these used to report a largest read of 0.
#[test]
fn partial_block_overwrite_counts_its_read() {
    let mut f = fs(Personality::Traxtent);
    let id = f.create();
    f.write(id, 0, 4 * BYTES_PER_BLOCK)
        .expect("space available");
    f.remount();
    f.reset_stats();
    f.write(id, BYTES_PER_BLOCK + 1, 10).expect("in place");
    let s = f.stats();
    assert_eq!((s.disk_reads, s.sectors_read), (1, BLOCK_SECTORS));
    assert_eq!(s.largest_read_sectors, BLOCK_SECTORS);
}

/// Mean request size signature: traxtent requests are track-bounded,
/// unmodified requests reach the 32-block cluster cap.
#[test]
fn request_size_signatures() {
    let run = |p| {
        let mut f = fs(p);
        let id = f.create();
        f.write(id, 0, 16 * MB).expect("space available");
        f.remount();
        f.read(id, 0, 16 * MB).expect("in range");
        f.stats().largest_read_sectors
    };
    assert_eq!(run(Personality::Unmodified), 32 * BLOCK_SECTORS);
    assert_eq!(run(Personality::FastStart), 32 * BLOCK_SECTORS);
    // Small test disk: 200-sector tracks → 12-block traxtents.
    assert_eq!(run(Personality::Traxtent), 12 * BLOCK_SECTORS);
}

/// A prefetch larger than the whole cache is absorbed in ascending block
/// order, so what survives is its tail — the same blocks in every process
/// (the per-block table this pins used to hand them over in hash order).
#[test]
fn an_absorbed_prefetch_enters_the_cache_in_block_order() {
    let mut f = fs(Personality::Traxtent);
    let id = f.create();
    f.write(id, 0, MB).expect("space available");
    f.remount();
    f.set_cache_blocks(4);
    // Small test disk: 12-block traxtents. The first access fetches the
    // file's first traxtent and leaves a prefetch of the second in flight;
    // touching that one absorbs all 12 of its blocks into 4 slots.
    f.read(id, 0, 1).expect("in range");
    f.read(id, 12 * BYTES_PER_BLOCK, 1).expect("in range");
    // A two-block fetch elsewhere now evicts the two that entered first of
    // the four survivors (file blocks 20 and 21), and no others.
    let sectors = f.stats().sectors_read;
    f.read(id, 0, 1).expect("in range");
    assert_eq!(f.stats().sectors_read - sectors, 2 * BLOCK_SECTORS);
    let (hits, reads) = (f.cache_stats().0, f.stats().disk_reads);
    f.read(id, 22 * BYTES_PER_BLOCK, 2 * BYTES_PER_BLOCK)
        .expect("in range");
    assert_eq!(f.cache_stats().0, hits + 2, "the batch's tail is cached");
    assert_eq!(f.stats().disk_reads, reads, "and costs no disk read");
    f.read(id, 21 * BYTES_PER_BLOCK, 1).expect("in range");
    assert_eq!(f.stats().disk_reads, reads + 1, "block 21 went before it");
}
