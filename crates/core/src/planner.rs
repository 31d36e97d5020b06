//! Track-aware request generation.
//!
//! After allocation places data on track boundaries, the request path must
//! also be taught to *issue* traxtent requests: prefetch and write-back
//! requests are extended or clipped so no request crosses a track boundary
//! (§3.2 of the paper).

use crate::boundaries::TrackBoundaries;

/// Plans request sizes against a boundary table.
#[derive(Debug, Clone)]
pub struct RequestPlanner {
    boundaries: TrackBoundaries,
}

impl RequestPlanner {
    /// Creates a planner.
    pub fn new(boundaries: TrackBoundaries) -> Self {
        RequestPlanner { boundaries }
    }

    /// Plans a prefetch starting at `start`: the caller wants `want` sectors
    /// and can tolerate up to `cap`; the planner clips the request at the
    /// next track boundary, and — when `start` opens a track — extends it to
    /// cover the full track even if `want` is smaller (a traxtent-sized
    /// fetch), still respecting `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is at or beyond capacity or `want` is zero.
    pub fn plan_prefetch(&self, start: u64, want: u64, cap: u64) -> u64 {
        assert!(want > 0, "prefetch of zero sectors");
        let (tstart, tend) = self.boundaries.track_bounds(start);
        let track_remaining = tend - start;
        let len = if start == tstart {
            track_remaining.max(want)
        } else {
            want
        };
        len.min(track_remaining).min(cap.max(1))
    }

    /// Plans a write-back of dirty data `[start, start + want)`: the request
    /// is clipped at the next track boundary so each disk write stays within
    /// one track.
    ///
    /// # Panics
    ///
    /// Panics if `start` is at or beyond capacity or `want` is zero.
    pub fn plan_writeback(&self, start: u64, want: u64) -> u64 {
        assert!(want > 0, "write-back of zero sectors");
        self.boundaries.clip_to_track(start, want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TrackBoundaries {
        TrackBoundaries::from_track_lengths([100, 99, 101]).unwrap()
    }

    fn planner() -> RequestPlanner {
        RequestPlanner::new(table())
    }

    #[test]
    fn prefetch_from_track_start_takes_whole_track() {
        let p = planner();
        assert_eq!(p.plan_prefetch(0, 8, 1_000), 100);
        assert_eq!(p.plan_prefetch(100, 8, 1_000), 99);
    }

    #[test]
    fn prefetch_mid_track_clips_at_boundary() {
        let p = planner();
        assert_eq!(p.plan_prefetch(90, 64, 1_000), 10);
        assert_eq!(p.plan_prefetch(150, 8, 1_000), 8);
    }

    #[test]
    fn prefetch_respects_cap() {
        let p = planner();
        assert_eq!(p.plan_prefetch(0, 8, 32), 32);
        assert_eq!(
            p.plan_prefetch(0, 8, 0),
            1,
            "cap clamps to at least one sector"
        );
    }

    #[test]
    fn writeback_clips() {
        let p = planner();
        assert_eq!(p.plan_writeback(95, 64), 5);
        assert_eq!(p.plan_writeback(100, 64), 64);
        assert_eq!(p.plan_writeback(100, 200), 99);
    }

    #[test]
    fn split_covers_without_crossing() {
        // Write-back clipped piece by piece: 300 sectors from 0 are three
        // requests, one a track.
        let (p, tb) = (planner(), table());
        let mut pieces = Vec::new();
        let mut at = 0;
        while at < 300 {
            let len = p.plan_writeback(at, 300 - at);
            assert!(
                at + len <= tb.track_bounds(at).1,
                "[{at}, +{len}) crosses a track"
            );
            pieces.push(len);
            at += len;
        }
        assert_eq!(pieces, [100, 99, 101]);
    }

    #[test]
    #[should_panic(expected = "zero sectors")]
    fn zero_prefetch_panics() {
        planner().plan_prefetch(0, 0, 10);
    }
}
