//! The host interconnect model.
//!
//! Current SCSI and IDE/ATA interfaces deliver data to the host strictly in
//! ascending LBN order, which prevents a zero-latency read that began in the
//! middle of a track from streaming data immediately (§5.2 of the paper). The
//! bus model therefore enforces in-order (or, as a what-if, out-of-order)
//! delivery of sectors that each become available at their own instant.
//!
//! # Delivery without touching every sector
//!
//! A sector that the media hands over at instant `a` crosses the bus in
//! `s` (the bus's sector time) once the sector before it is across:
//! `e ← max(a, e) + s`, starting from the instant the bus falls free. In
//! integer nanoseconds that recurrence unrolls exactly: `n` sectors take
//! `e` to `max(e + n·s, maxᵢ(aᵢ + (n − i)·s))`. Where consecutive
//! instants lie at least `s` apart, `aᵢ + (n − i)·s` cannot fall as `i`
//! grows, so the inner maximum is its last term and the whole run costs
//! one `max` ([`Delivery::run`]) — and runs compose, whatever the instants
//! do *between* them. [`Delivery`] applies that per monotone piece of a
//! visit and folds the recurrence sector by sector ([`Delivery::visit`],
//! no buffer, no sort) wherever the argument does not reach.

use crate::geometry::Track;
use crate::mech::Spindle;
use crate::rotation::{self, EPS};
use crate::{SimDur, SimTime, SECTOR_BYTES};

/// Bus configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusConfig {
    /// Peak transfer rate in bytes per second, or `None` for an infinitely
    /// fast bus (the paper's simulator configuration for Figure 8).
    pub bytes_per_sec: Option<f64>,
    /// Whether the interface may deliver sectors out of LBN order (the
    /// hypothetical MODIFY DATA POINTER mode of §5.2).
    pub out_of_order: bool,
}

impl BusConfig {
    /// A conventional in-order bus at `mb_per_sec` × 10⁶ bytes/s.
    pub fn in_order(mb_per_sec: f64) -> Self {
        assert!(mb_per_sec > 0.0, "bus rate must be positive");
        BusConfig {
            bytes_per_sec: Some(mb_per_sec * 1e6),
            out_of_order: false,
        }
    }

    /// An out-of-order bus at `mb_per_sec` × 10⁶ bytes/s.
    pub fn out_of_order(mb_per_sec: f64) -> Self {
        assert!(mb_per_sec > 0.0, "bus rate must be positive");
        BusConfig {
            bytes_per_sec: Some(mb_per_sec * 1e6),
            out_of_order: true,
        }
    }

    /// The infinitely fast bus ("zero bus transfer" in Figure 6).
    pub fn infinite() -> Self {
        BusConfig {
            bytes_per_sec: None,
            out_of_order: false,
        }
    }

    /// Time to move one sector across the bus.
    pub fn sector_time(&self) -> SimDur {
        match self.bytes_per_sec {
            Some(rate) => SimDur::from_secs_f64(SECTOR_BYTES as f64 / rate),
            None => SimDur::ZERO,
        }
    }

    /// Time to move `bytes` across the bus.
    pub fn transfer_time(&self, bytes: u64) -> SimDur {
        match self.bytes_per_sec {
            Some(rate) => SimDur::from_secs_f64(bytes as f64 / rate),
            None => SimDur::ZERO,
        }
    }

    /// Whether the bus is modeled as infinitely fast.
    pub fn is_infinite(&self) -> bool {
        self.bytes_per_sec.is_none()
    }
}

/// One read's delivery over a finite bus, fed visit by visit as the
/// mechanism produces them; [`Delivery::end`] is the instant the last
/// sector is across. See the module documentation for the identity.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    end: SimTime,
    sector: SimDur,
    out_of_order: bool,
}

impl Delivery {
    /// A delivery over `bus` (finite) that cannot start before `bus_free`.
    pub fn new(bus: &BusConfig, bus_free: SimTime) -> Self {
        debug_assert!(!bus.is_infinite());
        Delivery {
            end: bus_free,
            sector: bus.sector_time(),
            out_of_order: bus.out_of_order,
        }
    }

    /// The instant the last sector fed so far is across the bus.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Whether sectors that come off the media one `slot_time` apart are
    /// sure to reach the bus at least a sector time apart. An instant is a
    /// real time rounded to the nanosecond, so consecutive ones differ by
    /// the real slot time ± 1 ns, and `slot_time` is itself rounded: two
    /// nanoseconds of slack cover both.
    pub fn paced_by(&self, slot_time: SimDur) -> bool {
        slot_time >= self.sector + SimDur::from_ns(2)
    }

    /// Delivers `n > 0` sectors whose instants ascend at least a sector
    /// time apart (see [`Delivery::paced_by`]) and end at `last`; the
    /// order of delivery is then the same on either kind of bus.
    pub fn run(&mut self, n: u32, last: SimTime) {
        debug_assert!(n > 0);
        self.end = (self.end + self.sector * u64::from(n)).max(last + self.sector);
    }

    /// Delivers one visit's sectors from their availability instants in
    /// LBN order, one `max` and `+` each: the reference the closed forms
    /// equal, and the path for what they do not cover.
    ///
    /// An in-order bus takes them as they come. An out-of-order bus takes
    /// them by instant, and needs no sort for it: a visit's slots ascend,
    /// so its instants are an ascending sequence rotated (zero-latency
    /// access starts mid-run and wraps; ordinary access does not rotate),
    /// and so descend at most once. Everything from the descent on is due
    /// first and goes straight into the recurrence; the sectors before it
    /// are folded on the side as the max-plus map `e ↦ max(e + n·s, c)`
    /// and applied last. Visits themselves never interleave: each begins
    /// after the one before has ended.
    pub fn visit(&mut self, avail: impl Iterator<Item = SimTime>) {
        if !self.out_of_order {
            for a in avail {
                self.end = self.end.max(a) + self.sector;
            }
            return;
        }
        let (mut n, mut c) = (0u64, SimTime::ZERO);
        let mut first = None;
        let mut prev = SimTime::ZERO;
        let mut wrapped = false;
        for a in avail {
            if a < prev {
                debug_assert!(!wrapped, "a visit's instants descend at most once");
                wrapped = true;
            }
            prev = a;
            if wrapped {
                debug_assert!(first.is_some_and(|f| a <= f), "not a rotation");
                self.end = self.end.max(a) + self.sector;
            } else {
                first.get_or_insert(a);
                c = c.max(a) + self.sector;
                n += 1;
            }
        }
        self.end = (self.end + self.sector * n).max(c);
    }

    /// Delivers a zero-latency visit of the contiguous slot run
    /// `[first, first + count)`, reached at `arr_angle`, whose sector in
    /// slot `x` is available at `base + sweep(slot_distance(x) + 1/spt)`;
    /// returns the run's rotational window, bit-identical to
    /// [`rotation::window_closed`]'s.
    ///
    /// Within each of [`rotation::window_pieces`]' ≤ 4 pieces the instants
    /// ascend one slot time (± 1 ns) apart, so on a bus that the media
    /// paces, an in-order delivery is one [`Delivery::run`] per piece — the
    /// very candidates the window is read off, through the very expression
    /// the scan evaluates — and an out-of-order delivery, which takes the
    /// pieces in ascending order (distinct slots lie at least a slot
    /// apart), is a single run ending with the visit. Three cases fall
    /// back to [`Delivery::visit`] over every sector:
    ///
    /// * **short run** — `count <= 2`, where the scan is the cheapest
    ///   correct algorithm (as in `window_closed`);
    /// * **unpaced bus** — the bus's sector time is not at least 2 ns
    ///   under the track's slot time (a bus as slow as the media, or
    ///   slower), so instants need not lie a sector time apart;
    /// * **EPS snap** — the head arrives within [`EPS`] past a slot's
    ///   leading edge (back-to-back sequential commands do) and that
    ///   slot's distance snaps to zero, which moves its instant a whole
    ///   revolution out of its piece.
    ///
    /// A visit that straddles slipped defects comes here once per
    /// contiguous sub-run on an in-order bus (the maps compose, in LBN
    /// order); an out-of-order bus takes such a visit by instant, across
    /// its sub-runs, so the drive feeds it to [`Delivery::visit`] whole.
    pub fn zero_latency_run(
        &mut self,
        track: &Track,
        spindle: Spindle,
        base: SimTime,
        arr_angle: f64,
        first: u32,
        count: u32,
    ) -> (f64, f64) {
        let slot_frac = track.inv_spt();
        let at = |d: f64| base + spindle.sweep(d + slot_frac);
        if count > 2 && self.paced_by(spindle.sweep(slot_frac)) {
            let p = rotation::window_pieces(track, arr_angle, first, count);
            if p.max_d < 1.0 - EPS {
                if self.out_of_order {
                    self.run(count, at(p.max_d));
                } else {
                    for (n, d_last) in p.runs {
                        if n > 0 {
                            self.run(n, at(d_last));
                        }
                    }
                }
                return (p.min_d, p.max_d);
            }
        }
        let mut min_d = f64::INFINITY;
        let mut max_d = f64::NEG_INFINITY;
        self.visit((first..first + count).map(|slot| {
            let d = rotation::slot_distance(track, arr_angle, slot);
            min_d = min_d.min(d);
            max_d = max_d.max(d);
            at(d)
        }));
        (min_d, max_d)
    }
}

impl Default for BusConfig {
    /// Ultra160-class defaults: 160 MB/s, in order.
    fn default() -> Self {
        BusConfig::in_order(160.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sector_time_matches_rate() {
        let b = BusConfig::in_order(160.0);
        // 512 bytes at 160 MB/s = 3.2 µs.
        assert_eq!(b.sector_time().as_ns(), 3_200);
        assert_eq!(b.transfer_time(160_000_000).as_ns(), 1_000_000_000);
    }

    #[test]
    fn infinite_bus_is_free() {
        let b = BusConfig::infinite();
        assert!(b.is_infinite());
        assert_eq!(b.sector_time(), SimDur::ZERO);
        assert_eq!(b.transfer_time(u64::MAX / 2), SimDur::ZERO);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = BusConfig::in_order(0.0);
    }

    #[test]
    fn out_of_order_flag() {
        assert!(!BusConfig::in_order(80.0).out_of_order);
        assert!(BusConfig::out_of_order(80.0).out_of_order);
    }
}
