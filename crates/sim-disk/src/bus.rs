//! The host interconnect model.
//!
//! Current SCSI and IDE/ATA interfaces deliver data to the host strictly in
//! ascending LBN order, which prevents a zero-latency read that began in the
//! middle of a track from streaming data immediately (§5.2 of the paper). The
//! bus model therefore tracks per-sector availability and enforces in-order
//! (or, as a what-if, out-of-order) delivery.

use crate::{SimDur, SECTOR_BYTES};

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
