//! Power-cut capture and resolution for a whole volume.
//!
//! A logical volume write fans out into several member commands — data
//! and parity for RAID-5, one command per copy for a mirror — and a
//! power cut can land between them (or tear any single command across
//! sectors). That is the classic RAID *write hole*: after the cut, some
//! columns hold the new write and others the old one, and the
//! redundancy invariant is silently broken until something reads the
//! stripe.
//!
//! [`Volume::arm_crash`] snapshots every member's data plane and arms
//! each member drive's [`sim_disk::crash`] log; from then on every
//! member write carries its byte payload and per-sector durability
//! instants. [`Volume::power_cut`] then resolves an arbitrary cut
//! instant to the exact durable state of every member — each store is
//! its armed snapshot with the logged sectors replayed over it — and
//! reports how many commands were torn or lost. The volume keeps
//! serving from that state; [`Volume::scrub_repair`] is the pass that
//! finds and closes the resulting write holes.

use crate::data::{Plane, SectorStore};
use crate::volume::Volume;
use sim_disk::crash::{durable_sectors, CrashError};
use sim_disk::SimTime;

/// What a [`Volume::power_cut`] resolution found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerCutReport {
    /// The cut instant.
    pub cut: SimTime,
    /// Write commands each member had logged by the cut.
    pub member_writes: Vec<u64>,
    /// Commands with *some but not all* sectors durable at the cut —
    /// torn mid-transfer by the firmware.
    pub torn_writes: u64,
    /// Commands with no durable sector at all (issued, never reached
    /// media).
    pub lost_writes: u64,
}

impl Volume {
    /// Arms power-cut capture: snapshots every member's current data
    /// plane (filling an implicit one; a failed member's is empty) as the
    /// replay base and enables each member drive's crash log. Timing is
    /// unchanged — an armed run is bit-identical to an unarmed one.
    /// Idempotent.
    pub fn arm_crash(&mut self) {
        if self.crash_base.is_some() {
            return;
        }
        self.crash_base = Some(self.stores().to_vec());
        for m in &mut self.members {
            m.disk.enable_crash_log();
        }
    }

    /// Read-only view of member `m`'s crash log (`None` before
    /// [`Volume::arm_crash`]). Sweeps use the logged per-sector durable
    /// instants to aim cuts at interesting places — mid-transfer, between
    /// a data write and its parity write.
    pub fn member_crash_log(&self, m: usize) -> Option<&sim_disk::crash::CrashLog> {
        self.members[m].disk.crash_log()
    }

    /// The latest durable instant across all member crash logs: cutting
    /// at or after this loses nothing.
    pub fn crash_horizon(&self) -> SimTime {
        self.members
            .iter()
            .filter_map(|m| m.disk.crash_log())
            .map(|l| l.horizon())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Loses power at `cut`: every member's data plane is replaced by
    /// exactly what its media durably held at that instant (later and
    /// torn-away sectors revert to the armed snapshot), member drives
    /// power-cycle back to their reset state, and capture is disarmed.
    /// Failed members stay failed, with no store — a power cut does not
    /// resurrect dead platters.
    ///
    /// The redundancy invariant is NOT restored: a cut that lands inside
    /// a logical write leaves the write hole on media, which is the
    /// point. Run [`Volume::scrub_repair`] to close it.
    ///
    /// # Errors
    ///
    /// [`CrashError::NotArmed`] if capture was never armed (or a cut
    /// already disarmed it), and [`CrashError::MissingPayload`] if a
    /// logged write never had its bytes attached (an internal contract
    /// violation — every volume write path attaches payloads while
    /// armed).
    pub fn power_cut(&mut self, cut: SimTime) -> Result<PowerCutReport, CrashError> {
        let base = self.crash_base.take().ok_or(CrashError::NotArmed)?;
        let mut member_writes = Vec::with_capacity(self.members.len());
        let mut torn = 0u64;
        let mut lost = 0u64;
        let mut stores = Vec::with_capacity(self.members.len());
        let caps = self.layout.member_caps();
        for ((m, mut store), &cap) in self.members.iter_mut().zip(base).zip(caps) {
            // The arm enabled every member's log: a missing one logged nothing.
            let log = m.disk.take_crash_log().unwrap_or_default();
            for rec in &log.records {
                let durable = rec.durable_count(cut);
                if durable == 0 {
                    lost += 1;
                } else if rec.torn_at(cut) {
                    torn += 1;
                }
            }
            member_writes.push(log.len() as u64);
            if m.healthy {
                if store.capacity() == 0 {
                    // Failed at the arm and rebuilt since: the rebuild's
                    // durable writes land on its fresh, zeroed store.
                    store = SectorStore::new(cap);
                }
                // A store keeps one word a sector: the payload's first 8
                // bytes, little-endian.
                durable_sectors(&log, cut, |lbn, sector| {
                    let (word, _) = sector.as_chunks::<8>();
                    store.set_word(lbn, u64::from_le_bytes(word[0]));
                })?;
            } else {
                // Failed since (or before) the arm: it holds no store.
                store = SectorStore::new(0);
            }
            stores.push(store);
            m.disk.reset();
        }
        self.plane = Plane::Filled(stores);
        Ok(PowerCutReport {
            cut,
            member_writes,
            torn_writes: torn,
            lost_writes: lost,
        })
    }
}
