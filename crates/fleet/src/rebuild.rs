//! Background repair: rebuilding a failed member and scrubbing
//! redundancy.
//!
//! Rebuild and `scrub_repair` run as sequential background scans on the
//! simulated clock — each step's member commands issue when the previous
//! step's finished — while `scrub` issues no command and folds over the
//! stores; all report through the [`traxtent::obs`] registry so the
//! same observability surface that watches the server watches repair.

use crate::data::{nonzero, scrub_in_parts, SectorStore};
use crate::layout::VolumeKind;
use crate::volume::{lost, Access, Volume};
use crate::FleetError;
use sim_disk::SimTime;
use traxtent::obs::Registry;
use traxtent::Extent;

/// What a completed [`Volume::rebuild_member`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildReport {
    /// The member that was rebuilt.
    pub member: usize,
    /// Stripe units reconstructed onto it.
    pub units: u64,
    /// Sectors written to it.
    pub sectors: u64,
    /// When the first reconstruction read was issued.
    pub started: SimTime,
    /// When the last rebuild write completed.
    pub finished: SimTime,
}

/// What a [`Volume::scrub_repair`] pass fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairReport {
    /// Sectors whose redundancy was cross-checked.
    pub checked_sectors: u64,
    /// Sectors found violating the redundancy invariant (divergent
    /// mirror copies, parity not matching its data columns).
    pub mismatched_sectors: u64,
    /// Sectors rewritten to restore the invariant.
    pub repaired_sectors: u64,
    /// When the first verify read was issued.
    pub started: SimTime,
    /// When the last repair write completed.
    pub finished: SimTime,
}

/// What a [`Volume::scrub`] pass verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Members most suspect first, by fault-layer statistics.
    pub order: Vec<usize>,
    /// Sectors whose redundancy was checked.
    pub checked_sectors: u64,
    /// Sectors whose mirror copies or parity disagreed.
    pub mismatches: u64,
}

/// A member's scrub rank: drives that have been throwing media errors,
/// growing defects, or surfacing transient faults rank first.
fn suspicion(v: &Volume, m: usize) -> u64 {
    let s = v.members[m].disk.fault_stats();
    s.media_errors + 2 * s.grown_defects + 2 * s.grown_defects_unspared + s.transient_surfaced
}

impl Volume {
    /// Reconstructs the failed member `i` in place: a sequential
    /// background scan that, per stripe unit, reads the surviving
    /// members' columns (timed member commands), recomputes the lost
    /// contents (XOR for RAID-5, a copy for mirrors), and writes them
    /// back to member `i`. The words go into a fresh zeroed store, which
    /// becomes the member's only when the scan completes: on return the
    /// member is healthy again and its store holds bit-exact
    /// reconstructed data (and zeroes where no unit maps), while a scan
    /// that fails leaves the member failed with no store.
    ///
    /// Progress and totals are exported into `reg` as
    /// `fleet.rebuild.units`, `fleet.rebuild.sectors`,
    /// `fleet.rebuild.progress_pct`, and `fleet.rebuild.completed`.
    ///
    /// Fails with [`FleetError::NoSuchMember`] if `i` is not a member,
    /// [`FleetError::NotFailed`] if the member is healthy,
    /// [`FleetError::DegradedPeer`] if any *other* member is down, and
    /// [`FleetError::Unrecoverable`] on a RAID-0 volume.
    pub fn rebuild_member(
        &mut self,
        i: usize,
        reg: &Registry,
        at: SimTime,
    ) -> Result<RebuildReport, FleetError> {
        self.check_member(i)?;
        if !self.layout.kind().redundant() {
            return Err(lost(i));
        }
        if self.members[i].healthy {
            return Err(FleetError::NotFailed { member: i });
        }
        let peers = || (0..self.members.len()).filter(|&m| m != i);
        // A mirror copies one healthy member's units; RAID-5 XORs every
        // surviving column of each round, so it needs all of them.
        let source = if self.layout.kind() == VolumeKind::Mirrored {
            let source = peers().find(|&m| self.members[m].healthy);
            Some(source.ok_or(lost(i))?)
        } else {
            if let Some(peer) = peers().find(|&m| !self.members[m].healthy) {
                return Err(FleetError::DegradedPeer { member: peer });
            }
            None
        };

        let mut acc = Access::default();
        let mut t = at;
        let mut sectors = 0u64;
        let mut words = Vec::new();
        let mut rebuilt = SectorStore::new(self.layout.member_caps()[i]);
        let total = self.layout.rounds().len();
        for step in self.layout.rounds() {
            let Extent { start: dst, len } = self.layout.member_extent(step, i);
            words.clear();
            words.resize(len as usize, 0);
            let reads_done = match source {
                Some(src) => {
                    let read = self.read_member(&mut acc, src, dst, len, t, "survivor");
                    // Into zeroes: a copy.
                    self.stores()[src].xor_into(dst, &mut words);
                    read
                }
                None => self.xor_survivors(&mut acc, step, 0, &[i], t, &mut words),
            }
            .map_err(|_| lost(i))?;
            t = self
                .write_member(&mut acc, i, dst, &words, reads_done, "rebuild")
                .map_err(|_| lost(i))?;
            rebuilt.write(dst, &words);
            sectors += len;
            let pct = (step as u64 + 1) * 100 / total as u64;
            reg.set_gauge("fleet.rebuild.progress_pct", pct);
        }
        let units = total as u64;
        self.stores()[i] = rebuilt;
        self.members[i].healthy = true;
        self.stats.reconstructed_sectors += sectors;
        reg.add("fleet.rebuild.units", units);
        reg.add("fleet.rebuild.sectors", sectors);
        reg.add("fleet.rebuild.completed", 1);
        Ok(RebuildReport {
            member: i,
            units,
            sectors,
            started: at,
            finished: t,
        })
    }

    /// Verifies the redundancy invariant across the data plane: parity
    /// equals the XOR of its data columns (RAID-5, every member healthy),
    /// every healthy mirror copy agrees with the least suspect one
    /// (RAID-1). The report ranks members by their fault-layer statistics,
    /// most suspect first — the signal a background scrubber keys on.
    /// RAID-0 has nothing to cross-check. The check is a pure fold over
    /// the stores, cut into one range of stripe rounds per core.
    ///
    /// Totals land in `reg` as `fleet.scrub.passes`,
    /// `fleet.scrub.checked_sectors`, and `fleet.scrub.mismatches`.
    pub fn scrub(&mut self, reg: &Registry) -> ScrubReport {
        let mut order: Vec<usize> = (0..self.members.len()).collect();
        order.sort_by_key(|&m| std::cmp::Reverse(suspicion(self, m)));
        let reference = order
            .iter()
            .rev()
            .copied()
            .find(|&m| self.members[m].healthy);
        // A scrub reads the whole plane, so it fills an implicit one.
        let members = &self.members;
        let stores = self.plane.stores(&self.layout, |m| !members[m].healthy);
        let (checked, mismatches) =
            scrub_in_parts(&self.layout, stores, reference, traxtent::par::cores());
        reg.add("fleet.scrub.passes", 1);
        reg.add("fleet.scrub.checked_sectors", checked);
        reg.add("fleet.scrub.mismatches", mismatches);
        ScrubReport {
            order,
            checked_sectors: checked,
            mismatches,
        }
    }

    /// The write-hole closer: a timed background scan that verifies the
    /// redundancy invariant with real member reads and *repairs* every
    /// violation it finds — the pass a RAID controller runs after a
    /// power cut, when a logical write may have updated some copies (or
    /// the data column) without the others (or the parity column).
    ///
    /// * **RAID-5** — per stripe round, read every column and XOR them;
    ///   a nonzero syndrome means the parity no longer covers its data,
    ///   so the parity unit is recomputed from the data columns and
    ///   rewritten. Data columns are never touched: whichever of the old
    ///   and new data survived the cut is durable, the parity must
    ///   follow it.
    /// * **RAID-1** — copies are compared against the lowest-index
    ///   healthy member and divergent copies are rewritten from it (the
    ///   classic md-style resync: one copy is designated authoritative;
    ///   both sides of a torn write are durable states, the repair just
    ///   has to pick one deterministically).
    /// * **RAID-0** — nothing to cross-check.
    ///
    /// Totals land in `reg` as `fleet.scrub.repair_passes`,
    /// `fleet.scrub.mismatched_sectors`, and
    /// `fleet.scrub.repaired_sectors`.
    ///
    /// # Errors
    ///
    /// [`FleetError::DegradedPeer`] if any member is failed (rebuild it
    /// first — repair needs every column), and
    /// [`FleetError::RetriesExhausted`] if a member will not take a
    /// verify read or repair write within the retry budget.
    pub fn scrub_repair(
        &mut self,
        reg: &Registry,
        at: SimTime,
    ) -> Result<RepairReport, FleetError> {
        if let Some(peer) = self.failed_members().first().copied() {
            return Err(FleetError::DegradedPeer { member: peer });
        }
        let mut acc = Access::default();
        let mut t = at;
        let mut checked = 0u64;
        let mut mismatched = 0u64;
        let mut repaired = 0u64;
        let mut words = Vec::new();
        let mut syndrome = Vec::new();
        match self.layout.kind() {
            VolumeKind::Striped => {}
            VolumeKind::Mirrored => {
                for r in self.layout.rounds() {
                    let Extent { start: pstart, len } = self.layout.member_extent(r, 0);
                    t = self.read_member(&mut acc, 0, pstart, len, t, "verify")?;
                    words.clear();
                    self.stores()[0].read_into(pstart, len, &mut words);
                    for m in 1..self.members.len() {
                        t = self.read_member(&mut acc, m, pstart, len, t, "verify")?;
                        checked += len;
                        syndrome.clone_from(&words);
                        self.stores()[m].xor_into(pstart, &mut syndrome);
                        let diverged = nonzero(&syndrome);
                        if diverged == 0 {
                            continue;
                        }
                        mismatched += diverged;
                        t = self.write_member(&mut acc, m, pstart, &words, t, "repair")?;
                        self.stores()[m].write(pstart, &words);
                        repaired += len;
                    }
                }
            }
            VolumeKind::Raid5 => {
                for r in self.layout.rounds() {
                    let p = self.layout.parity(r);
                    let Extent { start: pdst, len } = self.layout.member_extent(r, p);
                    syndrome.clear();
                    syndrome.resize(len as usize, 0);
                    t = self.xor_survivors(&mut acc, r, 0, &[], t, &mut syndrome)?;
                    checked += len;
                    let bad = nonzero(&syndrome);
                    if bad == 0 {
                        continue;
                    }
                    mismatched += bad;
                    // The parity that covers the data columns as they are
                    // is the old parity XOR the syndrome.
                    self.stores()[p].xor_into(pdst, &mut syndrome);
                    t = self.write_member(&mut acc, p, pdst, &syndrome, t, "repair")?;
                    self.stores()[p].write(pdst, &syndrome);
                    repaired += len;
                }
            }
        }
        reg.add("fleet.scrub.repair_passes", 1);
        reg.add("fleet.scrub.mismatched_sectors", mismatched);
        reg.add("fleet.scrub.repaired_sectors", repaired);
        Ok(RepairReport {
            checked_sectors: checked,
            mismatched_sectors: mismatched,
            repaired_sectors: repaired,
            started: at,
            finished: t,
        })
    }
}
