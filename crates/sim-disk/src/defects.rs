//! Media defects and the firmware policies that hide them.
//!
//! Real drives ship with a primary ("P-list") defect list recorded at the
//! factory and accumulate a grown ("G-list") defect list in the field. The
//! firmware hides defects from the LBN interface in one of two ways:
//!
//! * **Slipping** — the LBN-to-physical mapping simply skips the defective
//!   sector, shifting every subsequent LBN in the slip domain by one. This
//!   is efficient (sequential access stays sequential) and is the common
//!   factory policy, but it perturbs track boundaries, which is exactly what
//!   makes track detection hard.
//! * **Remapping** — the LBN that would live in the defective sector is
//!   redirected to a spare sector elsewhere, leaving all other mappings
//!   untouched. Access to a remapped LBN costs an extra mechanical
//!   excursion.

/// A physical media location named by cylinder, head (surface), and the
/// physical sector slot index within the track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DefectLocation {
    /// Cylinder number, 0 at the outer edge.
    pub cyl: u32,
    /// Surface (read/write head) number.
    pub head: u32,
    /// Physical sector slot on the track, `0..sectors_per_track`.
    pub slot: u32,
}

impl DefectLocation {
    /// Creates a defect location.
    pub fn new(cyl: u32, head: u32, slot: u32) -> Self {
        DefectLocation { cyl, head, slot }
    }
}

/// How the firmware reserves spare space for defect management.
///
/// The paper (§3.1) observes "a wide array of spare space schemes" — over
/// ten in real drives; these five cover the structural variety that the
/// DIXtrac-style extractor must classify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpareScheme {
    /// No reserved spare space. Only valid for defect-free disks (or when
    /// every defect is remapped to the end of the LBN space, which this
    /// simulator does not model).
    None,
    /// The last `n` sector slots of every track are reserved.
    SectorsPerTrack(u32),
    /// The last `n` sector slots of every cylinder (i.e. the tail of its
    /// last track) are reserved.
    SectorsPerCylinder(u32),
    /// The last `n` tracks of every zone are reserved.
    TracksPerZone(u32),
    /// The last `n` tracks of the disk are reserved.
    TracksAtEnd(u32),
}

impl SpareScheme {
    /// Spare slots reserved on a given track, given the track's position in
    /// its cylinder/zone/disk. Arguments describe the track's context:
    /// whether it is the last track of its cylinder, and how many tracks from
    /// the end of its zone / the disk it is (0 = last).
    pub(crate) fn reserved_slots_on_track(
        self,
        is_last_in_cylinder: bool,
        tracks_from_zone_end: u32,
        tracks_from_disk_end: u32,
        spt: u32,
    ) -> u32 {
        match self {
            SpareScheme::None => 0,
            SpareScheme::SectorsPerTrack(n) => n.min(spt),
            SpareScheme::SectorsPerCylinder(n) => {
                if is_last_in_cylinder {
                    n.min(spt)
                } else {
                    0
                }
            }
            SpareScheme::TracksPerZone(n) => {
                if tracks_from_zone_end < n {
                    spt
                } else {
                    0
                }
            }
            SpareScheme::TracksAtEnd(n) => {
                if tracks_from_disk_end < n {
                    spt
                } else {
                    0
                }
            }
        }
    }

    /// The slip domain implied by the scheme: how far a slipped defect
    /// perturbs subsequent LBNs.
    pub(crate) fn slip_domain(self) -> SlipDomain {
        match self {
            SpareScheme::None => SlipDomain::Disk,
            SpareScheme::SectorsPerTrack(_) => SlipDomain::Track,
            SpareScheme::SectorsPerCylinder(_) => SlipDomain::Cylinder,
            SpareScheme::TracksPerZone(_) => SlipDomain::Zone,
            SpareScheme::TracksAtEnd(_) => SlipDomain::Disk,
        }
    }
}

/// The region within which a slipped defect shifts subsequent LBNs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlipDomain {
    Track,
    Cylinder,
    Zone,
    Disk,
}

/// How factory defects are folded into the LBN mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DefectPolicy {
    /// Skip the defective slot and shift subsequent LBNs (the common case).
    #[default]
    Slip,
    /// Keep the nominal mapping and redirect the affected LBN to a spare
    /// slot in the same spare domain.
    Remap,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_track_scheme_reserves_on_every_track() {
        let s = SpareScheme::SectorsPerTrack(4);
        assert_eq!(s.reserved_slots_on_track(false, 10, 100, 100), 4);
        assert_eq!(s.reserved_slots_on_track(true, 0, 0, 100), 4);
        // Never more than the track holds.
        assert_eq!(s.reserved_slots_on_track(false, 3, 9, 2), 2);
    }

    #[test]
    fn per_cylinder_scheme_reserves_only_on_last_track() {
        let s = SpareScheme::SectorsPerCylinder(8);
        assert_eq!(s.reserved_slots_on_track(false, 5, 5, 100), 0);
        assert_eq!(s.reserved_slots_on_track(true, 5, 5, 100), 8);
    }

    #[test]
    fn zone_tail_tracks_fully_reserved() {
        let s = SpareScheme::TracksPerZone(2);
        assert_eq!(s.reserved_slots_on_track(false, 0, 50, 100), 100);
        assert_eq!(s.reserved_slots_on_track(false, 1, 50, 100), 100);
        assert_eq!(s.reserved_slots_on_track(false, 2, 50, 100), 0);
    }

    #[test]
    fn disk_tail_tracks_fully_reserved() {
        let s = SpareScheme::TracksAtEnd(3);
        assert_eq!(s.reserved_slots_on_track(false, 9, 2, 100), 100);
        assert_eq!(s.reserved_slots_on_track(false, 9, 3, 100), 0);
    }

    #[test]
    fn none_scheme_reserves_nothing() {
        let s = SpareScheme::None;
        assert_eq!(s.reserved_slots_on_track(true, 0, 0, 100), 0);
    }

    #[test]
    fn defect_location_orders_by_cyl_head_slot() {
        let a = DefectLocation::new(1, 0, 50);
        let b = DefectLocation::new(1, 1, 0);
        let c = DefectLocation::new(2, 0, 0);
        assert!(a < b && b < c);
    }
}
