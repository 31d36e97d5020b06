//! SplitMix64: the one deterministic mixer every layer hashes with —
//! span ids, fault draws, fill patterns, torn-sector checksums. Outputs
//! are pinned by manifests and on-disk formats, so the constants here are
//! part of the file formats, not a tuning knob.

/// The 64-bit golden-ratio increment SplitMix64 steps its state by.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer: a bijective 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One SplitMix64 output: the finalizer applied to `x` stepped by
/// [`GOLDEN_GAMMA`]. Feeding the stepped state back in yields the
/// generator's stream.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GOLDEN_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_stream() {
        // First outputs of the reference SplitMix64 generator seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(mix64(0), 0);
    }
}
