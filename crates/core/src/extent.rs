//! Extents: half-open LBN ranges.

use std::fmt;

/// A half-open range of logical block numbers `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Extent {
    /// First LBN.
    pub start: u64,
    /// Number of sectors (always positive).
    pub len: u64,
}

impl Extent {
    /// Creates an extent.
    ///
    /// ```
    /// use traxtent::Extent;
    ///
    /// let e = Extent::new(10, 5); // sectors 10, 11, 12, 13, 14
    /// assert_eq!(e.end(), 15);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or the range overflows `u64`.
    pub fn new(start: u64, len: u64) -> Self {
        assert!(len > 0, "extent length must be positive");
        assert!(
            start.checked_add(len).is_some(),
            "extent overflows the LBN space"
        );
        Extent { start, len }
    }

    /// Creates an extent from half-open bounds, or `None` if empty.
    ///
    /// ```
    /// use traxtent::Extent;
    ///
    /// assert_eq!(Extent::from_bounds(5, 7), Some(Extent::new(5, 2)));
    /// assert_eq!(Extent::from_bounds(5, 5), None); // empty range
    /// ```
    pub fn from_bounds(start: u64, end: u64) -> Option<Self> {
        // `end > start`: the length is positive and the end is in range.
        (end > start).then(|| Extent {
            start,
            len: end - start,
        })
    }

    /// One past the last LBN.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// The overlap of two extents, if any.
    ///
    /// ```
    /// use traxtent::Extent;
    ///
    /// let a = Extent::new(0, 10);
    /// assert_eq!(a.intersect(&Extent::new(5, 10)), Some(Extent::new(5, 5)));
    /// assert_eq!(a.intersect(&Extent::new(10, 5)), None); // merely adjacent
    /// ```
    pub fn intersect(&self, other: &Extent) -> Option<Extent> {
        Extent::from_bounds(self.start.max(other.start), self.end().min(other.end()))
    }
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let e = Extent::new(10, 5);
        assert_eq!(e.end(), 15);
        assert_eq!(format!("{e}"), "[10, 15)");
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_len_panics() {
        let _ = Extent::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflow_panics() {
        let _ = Extent::new(u64::MAX, 2);
    }

    #[test]
    fn from_bounds_rejects_empty() {
        assert_eq!(Extent::from_bounds(5, 5), None);
        assert_eq!(Extent::from_bounds(6, 5), None);
        assert_eq!(Extent::from_bounds(5, 7), Some(Extent::new(5, 2)));
    }

    #[test]
    fn overlap_and_containment() {
        let a = Extent::new(0, 10);
        let b = Extent::new(5, 10);
        let c = Extent::new(10, 5);
        assert_eq!(a.intersect(&b), Some(Extent::new(5, 5)));
        assert_eq!(a.intersect(&c), None);
    }
}
