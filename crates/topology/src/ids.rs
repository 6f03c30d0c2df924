//! Strongly-typed identifiers for topology entities.
//!
//! All identifiers are thin wrappers over `u32` (a maximum-size Dragonfly
//! with `h = 16` has 266,272 nodes, far below `u32::MAX`), kept `Copy` and
//! niche-free so they can live in hot simulator arrays.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $short:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// The raw index as `usize`, for array indexing.
            #[inline]
            pub const fn idx(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($short, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($short, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<usize> for $name {
            #[inline]
            #[expect(
                clippy::cast_possible_truncation,
                reason = "ids index a network whose router and node counts fit u32; debug-asserted below"
            )]
            fn from(raw: usize) -> Self {
                debug_assert!(raw <= u32::MAX as usize);
                Self(raw as u32)
            }
        }
    };
}

id_type!(
    /// A group of routers (first hierarchy level). Groups are numbered
    /// `0 .. 2h² + 1` in the maximum-size network.
    GroupId,
    "G"
);

id_type!(
    /// A router, numbered globally: router `r` of group `g` has id
    /// `g·a + r`.
    RouterId,
    "R"
);

id_type!(
    /// A compute node, numbered globally: node `n` of router `R` has id
    /// `R·p + n`.
    NodeId,
    "N"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_and_format() {
        let g = GroupId::new(7);
        assert_eq!(g.idx(), 7);
        assert_eq!(format!("{g}"), "G7");
        assert_eq!(format!("{g:?}"), "G7");
        let r = RouterId::from(12usize);
        assert_eq!(r, RouterId::new(12));
        let n = NodeId::from(3u32);
        assert_eq!(n.0, 3);
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(RouterId::new(1) < RouterId::new(2));
        assert_eq!(NodeId::default(), NodeId::new(0));
    }
}
