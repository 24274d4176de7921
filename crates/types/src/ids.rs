//! Strongly-typed identifiers.
//!
//! Every entity in the simulation (user, video, multicast group, base
//! station, segment) has its own newtype id so that the compiler rejects
//! accidental cross-wiring, e.g. passing a [`VideoId`] where a [`UserId`] is
//! expected.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index value.
            ///
            /// # Examples
            /// ```
            /// # use msvs_types::ids::UserId;
            /// assert_eq!(UserId(3).index(), 3);
            /// ```
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

id_newtype!(
    /// Identifier of a streaming user (and of its digital twin).
    UserId,
    "u"
);
id_newtype!(
    /// Identifier of a short video in the catalog.
    VideoId,
    "v"
);
id_newtype!(
    /// Identifier of a multicast group produced by group construction.
    GroupId,
    "g"
);
id_newtype!(
    /// Identifier of a base station.
    BsId,
    "bs"
);
id_newtype!(
    /// Identifier of a segment within a video (segment 0 is the first).
    SegmentId,
    "s"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(UserId(4).to_string(), "u4");
        assert_eq!(VideoId(0).to_string(), "v0");
        assert_eq!(GroupId(2).to_string(), "g2");
        assert_eq!(BsId(1).to_string(), "bs1");
        assert_eq!(SegmentId(9).to_string(), "s9");
    }

    #[test]
    fn round_trips_through_u32() {
        let id = UserId::from(77u32);
        assert_eq!(u32::from(id), 77);
        assert_eq!(id.index(), 77);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(UserId(1) < UserId(2));
        let mut v = vec![GroupId(3), GroupId(1), GroupId(2)];
        v.sort();
        assert_eq!(v, vec![GroupId(1), GroupId(2), GroupId(3)]);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(UserId::default(), UserId(0));
    }
}
