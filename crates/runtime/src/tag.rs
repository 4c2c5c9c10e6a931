//! Message names and envelopes.
//!
//! XDP matches a send with a receive by the transferred section's *name*
//! (§2.2, footnote 2): the variable plus the concrete section bounds. "It is
//! incorrect usage of XDP if the sections transferred in send and receive
//! operations do not match" (§2.7) — the matcher therefore uses the exact
//! `(variable, section)` pair as the rendezvous key.

use crate::value::Buffer;
use std::sync::Arc;
use xdp_ir::{Section, TransferKind, VarId};

/// The smallest salt a redistribution's share uses: redistribution
/// epochs salt their tags `epoch * 1_000_000` with `epoch >= 1`, so any
/// message whose `tag.salt >= REDIST_SALT_FLOOR` is part of an explicit
/// redistribution schedule. The network backends use this to scope their
/// live-buffer high-water accounting to redistribution traffic.
pub const REDIST_SALT_FLOOR: i64 = 1_000_000;

/// The name of a transferred section: the rendezvous key.
///
/// `salt` is the compiler-generated *message type* of §4 ("an auxiliary
/// data structure ... used ... to generate matching message types"): when
/// the same section is legitimately transferred several times to different
/// consumers, the compiler disambiguates the pairs with a salt expression
/// evaluated identically on both sides. Hand-written XDP and the paper's
/// listings use salt 0 (pure name matching).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Tag {
    /// The variable whose section is being transferred.
    pub var: VarId,
    /// Concrete section bounds.
    pub sec: Section,
    /// Compiler-generated message type (0 = plain name matching).
    pub salt: i64,
}

impl Tag {
    /// Build a plain (unsalted) tag.
    pub fn new(var: VarId, sec: Section) -> Tag {
        Tag { var, sec, salt: 0 }
    }

    /// Build a salted tag.
    pub fn salted(var: VarId, sec: Section, salt: i64) -> Tag {
        Tag { var, sec, salt }
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.var, self.sec)?;
        if self.salt != 0 {
            write!(f, "#{}", self.salt)?;
        }
        Ok(())
    }
}

/// A message in flight: the name, what is being transferred, and — for
/// value-carrying transfers — the payload in row-major order of `tag.sec`.
///
/// The payload is reference-counted: duplicating a message for multicast
/// shares the same immutable buffer instead of deep-copying it. Byte accounting ([`Msg::size_bytes`],
/// [`Msg::payload_bytes`]) is unaffected — it charges the logical payload
/// size, not allocation.
#[derive(Clone, PartialEq, Debug)]
pub struct Msg {
    /// Rendezvous name.
    pub tag: Tag,
    /// Value / Ownership / OwnershipValue.
    pub kind: TransferKind,
    /// Row-major payload; `None` for ownership-only transfers.
    pub payload: Option<Arc<Buffer>>,
    /// Sending processor.
    pub src: usize,
}

impl Msg {
    /// Wire size in bytes: payload plus a fixed header charge for the name
    /// (variable id + rank * triplet). The header is what the paper notes
    /// can be elided when the association is made at compile time.
    pub fn size_bytes(&self) -> u64 {
        let header = 8 + 24 * self.tag.sec.rank() as u64;
        header + self.payload.as_ref().map_or(0, |b| b.size_bytes())
    }

    /// Payload-only size in bytes (used when communication has been bound
    /// at compile time and the name need not travel).
    pub fn payload_bytes(&self) -> u64 {
        self.payload.as_ref().map_or(0, |b| b.size_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::{ElemType, Triplet};

    #[test]
    fn tag_equality_is_structural() {
        let s1 = Section::new(vec![Triplet::range(1, 4)]);
        let s2 = Section::new(vec![Triplet::new(1, 4, 1)]);
        assert_eq!(Tag::new(VarId(0), s1.clone()), Tag::new(VarId(0), s2));
        assert_ne!(Tag::new(VarId(0), s1.clone()), Tag::new(VarId(1), s1));
    }

    #[test]
    fn msg_sizes() {
        let sec = Section::new(vec![Triplet::range(1, 4)]);
        let m = Msg {
            tag: Tag::new(VarId(0), sec.clone()),
            kind: TransferKind::Value,
            payload: Some(Arc::new(Buffer::zeros(ElemType::F64, 4))),
            src: 0,
        };
        assert_eq!(m.payload_bytes(), 32);
        assert_eq!(m.size_bytes(), 8 + 24 + 32);
        let own = Msg {
            tag: Tag::new(VarId(0), sec),
            kind: TransferKind::Ownership,
            payload: None,
            src: 1,
        };
        assert_eq!(own.payload_bytes(), 0);
        assert_eq!(own.size_bytes(), 32);
    }

    #[test]
    fn display() {
        let t = Tag::new(VarId(2), Section::new(vec![Triplet::range(1, 4)]));
        assert_eq!(t.to_string(), "v2[1:4]");
    }
}
