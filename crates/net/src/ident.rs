//! Node identity.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A unique node identifier.
///
/// IDs are the tie-breaker of every clustering algorithm in this
/// workspace and the *primary* weight of Lowest-ID clustering, so
/// their total order matters: `NodeId` derives `Ord` on the underlying
/// integer.
///
/// # Examples
///
/// ```
/// use mobic_net::NodeId;
///
/// let a = NodeId::new(1);
/// let b = NodeId::new(2);
/// assert!(a < b);
/// assert_eq!(a.to_string(), "n1");
/// assert_eq!(a.index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id.
    #[must_use]
    pub const fn new(id: u32) -> Self {
        NodeId(id)
    }

    /// The raw integer id, usable as a dense vector index when ids
    /// are assigned `0..n`.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw integer value.
    #[must_use]
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_equality() {
        assert!(NodeId::new(0) < NodeId::new(1));
        assert_eq!(NodeId::new(7), NodeId::from(7));
        assert_eq!(u32::from(NodeId::new(9)), 9);
    }

    #[test]
    fn index_roundtrip() {
        assert_eq!(NodeId::new(42).index(), 42);
        assert_eq!(NodeId::new(42).value(), 42);
    }

    #[test]
    fn display() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "checks that `NodeId` implements `Hash`"
    )]
    fn usable_in_collections() {
        use std::collections::{BTreeSet, HashSet};
        let b: BTreeSet<NodeId> = [2, 1, 3].map(NodeId::new).into_iter().collect();
        assert_eq!(b.iter().next(), Some(&NodeId::new(1)));
        let h: HashSet<NodeId> = [1, 1, 2].map(NodeId::new).into_iter().collect();
        assert_eq!(h.len(), 2);
    }
}
