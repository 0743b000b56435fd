//! Identifier newtypes used across the workspace.
//!
//! All identifiers are small `Copy` types with explicit, stable wire
//! encodings (see [`crate::wire`]), so they can appear inside signed
//! messages without ambiguity.

use std::fmt;

use crate::wire::{Decode, Encode, WireReader, WireWriter};

/// Identifies one data partition and the cluster of `3f+1` replicas that
/// maintains it. Partitions and clusters are 1:1 in TransEdge, so a
/// single id serves both roles.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ClusterId(pub u16);

impl ClusterId {
    /// Index helper for dense per-cluster tables (CD vectors and the
    /// like are indexed by cluster).
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// One replica (edge node) within a cluster. `index` ranges over
/// `0..3f+1`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReplicaId {
    pub cluster: ClusterId,
    pub index: u16,
}

impl ReplicaId {
    pub fn new(cluster: ClusterId, index: u16) -> Self {
        Self { cluster, index }
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/r{}", self.cluster, self.index)
    }
}

/// A client application driving transactions against the system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// An untrusted edge read node fronting one partition's ROT traffic.
/// Edge nodes hold no keys and take part in no consensus: they replay
/// proof-carrying responses that clients verify end to end, so a
/// deployment can add them freely to scale the read path.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId {
    /// Partition whose reads this node serves.
    pub cluster: ClusterId,
    pub index: u16,
}

impl EdgeId {
    pub fn new(cluster: ClusterId, index: u16) -> Self {
        Self { cluster, index }
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/e{}", self.cluster, self.index)
    }
}

/// Address of any process in the system — used by the network simulator
/// for routing and by protocol messages for provenance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeId {
    Replica(ReplicaId),
    Client(ClientId),
    Edge(EdgeId),
}

impl NodeId {
    /// The replica id, if this is a replica address.
    pub fn as_replica(self) -> Option<ReplicaId> {
        match self {
            NodeId::Replica(r) => Some(r),
            _ => None,
        }
    }

    /// The edge node id, if this is an edge address.
    pub fn as_edge(self) -> Option<EdgeId> {
        match self {
            NodeId::Edge(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Replica(r) => write!(f, "{r}"),
            NodeId::Client(c) => write!(f, "{c}"),
            NodeId::Edge(e) => write!(f, "{e}"),
        }
    }
}

impl From<EdgeId> for NodeId {
    fn from(e: EdgeId) -> Self {
        NodeId::Edge(e)
    }
}

impl From<ReplicaId> for NodeId {
    fn from(r: ReplicaId) -> Self {
        NodeId::Replica(r)
    }
}

impl From<ClientId> for NodeId {
    fn from(c: ClientId) -> Self {
        NodeId::Client(c)
    }
}

/// Globally unique transaction identifier: issuing client plus a
/// client-local sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxnId {
    pub client: ClientId,
    pub seq: u64,
}

impl TxnId {
    pub fn new(client: ClientId, seq: u64) -> Self {
        Self { client, seq }
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.client.0, self.seq)
    }
}

/// Position of a batch in one cluster's SMR log. The paper writes
/// `b^X_i`; this is the `i`. Batches are written strictly one-by-one, so
/// `BatchNum` doubles as the batch's logical timestamp within the
/// partition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BatchNum(pub u64);

impl BatchNum {
    #[inline]
    pub fn next(self) -> BatchNum {
        BatchNum(self.0 + 1)
    }

    #[inline]
    pub fn as_epoch(self) -> Epoch {
        Epoch(self.0 as i64)
    }
}

impl fmt::Display for BatchNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A batch number *or* the paper's `-1` sentinel.
///
/// The paper initialises CD-vector entries and the Last Committed Epoch
/// to `-1` to mean "no dependency yet" / "nothing committed yet"
/// (Figure 2). Encoding that sentinel in the type keeps comparisons like
/// "dependency satisfied iff `LCE >= V[X]`" identical to the paper's
/// arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Epoch(pub i64);

impl Epoch {
    /// The `-1` sentinel: no dependency / nothing committed.
    pub const NONE: Epoch = Epoch(-1);

    #[inline]
    pub fn is_none(self) -> bool {
        self.0 < 0
    }

    /// Converts to a concrete batch number, if not the sentinel.
    #[inline]
    pub fn batch(self) -> Option<BatchNum> {
        (self.0 >= 0).then_some(BatchNum(self.0 as u64))
    }

    #[inline]
    pub fn max(self, other: Epoch) -> Epoch {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Default for Epoch {
    fn default() -> Self {
        Epoch::NONE
    }
}

impl From<BatchNum> for Epoch {
    fn from(b: BatchNum) -> Self {
        Epoch(b.0 as i64)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "-1")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Consensus view number (which replica currently leads a cluster).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ViewNum(pub u64);

impl ViewNum {
    #[inline]
    pub fn next(self) -> ViewNum {
        ViewNum(self.0 + 1)
    }

    /// The leader's replica index in a cluster of `n` replicas under
    /// round-robin leader rotation.
    #[inline]
    pub fn leader_index(self, n: usize) -> u16 {
        (self.0 % n as u64) as u16
    }
}

impl fmt::Display for ViewNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

// ---- wire encodings ----

impl Encode for ClusterId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u16(self.0);
    }
}

impl Decode for ClusterId {
    fn decode(r: &mut WireReader<'_>) -> crate::Result<Self> {
        Ok(ClusterId(r.get_u16()?))
    }
}

impl Encode for ReplicaId {
    fn encode(&self, w: &mut WireWriter) {
        self.cluster.encode(w);
        w.put_u16(self.index);
    }
}

impl Decode for ReplicaId {
    fn decode(r: &mut WireReader<'_>) -> crate::Result<Self> {
        Ok(ReplicaId {
            cluster: ClusterId::decode(r)?,
            index: r.get_u16()?,
        })
    }
}

impl Encode for ClientId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.0);
    }
}

impl Decode for ClientId {
    fn decode(r: &mut WireReader<'_>) -> crate::Result<Self> {
        Ok(ClientId(r.get_u32()?))
    }
}

impl Encode for NodeId {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            NodeId::Replica(rep) => {
                w.put_u8(0);
                rep.encode(w);
            }
            NodeId::Client(c) => {
                w.put_u8(1);
                c.encode(w);
            }
            NodeId::Edge(e) => {
                w.put_u8(2);
                e.encode(w);
            }
        }
    }
}

impl Decode for NodeId {
    fn decode(r: &mut WireReader<'_>) -> crate::Result<Self> {
        match r.get_u8()? {
            0 => Ok(NodeId::Replica(ReplicaId::decode(r)?)),
            1 => Ok(NodeId::Client(ClientId::decode(r)?)),
            2 => Ok(NodeId::Edge(EdgeId::decode(r)?)),
            t => Err(crate::TransEdgeError::Decode(format!("bad NodeId tag {t}"))),
        }
    }
}

impl Encode for EdgeId {
    fn encode(&self, w: &mut WireWriter) {
        self.cluster.encode(w);
        w.put_u16(self.index);
    }
}

impl Decode for EdgeId {
    fn decode(r: &mut WireReader<'_>) -> crate::Result<Self> {
        Ok(EdgeId {
            cluster: ClusterId::decode(r)?,
            index: r.get_u16()?,
        })
    }
}

impl Encode for TxnId {
    fn encode(&self, w: &mut WireWriter) {
        self.client.encode(w);
        w.put_u64(self.seq);
    }
}

impl Decode for TxnId {
    fn decode(r: &mut WireReader<'_>) -> crate::Result<Self> {
        Ok(TxnId {
            client: ClientId::decode(r)?,
            seq: r.get_u64()?,
        })
    }
}

impl Encode for BatchNum {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.0);
    }
}

impl Decode for BatchNum {
    fn decode(r: &mut WireReader<'_>) -> crate::Result<Self> {
        Ok(BatchNum(r.get_u64()?))
    }
}

impl Encode for Epoch {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.0 as u64);
    }
}

impl Decode for Epoch {
    fn decode(r: &mut WireReader<'_>) -> crate::Result<Self> {
        Ok(Epoch(r.get_u64()? as i64))
    }
}

impl Encode for ViewNum {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.0);
    }
}

impl Decode for ViewNum {
    fn decode(r: &mut WireReader<'_>) -> crate::Result<Self> {
        Ok(ViewNum(r.get_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    #[test]
    fn epoch_sentinel_semantics() {
        assert!(Epoch::NONE.is_none());
        assert_eq!(Epoch::NONE.batch(), None);
        assert_eq!(Epoch(3).batch(), Some(BatchNum(3)));
        assert_eq!(Epoch::NONE.max(Epoch(0)), Epoch(0));
        assert_eq!(Epoch(7).max(Epoch(2)), Epoch(7));
        // -1 sentinel is smaller than every real epoch, as in the paper.
        assert!(Epoch::NONE < Epoch(0));
    }

    #[test]
    fn epoch_from_batch() {
        assert_eq!(Epoch::from(BatchNum(5)), Epoch(5));
        assert_eq!(BatchNum(5).as_epoch(), Epoch(5));
    }

    #[test]
    fn view_leader_rotation() {
        // 4 replicas: views cycle 0,1,2,3,0,...
        assert_eq!(ViewNum(0).leader_index(4), 0);
        assert_eq!(ViewNum(3).leader_index(4), 3);
        assert_eq!(ViewNum(4).leader_index(4), 0);
        assert_eq!(ViewNum(9).leader_index(4), 1);
    }

    #[test]
    fn id_wire_roundtrips() {
        roundtrip(&ClusterId(7));
        roundtrip(&ReplicaId::new(ClusterId(2), 3));
        roundtrip(&ClientId(42));
        roundtrip(&NodeId::Replica(ReplicaId::new(ClusterId(1), 0)));
        roundtrip(&NodeId::Client(ClientId(9)));
        roundtrip(&NodeId::Edge(EdgeId::new(ClusterId(2), 1)));
        roundtrip(&EdgeId::new(ClusterId(0), 3));
        roundtrip(&TxnId::new(ClientId(1), 77));
        roundtrip(&BatchNum(123));
        roundtrip(&Epoch::NONE);
        roundtrip(&Epoch(55));
        roundtrip(&ViewNum(4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ClusterId(3).to_string(), "C3");
        assert_eq!(ReplicaId::new(ClusterId(0), 2).to_string(), "C0/r2");
        assert_eq!(TxnId::new(ClientId(1), 5).to_string(), "t1.5");
        assert_eq!(BatchNum(9).to_string(), "b9");
        assert_eq!(Epoch::NONE.to_string(), "-1");
        assert_eq!(EdgeId::new(ClusterId(1), 2).to_string(), "C1/e2");
    }
}
