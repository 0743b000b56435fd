//! Signed health observations: one observer's view of one edge node.
//!
//! Observations are the unit of gossip. Each carries an
//! observer-local, per-subject sequence number, so the directory's
//! merge can keep exactly the newest view per `(observer, subject)`
//! pair without any coordination — the classic last-writer-wins
//! register keyed by a monotonic counter, with a deterministic
//! content-hash tie-break so even an equivocating observer (same `seq`,
//! different bodies) cannot make two replicas diverge.
//!
//! The body is signed by the observer over a stable byte statement, so
//! observations can be *relayed*: an edge forwarding a client's
//! observation cannot alter it, and a forged observation attributed to
//! a key the forger does not hold fails signature verification at every
//! honest receiver (which then strikes the sender locally).

use transedge_common::{EdgeId, Encode as _, NodeId, SimTime, WireWriter};
use transedge_crypto::{sha256, Digest, KeyStore, Keypair, Signature};

/// Sentinel for "no latency sample yet" (wire-friendly stand-in for
/// `Option<f64>`; the aggregation layer skips it).
pub const UNSAMPLED_LATENCY: u64 = u64::MAX;

/// One observer's unsigned view of one edge node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservationBody {
    /// The edge being described.
    pub subject: EdgeId,
    /// Observer-local, per-subject version: higher wins in the merge.
    pub seq: u64,
    /// Smoothed request latency in µs ([`UNSAMPLED_LATENCY`] = none).
    pub ewma_latency_us: u64,
    pub successes: u64,
    pub failures: u64,
    /// Byzantine rejections the observer has verified against this
    /// edge. A bare counter is a claim, not proof — demotion hints
    /// require [`crate::evidence::SignedEvidence`]; the counter only
    /// feeds ranking penalties.
    pub rejections: u64,
    pub observed_at: SimTime,
}

impl ObservationBody {
    /// The byte statement the observer signs.
    pub fn statement(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(64);
        w.put_bytes(b"transedge/directory/observation");
        self.subject.encode(&mut w);
        w.put_u64(self.seq);
        w.put_u64(self.ewma_latency_us);
        w.put_u64(self.successes);
        w.put_u64(self.failures);
        w.put_u64(self.rejections);
        self.observed_at.encode(&mut w);
        w.into_bytes()
    }

    /// Wire-size estimate for the simulator's bandwidth model.
    pub fn wire_size(&self) -> usize {
        4 + 8 * 6
    }
}

/// An [`ObservationBody`] bound to its observer by signature.
#[derive(Clone, Debug)]
pub struct SignedObservation {
    pub observer: NodeId,
    pub body: ObservationBody,
    pub sig: Signature,
}

impl SignedObservation {
    /// Sign `body` as `observer`.
    pub fn sign(observer: NodeId, body: ObservationBody, keypair: &Keypair) -> Self {
        let sig = keypair.sign(&body.statement());
        SignedObservation {
            observer,
            body,
            sig,
        }
    }

    /// The check an ingesting node runs before admitting the
    /// observation: the observer's registered key must cover the
    /// statement.
    pub fn verify(&self, keys: &KeyStore) -> bool {
        keys.verify(self.observer, &self.body.statement(), &self.sig)
            .is_ok()
    }

    /// Deterministic content rank for same-`seq` tie-breaks: an
    /// equivocating observer cannot make two honest directories keep
    /// different bodies, because both resolve the tie by this digest.
    pub fn rank(&self) -> Digest {
        let mut bytes = self.body.statement();
        bytes.extend_from_slice(&self.sig.0);
        sha256(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_common::{ClusterId, ClusterTopology};

    fn observation(seq: u64) -> ObservationBody {
        ObservationBody {
            subject: EdgeId::new(ClusterId(0), 1),
            seq,
            ewma_latency_us: 1500,
            successes: 10,
            failures: 1,
            rejections: 0,
            observed_at: SimTime(42),
        }
    }

    #[test]
    fn statement_is_specific() {
        let a = observation(1).statement();
        let mut b = observation(1);
        b.failures += 1;
        assert_ne!(a, b.statement());
        assert_ne!(a, observation(2).statement());
    }

    #[test]
    fn signature_binds_observer_and_body() {
        let topo = ClusterTopology::new(1, 1).unwrap();
        let (mut keys, secrets) = KeyStore::for_topology(&topo, &[7u8; 32]);
        let replica = topo.all_replicas().next().unwrap();
        let me = NodeId::Replica(replica);
        let kp = secrets[&replica].clone();
        let other = Keypair::from_seed([9u8; 32]);
        keys.register(
            NodeId::Client(transedge_common::ClientId(0)),
            other.public(),
        );

        let signed = SignedObservation::sign(me, observation(1), &kp);
        assert!(signed.verify(&keys));
        // Attributed to a different key holder: fails.
        let mut forged = signed.clone();
        forged.observer = NodeId::Client(transedge_common::ClientId(0));
        assert!(!forged.verify(&keys));
        // Tampered body under the honest signature: fails.
        let mut tampered = signed.clone();
        tampered.body.failures = 99;
        assert!(!tampered.verify(&keys));
    }
}
