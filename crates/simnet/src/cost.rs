//! Calibrated CPU service-time model.
//!
//! In a discrete-event simulation, messages cost nothing to *process*
//! unless the model says otherwise — and then every throughput curve
//! would be flat. Actors therefore charge simulated CPU time for the
//! work they do. The table below was typed in from wall-clock runs on a
//! commodity x86-64 host, in the same spirit as the paper's Xeon Gold
//! 6240R testbed; what the same operations cost on the machine at hand
//! is the whole-system benchmark's per-layer ladder (`BENCHMARK.json`:
//! `crypto.ed25519_sign_us`, `crypto.ed25519_verify_us`,
//! `crypto.sha256_us_per_kib`, `crypto.merkle.prove_multi_us`,
//! `crypto.merkle.verify_multi_us`,
//! `crypto.merkle_versioned.apply_us_per_key`,
//! `core.conflict.admit_us`). Absolute values shift throughput curves
//! up or down; the *relative* costs are what give the evaluation
//! figures their shape.
//!
//! The two ed25519 entries are no longer measurements of this
//! repository's code. 85 µs sign / 200 µs verify were roughly what the
//! from-scratch Ed25519 cost until PR 25; since its radix-2⁵¹ field and
//! Straus verify the ladder reads ~14 µs / ~51 µs on the same host. They
//! are kept because every simulated metric (`read_p50_ms` …
//! `commit_pct`) is priced with them, and deriving the table from the
//! ladder is its own change (ROADMAP item 6).
//!
//! Charges stay per *protocol* signature: a replica pays
//! `ed25519_verify` once per consensus message and once per signature of
//! each record it checks, an edge per signature of each certificate, a
//! client per signature of each certificate its `VerifiedCerts` has not
//! seen. How the code then settles those signatures — votes verified
//! only once they can complete a quorum, a quorum's signatures in one
//! batch equation, a signature the actor accepted before answered from
//! its memo — is a wall-clock choice the model does not price. Whether
//! it should (a batch entry, a memo hit at zero) is for the derived
//! model of ROADMAP item 6 to decide.

use transedge_common::SimDuration;

/// Per-operation CPU costs, in simulated time.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Produce one Ed25519 signature.
    pub ed25519_sign: SimDuration,
    /// Verify one Ed25519 signature.
    pub ed25519_verify: SimDuration,
    /// Hash one KiB of data (SHA-256).
    pub sha256_per_kib: SimDuration,
    /// Update one key's path in the Merkle tree (depth 16, as deployed
    /// here).
    pub merkle_update: SimDuration,
    /// Generate one Merkle (non-)inclusion proof.
    pub merkle_prove: SimDuration,
    /// Verify one Merkle proof (client side).
    pub merkle_verify: SimDuration,
    /// OCC conflict check, per operation in the read/write set.
    pub conflict_check_per_op: SimDuration,
    /// Apply one transaction's writes to the versioned store.
    pub txn_apply: SimDuration,
    /// Fixed overhead of handling any message (dispatch, deserialise).
    pub message_overhead: SimDuration,
}

impl CostModel {
    /// Calibrated defaults (µs). See module docs for provenance.
    pub fn calibrated() -> Self {
        CostModel {
            ed25519_sign: SimDuration::from_micros(85),
            ed25519_verify: SimDuration::from_micros(200),
            sha256_per_kib: SimDuration::from_micros(6),
            merkle_update: SimDuration::from_micros(8),
            merkle_prove: SimDuration::from_micros(6),
            merkle_verify: SimDuration::from_micros(10),
            conflict_check_per_op: SimDuration::from_micros(1),
            txn_apply: SimDuration::from_micros(2),
            message_overhead: SimDuration::from_micros(3),
        }
    }

    /// A model where everything is free — for tests that assert on
    /// protocol logic, not performance.
    pub fn zero() -> Self {
        CostModel {
            ed25519_sign: SimDuration::ZERO,
            ed25519_verify: SimDuration::ZERO,
            sha256_per_kib: SimDuration::ZERO,
            merkle_update: SimDuration::ZERO,
            merkle_prove: SimDuration::ZERO,
            merkle_verify: SimDuration::ZERO,
            conflict_check_per_op: SimDuration::ZERO,
            txn_apply: SimDuration::ZERO,
            message_overhead: SimDuration::ZERO,
        }
    }

    /// Hash cost for `bytes` of input.
    pub fn sha256_cost(&self, bytes: usize) -> SimDuration {
        // Round up to whole KiB so small messages still pay something.
        let kib = (bytes as u64).div_ceil(1024).max(1);
        SimDuration(self.sha256_per_kib.0 * kib)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_relative_ordering() {
        let c = CostModel::calibrated();
        // Signature verification dominates signing (double scalar mult).
        assert!(c.ed25519_verify > c.ed25519_sign);
        // Crypto dominates bookkeeping.
        assert!(c.ed25519_sign > c.merkle_update);
        assert!(c.merkle_update > c.conflict_check_per_op);
    }

    #[test]
    fn sha256_cost_scales_with_size() {
        let c = CostModel::calibrated();
        assert_eq!(c.sha256_cost(10), c.sha256_cost(1024));
        assert_eq!(c.sha256_cost(2048).0, 2 * c.sha256_cost(1024).0);
        assert!(c.sha256_cost(1025) > c.sha256_cost(1024));
    }

    #[test]
    fn zero_model_is_free() {
        let c = CostModel::zero();
        assert_eq!(c.sha256_cost(1 << 20), SimDuration::ZERO);
        assert_eq!(c.ed25519_verify, SimDuration::ZERO);
    }
}
