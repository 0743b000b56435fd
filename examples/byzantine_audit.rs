//! Byzantine audit — what the Authenticated Data Structure buys you.
//!
//! A client in TransEdge reads from a *single* untrusted edge node per
//! partition. This example shows why that is safe: it queries a
//! replica, then replays the same response with tampered values /
//! proofs / certificates and watches every forgery fail verification.
//!
//! ```bash
//! cargo run --release --example byzantine_audit
//! ```

use transedge::common::{BatchNum, ClusterId, Key, SimDuration, SimTime, Value};
use transedge::consensus::messages::accept_statement;
use transedge::core::batch::Batch;
use transedge::core::client::ClientOp;
use transedge::core::setup::{Deployment, DeploymentConfig};
use transedge::crypto::merkle::{value_digest, Verified};
use transedge::crypto::verify_multi_proof;

fn main() {
    // Stand up a deployment and commit a value so there is real,
    // certified state to audit.
    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    let topo = config.topo.clone();
    let key = (0u32..10_000)
        .map(Key::from_u32)
        .find(|k| topo.partition_of(k) == ClusterId(0))
        .unwrap();
    let script = vec![ClientOp::ReadWrite {
        reads: vec![],
        writes: vec![(key.clone(), Value::from("audited-value"))],
    }];
    let mut deployment = Deployment::build(config.clone(), vec![script]);
    deployment.run_until_done(SimTime(60_000_000));
    println!("committed 'audited-value' through BFT consensus");

    // Pull the authenticated response pieces straight from a replica —
    // exactly what an untrusted node would serve a client.
    let replica = deployment.node(transedge::common::ReplicaId::new(ClusterId(0), 2));
    let at = BatchNum(replica.exec.applied_batches() - 1);
    let body = transedge::edge::multi_snapshot(&replica.exec, std::slice::from_ref(&key), at);
    let keys = deployment.keys.clone();
    let quorum = topo.certificate_quorum();

    // A real response verifies end to end.
    let proof = body.proof();
    let value = body.values()[0].clone().expect("value present");
    // The replica's own engine holds the decided batch + certificate.
    let sim = &deployment.sim;
    let node = sim
        .actor_as::<transedge::core::node::TransEdgeNode>(transedge::common::NodeId::Replica(
            transedge::common::ReplicaId::new(ClusterId(0), 2),
        ))
        .unwrap();
    let _ = node;
    // Roots are certified via the batch digest; fetch the header the
    // replica would send.
    let root = { replica.exec.tree.root_at(at.0) };
    let depth = config.node.tree_depth;
    match verify_multi_proof(&root, depth, body.keys(), proof).as_deref() {
        Ok([Verified::Present(vh)]) if *vh == value_digest(&value) => {
            println!("✓ honest response: Merkle proof verifies, value hash matches");
        }
        other => panic!("honest response failed?! {other:?}"),
    }

    // Forgery 1: lie about the value.
    let forged_value = Value::from("forged-value");
    let ok = matches!(
        verify_multi_proof(&root, depth, body.keys(), proof).as_deref(),
        Ok([Verified::Present(vh)]) if *vh == value_digest(&forged_value)
    );
    println!(
        "✗ forged value:        {}",
        if ok {
            "ACCEPTED (BUG!)"
        } else {
            "rejected — value hash mismatch"
        }
    );
    assert!(!ok);

    // Forgery 2: tamper with the proof path.
    let mut bad_proof = proof.clone();
    if let Some(s) = bad_proof.siblings.first_mut() {
        s.0[0] ^= 0xFF;
    }
    let rejected = verify_multi_proof(&root, depth, body.keys(), &bad_proof).is_err();
    println!(
        "✗ tampered proof:      {}",
        if rejected {
            "rejected — root mismatch"
        } else {
            "ACCEPTED (BUG!)"
        }
    );
    assert!(rejected);

    // Forgery 3: a malicious node invents its own state root and
    // "certifies" it without a quorum (fewer than f+1 signatures).
    let fake_root = transedge::crypto::sha256(b"state the node wishes existed");
    let fake_header = transedge::core::batch::BatchHeader {
        cluster: ClusterId(0),
        num: at,
        cd: transedge::core::batch::CdVector::new(topo.n_clusters()),
        lce: transedge::common::Epoch::NONE,
        merkle_root: fake_root,
        delta_digest: transedge::crypto::sha256(b"forged delta digest"),
        timestamp: SimTime::ZERO,
    };
    let fake_digest = Batch::digest_from_parts(&fake_header, &fake_digest_body());
    let stmt = accept_statement(ClusterId(0), at, &fake_digest);
    let _ = stmt;
    let cert = transedge::consensus::Certificate {
        cluster: ClusterId(0),
        slot: at,
        digest: fake_digest,
        sigs: vec![], // a lone byzantine node has no quorum to offer
    };
    let rejected = cert.verify(&keys, quorum).is_err();
    println!(
        "✗ under-signed root:   {}",
        if rejected {
            "rejected — needs f+1 distinct replica signatures"
        } else {
            "ACCEPTED (BUG!)"
        }
    );
    assert!(rejected);

    println!("\nevery forgery was caught by client-side verification —");
    println!("this is why a TransEdge read needs only ONE node per partition.");
    let _ = SimDuration::ZERO;
}

fn fake_digest_body() -> transedge::crypto::Digest {
    transedge::crypto::sha256(b"empty")
}
