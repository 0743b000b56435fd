//! The four scenario campaigns end to end: every one must
//! run its full timeline under the invariant monitor with zero
//! violations (a campaign panics on the first one), and the coalition
//! campaign must end with every member convicted fleet-wide by
//! cryptographic evidence within the bounded gossip rounds.

use transedge::scenario::campaign::{
    churn, coalition, flash_crowd, partition_heal, MAX_DEMOTION_ROUNDS,
};

#[test]
fn churn_campaign_holds_invariants() {
    let outcome = churn();
    assert!(
        outcome.availability_pct > 50.0,
        "churn availability {:.1}%",
        outcome.availability_pct
    );
    assert!(outcome.p95_ms > 0.0, "p95 must be measured");
    assert_eq!(
        outcome.rejected_reads, 0,
        "nothing lies in the churn campaign"
    );
    assert_eq!(outcome.demotion_rounds, 0.0);
    assert_eq!(outcome.convicted, 0);
    // One sweep per event plus the final one.
    assert!(outcome.invariant_checks >= 6);
}

#[test]
fn partition_heal_campaign_holds_invariants() {
    let outcome = partition_heal();
    assert!(
        outcome.availability_pct >= 80.0,
        "quorum holds through the partition, availability {:.1}%",
        outcome.availability_pct
    );
    assert!(outcome.p95_ms > 0.0);
    assert_eq!(outcome.rejected_reads, 0);
    assert_eq!(outcome.convicted, 0);
}

#[test]
fn flash_crowd_campaign_holds_invariants() {
    let outcome = flash_crowd();
    assert!(
        outcome.availability_pct >= 99.9,
        "no faults, no loss: availability {:.1}%",
        outcome.availability_pct
    );
    assert!(outcome.p95_ms > 0.0);
    assert_eq!(
        outcome.rejected_reads, 0,
        "re-targeted reads must all verify"
    );
}

#[test]
fn coalition_campaign_convicts_every_member() {
    let outcome = coalition();
    assert_eq!(
        outcome.convicted, 2,
        "every coalition member fleet-demoted via evidence"
    );
    assert!(
        outcome.rejected_reads > 0,
        "consistent lies must be caught by verification"
    );
    assert!(
        outcome.demotion_rounds <= MAX_DEMOTION_ROUNDS,
        "convergence bounded: {} rounds",
        outcome.demotion_rounds
    );
    assert!(
        outcome.availability_pct >= 90.0,
        "reads fall back to replicas, availability {:.1}%",
        outcome.availability_pct
    );
}
