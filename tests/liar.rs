//! Each lie of `transedge_scenario::liar`, told once over honest
//! answers a warmed edge cached (`EdgeReadNode::cached_answers`): a point
//! section with a feed tail, a section of absent keys, and a scan
//! window. Every answer a lie changes fails `ReadVerifier::verify_query`
//! with the rejection class named in its test; an answer a lie cannot
//! touch comes back as it was, and the lie counts nothing.

use std::sync::Arc;

use transedge::common::{BatchNum, ClusterId, ClusterTopology, Key, SimDuration, SimTime, Value};
use transedge::core::client::ClientOp;
use transedge::core::setup::{Deployment, DeploymentConfig};
use transedge::core::EdgeConfig;
use transedge::crypto::ScanRange;
use transedge::edge::{
    Body, CertifiedDelta, QueryAnswer, ReadQuery, ReadRejection, ReadResponse, ReadVerifier,
    VerifyParams,
};
use transedge::scenario::liar::{coalition_root, Lie};

const C0: ClusterId = ClusterId(0);

fn keys_on(topo: &ClusterTopology, cluster: ClusterId, from: u32, count: usize) -> Vec<Key> {
    (from..from + 10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

/// One honest answer and the query it answers.
#[derive(Clone)]
struct Answer {
    query: ReadQuery,
    response: ReadResponse,
}

/// Honest answers of partition 0 and what it takes to check them.
struct Warmed {
    dep: Deployment,
    verifier: ReadVerifier,
    /// Two present keys, with the feed head as its one-delta tail.
    fed: Answer,
    /// The same section, no tail attached.
    point: Answer,
    /// Two keys the dataset does not hold.
    absent: Answer,
    scan: Answer,
    head: Arc<CertifiedDelta>,
}

/// A subscribed edge caches a two-key section, a section of absent
/// keys and a scan window of partition 0, between two writes to keys
/// none of them reads: the second write is the feed head, one batch
/// past the sections.
fn warmed() -> Warmed {
    let mut config = DeploymentConfig::for_testing();
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .commit_feed(SimDuration::from_millis(50))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let keys = keys_on(&topo, C0, 0, 64);
    let absent = keys_on(&topo, C0, config.n_keys, 2);
    let bucket = ScanRange::bucket_of(&keys[0], config.node.tree_depth);
    let range = ScanRange::new(bucket - bucket % 64, bucket - bucket % 64 + 63);
    // The written keys lie outside the read keys and the scanned window.
    let outside: Vec<Key> = keys[2..]
        .iter()
        .filter(|k| !range.contains_key(k, config.node.tree_depth))
        .take(2)
        .cloned()
        .collect();
    let write = |key: &Key| ClientOp::ReadWrite {
        reads: vec![],
        writes: vec![(key.clone(), Value::from("w"))],
    };
    let ops = vec![
        write(&outside[0]),
        ClientOp::ReadOnly {
            keys: keys[..2].to_vec(),
        },
        ClientOp::ReadOnly {
            keys: absent.clone(),
        },
        ClientOp::RangeScan { cluster: C0, range },
        write(&outside[1]),
    ];
    let mut dep = Deployment::build(config, vec![ops]);
    dep.run_until_done(SimTime(600_000_000));
    dep.run_until(SimTime(dep.sim.now().0 + 200_000));

    let edge = dep.edge_node(dep.edge_ids[0]);
    assert_eq!(dep.edge_ids[0].cluster, C0);
    let head = edge.feed_head(C0).expect("a feed head").clone();
    let cached = edge.cached_answers();
    let section_of = |keys: &[Key]| {
        cached
            .iter()
            .find_map(|object| match &object.body {
                Body::Point { body, .. } if body.keys() == keys => Some(object.clone()),
                _ => None,
            })
            .expect("a cached section")
    };
    let mut sorted = keys[..2].to_vec();
    sorted.sort();
    let section = section_of(&sorted);
    assert_eq!(head.batch(), BatchNum(section.batch().0 + 1));
    let mut absent_sorted = absent.clone();
    absent_sorted.sort();
    let absent_section = section_of(&absent_sorted);
    let bundle = cached
        .iter()
        .find(|object| matches!(object.body, Body::Scan(_)))
        .cloned()
        .expect("a cached scan window");
    let point_query = ReadQuery::point(sorted);
    let point = |feed: Option<Vec<Arc<CertifiedDelta>>>| {
        let mut response = section.clone();
        if let Body::Point { fresh, .. } = &mut response.body {
            *fresh = feed;
        }
        Answer {
            query: point_query.clone(),
            response,
        }
    };
    let verifier = ReadVerifier::new(VerifyParams {
        tree_depth: dep.config.node.tree_depth,
        freshness_window: dep.config.node.freshness_window,
        quorum: topo.certificate_quorum(),
    });
    let warmed = Warmed {
        fed: point(Some(vec![head.clone()])),
        point: point(None),
        absent: Answer {
            query: ReadQuery::point(absent_sorted),
            response: absent_section,
        },
        scan: Answer {
            query: ReadQuery::scan(C0, range),
            response: bundle,
        },
        head,
        verifier,
        dep,
    };
    for honest in [&warmed.fed, &warmed.point, &warmed.absent, &warmed.scan] {
        warmed.verdict(honest).expect("the honest answer verifies");
    }
    warmed
}

impl Warmed {
    fn verdict(&self, answer: &Answer) -> Result<QueryAnswer, ReadRejection> {
        let now = self.dep.sim.now();
        let keys = &self.dep.keys;
        (self.verifier).verify_query(keys, C0, &answer.query, &answer.response, now)
    }

    /// `lie` told over `answer`: how many parts it changed, and the
    /// verifier's verdict on what it made of the answer.
    fn tell(&self, lie: Lie, answer: &Answer) -> (u64, Result<QueryAnswer, ReadRejection>) {
        let mut told = answer.clone();
        let changed = lie.tell(&mut told.response, Some(&self.head));
        (changed, self.verdict(&told))
    }

    /// `lie` cannot touch `answer`: it comes back as it was.
    fn assert_untouched(&self, lie: Lie, answer: &Answer) {
        let mut told = answer.response.clone();
        assert_eq!(lie.tell(&mut told, Some(&self.head)), 0, "{lie:?}");
        assert_eq!(format!("{told:?}"), format!("{:?}", answer.response));
    }
}

/// A tampered value is hashed into the fold the client recomputes, so
/// it misses the certified root like any forged proof.
#[test]
fn tamper_value_is_a_bad_proof_or_range_proof() {
    let w = warmed();
    let lie = Lie::TamperValue;
    assert_eq!(w.tell(lie, &w.point), (1, Err(ReadRejection::BadProof)));
    assert_eq!(w.tell(lie, &w.scan), (1, Err(ReadRejection::BadRangeProof)));
    // A section of absent keys has no value to tamper with.
    w.assert_untouched(lie, &w.absent);
}

#[test]
fn forge_proof_is_a_bad_proof_or_range_proof() {
    let w = warmed();
    let lie = Lie::ForgeProof;
    assert_eq!(w.tell(lie, &w.point), (1, Err(ReadRejection::BadProof)));
    assert_eq!(w.tell(lie, &w.scan), (1, Err(ReadRejection::BadRangeProof)));
    // A window with no boundary sibling has nothing to flip.
    let mut empty = w.scan.clone();
    if let Body::Scan(scan) = &mut empty.response.body {
        scan.left.clear();
        scan.right.clear();
    }
    w.assert_untouched(lie, &empty);
}

#[test]
fn stale_root_is_a_bad_certificate() {
    let w = warmed();
    let lie = Lie::StaleRoot;
    let bad = (1, Err(ReadRejection::BadCertificate));
    assert_eq!(w.tell(lie, &w.point), bad);
    assert_eq!(w.tell(lie, &w.scan), bad);
}

#[test]
fn omit_key_is_a_bad_proof_or_range_proof() {
    let w = warmed();
    let lie = Lie::OmitKey;
    assert_eq!(w.tell(lie, &w.point), (1, Err(ReadRejection::BadProof)));
    assert_eq!(w.tell(lie, &w.scan), (1, Err(ReadRejection::BadRangeProof)));
}

#[test]
fn tamper_delta_is_a_bad_delta() {
    let w = warmed();
    let lie = Lie::TamperDelta;
    assert_eq!(w.tell(lie, &w.fed), (1, Err(ReadRejection::BadDelta)));
    // An empty tail is the cursor's "nothing newer": the liar re-ships
    // its feed head to have a delta to doctor.
    let mut empty = w.point.clone();
    if let Body::Point { fresh, .. } = &mut empty.response.body {
        *fresh = Some(Vec::new());
    }
    assert_eq!(w.tell(lie, &empty), (1, Err(ReadRejection::BadDelta)));
    // No feed attached, or a scan: nothing to doctor.
    w.assert_untouched(lie, &w.point);
    w.assert_untouched(lie, &w.scan);
}

#[test]
fn coalition_is_a_bad_certificate_or_a_bad_delta() {
    let w = warmed();
    let lie = Lie::Coalition;
    let bad = (1, Err(ReadRejection::BadCertificate));
    assert_eq!(w.tell(lie, &w.point), bad);
    assert_eq!(w.tell(lie, &w.scan), bad);
    // Both the tail and the root are forged; the tail is checked first.
    assert_eq!(w.tell(lie, &w.fed), (2, Err(ReadRejection::BadDelta)));
    // Every member forges the same root for a batch.
    let mut told = w.point.response.clone();
    lie.tell(&mut told, None);
    let header = &told.anchor().expect("a full answer").0.header;
    assert_eq!(header.merkle_root, coalition_root(header.num));
}
