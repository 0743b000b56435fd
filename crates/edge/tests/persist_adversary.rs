//! Adversarial property tests for the persistence plane: disk is
//! untrusted input. An edge's disk image is its replay caches' answers,
//! and a restart re-admits each one through `verify_object` — the one
//! gate, the proof chain a network response passes. Honest objects
//! re-admit; a forged section value, a forged scan row, a flipped proof
//! sibling and a forged certificate signature are each rejected by that
//! chain and never classed as stale; an answer that merely aged past
//! the freshness window is classed as stale, not as tampering; and a
//! held answer, which names an anchor instead of carrying one, is
//! rejected and never cached.

mod common;

use common::{anchor_mut, anchor_of, body, rebuild, scan_mut, Partition};
use proptest::prelude::*;
use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimTime, Value};
use transedge_crypto::{Digest, ScanRange};
use transedge_edge::{verify_object, ReadRejection, ReadResponse, ReplayCache};

/// "Now" at re-admission: shortly after the batch timestamps.
const NOW: SimTime = SimTime(2_500);
/// A restart long after the outage: honest objects have aged out.
const MUCH_LATER: SimTime = SimTime(40_000_000);

/// Two batches over random keys; batch 1 always overwrites something
/// so the roots differ.
fn world(key_tags: &[(u16, u8)]) -> Partition {
    let mut p = Partition::new();
    let batch0: Vec<(u32, String)> = key_tags
        .iter()
        .map(|(k, v)| (*k as u32 % 512, format!("a{v}")))
        .collect();
    p.commit(&batch0, Epoch::NONE, SimTime(1_000));
    p.commit(
        &[(key_tags[0].0 as u32 % 512, "overwrite")],
        Epoch::NONE,
        SimTime(2_000),
    );
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For both shapes an edge persists (point section, scan window):
    /// the honest object re-admits, and every on-disk corruption is
    /// rejected by the verifier as what it is.
    #[test]
    fn disk_corruption_fails_verify_object(
        key_tags in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..12),
        forged_tag in any::<u8>(),
    ) {
        let p = world(&key_tags);
        let mut requested: Vec<Key> = key_tags
            .iter()
            .map(|(k, _)| Key::from_u32(*k as u32 % 512))
            .collect();
        requested.sort();
        requested.dedup();

        let section = p.section(&requested, BatchNum(1));
        // The whole tree: the window holds every written key.
        let scan = p.scan(ScanRange::new(0, 255), BatchNum(1));
        let verifier = p.verifier();
        let verify = |object: &ReadResponse, now| {
            verify_object(&verifier, &p.keys, object, now)
        };
        let body = body(&section);
        let (keys, values, proof) =
            (body.keys().to_vec(), body.values().to_vec(), body.proof().clone());

        // Honest disk: both objects re-admit.
        prop_assert!(verify(&section, NOW).is_ok());
        prop_assert!(verify(&scan, NOW).is_ok());

        // 1. Value forgery in a section: the forger rebuilds the body
        // around one forged value slot, which no longer hashes to the
        // digest its proof commits to.
        {
            let mut forged = values.clone();
            forged[0] = Some(Value::from(format!("forged-{forged_tag}").as_str()));
            let forged = rebuild(&section, keys.clone(), forged, proof.clone());
            prop_assert_eq!(
                verify(&forged, NOW).unwrap_err(),
                ReadRejection::ValueMismatch(keys[0].clone())
            );
        }

        // 2. One flipped sibling digest: the multiproof no longer
        // recomputes the certified root.
        {
            let mut flipped = proof.clone();
            match flipped.siblings.first_mut() {
                Some(sibling) => sibling.0[0] ^= 0xFF,
                None => flipped.buckets[0].entries[0].value_hash = Digest([0xEE; 32]),
            }
            let forged = rebuild(&section, keys.clone(), values.clone(), flipped);
            prop_assert_eq!(
                verify(&forged, NOW).unwrap_err(),
                ReadRejection::BadProof
            );
        }

        // 3. Row forgery inside a scan window: the row no longer hashes
        // to the committed entry at its position.
        {
            let mut forged = scan.clone();
            let row = &mut scan_mut(&mut forged).rows[0];
            row.1 = Value::from("forged");
            let key = row.0.clone();
            prop_assert_eq!(
                verify(&forged, NOW).unwrap_err(),
                ReadRejection::ScanRowMismatch(key)
            );
        }

        // 4. Certificate signature forgery on a section: caught by the
        // verifier's certificate check.
        {
            let replica = p.topo.replicas_of(ClusterId(0)).next().unwrap();
            let mut forged = section.clone();
            anchor_mut(&mut forged).1.sigs[0].1 = p.secrets[&replica].sign(b"not the accept statement");
            prop_assert_eq!(
                verify(&forged, NOW).unwrap_err(),
                ReadRejection::BadCertificate
            );
        }

        // 5. Honest aging: after a long outage the same honest objects
        // are rejected as stale — and classified as such, not as
        // tampering (callers drop them quietly instead of alarming).
        prop_assert_eq!(
            verify(&section, MUCH_LATER).unwrap_err(),
            ReadRejection::StaleTimestamp
        );
        prop_assert_eq!(
            verify(&scan, MUCH_LATER).unwrap_err(),
            ReadRejection::StaleTimestamp
        );

        // 6. A held answer on disk (either shape): it names an anchor
        // instead of carrying one, so the chain refuses it as
        // mis-shaped, and a cache handed one anyway takes nothing.
        for honest in [&section, &scan] {
            let held = honest.clone().held_by(Some(anchor_of(honest).1.digest));
            prop_assert_eq!(verify(&held, NOW).unwrap_err(), ReadRejection::ShapeMismatch);
            let mut cache = ReplayCache::new(4, 4);
            cache.admit(&held);
            prop_assert!(cache.objects().is_empty());
        }
    }
}
