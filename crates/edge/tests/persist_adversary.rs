//! Adversarial property tests for the persistence plane: disk is
//! untrusted input. Honest spilled objects re-admit through the
//! client-grade verifier; a forged value, a flipped proof byte, a
//! forged certificate signature, or a splice of payloads across
//! content addresses is rejected at hydration — either by the content
//! address (self-check gate) or by the verifier (proof gate) — and an
//! object that merely aged past the freshness window is classified as
//! stale, not as tampering.

mod common;

use common::{rebuild, Partition, TestHeader};
use proptest::prelude::*;
use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimTime, Value};
use transedge_crypto::{Digest, ScanRange};
use transedge_edge::persist::null_digest;
use transedge_edge::{
    is_stale_only, readmit, HydrateReject, ReadRejection, SnapshotObject, SnapshotStore,
};

/// "Now" at readmission: shortly after the batch timestamps.
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
    /// the honest object re-admits; any on-disk corruption is rejected
    /// by one of the two gates and never reaches a cache.
    #[test]
    fn disk_corruption_never_readmits(
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

        let mut store: SnapshotStore<TestHeader> = SnapshotStore::new(16);
        let section = p.section(&requested, BatchNum(1));
        let d_point = store.spill(SnapshotObject::Section(section.clone()));
        let d_scan = store.spill(SnapshotObject::Scan(
            p.scan(ScanRange::new(0, 255), BatchNum(1)),
        ));
        let verifier = p.verifier();
        let readmit_as = |store: &SnapshotStore<TestHeader>, digest: &Digest, now| {
            readmit(&verifier, &p.keys, digest, store.get(digest).unwrap(), now)
        };
        let body = &section.body;
        let (keys, values, proof) =
            (body.keys().to_vec(), body.values().to_vec(), body.proof().clone());

        // Honest disk: every stored object re-admits under its address.
        for (_, digest) in store.hydration_set() {
            prop_assert!(readmit_as(&store, &digest, NOW).is_ok());
        }

        // An honest object under the wrong address is still refused:
        // the address is part of the trust chain, not a lookup hint.
        prop_assert_eq!(
            readmit(&verifier, &p.keys, &null_digest(), store.get(&d_point).unwrap(), NOW)
                .unwrap_err(),
            HydrateReject::DigestMismatch
        );

        // 1. Value forgery in a section: the forger rebuilds the body
        // around one forged value slot, and the content address — which
        // covers the body's whole wire image — breaks (the self-check
        // gate fires before any proof work).
        {
            let mut s = store.clone();
            let mut forged = values.clone();
            forged[0] = Some(Value::from(format!("forged-{forged_tag}").as_str()));
            let forged = rebuild(&section, keys.clone(), forged, proof.clone());
            prop_assert!(s.tamper_with(&d_point, |object| {
                *object = SnapshotObject::Section(forged);
            }));
            prop_assert_eq!(
                readmit_as(&s, &d_point, NOW).unwrap_err(),
                HydrateReject::DigestMismatch
            );
        }

        // 2. One flipped sibling digest, stored *under its own new
        // address* (a forger who also rewrites the HEAD entry): the
        // self-check has nothing to object to — the verifier gate must
        // catch it, and not as mere staleness.
        {
            let mut flipped = proof.clone();
            match flipped.siblings.first_mut() {
                Some(sibling) => sibling.0[0] ^= 0xFF,
                None => flipped.buckets[0].entries[0].value_hash = Digest([0xEE; 32]),
            }
            let forged = SnapshotObject::Section(rebuild(
                &section,
                keys.clone(),
                values.clone(),
                flipped,
            ));
            // Under the honest address the self-check already refuses…
            prop_assert_eq!(
                readmit(&verifier, &p.keys, &d_point, &forged, NOW).unwrap_err(),
                HydrateReject::DigestMismatch
            );
            // …and under its own, the proof chain does.
            let err = readmit(&verifier, &p.keys, &forged.content_digest(), &forged, NOW)
                .unwrap_err();
            prop_assert_eq!(&err, &HydrateReject::Verification(ReadRejection::BadProof));
            prop_assert!(!is_stale_only(&err));
        }

        // 3. Row forgery inside a scan window: content address breaks.
        {
            let mut s = store.clone();
            prop_assert!(s.tamper_with(&d_scan, |object| {
                if let SnapshotObject::Scan(b) = object {
                    if let Some(row) = b.scan.rows.first_mut() {
                        row.1 = Value::from("forged");
                    } else {
                        b.scan.range.last = b.scan.range.last.wrapping_add(1);
                    }
                }
            }));
            prop_assert_eq!(
                readmit_as(&s, &d_scan, NOW).unwrap_err(),
                HydrateReject::DigestMismatch
            );
        }

        // 4. Certificate signature forgery on a section: the signature
        // bytes are outside the content address (only the signed digest
        // and the count are folded), so this must be caught by the
        // verifier's certificate check.
        {
            let mut s = store.clone();
            let replica = p.topo.replicas_of(ClusterId(0)).next().unwrap();
            let forged_sig = p.secrets[&replica].sign(b"not the accept statement");
            prop_assert!(s.tamper_with(&d_point, |object| {
                if let SnapshotObject::Section(b) = object {
                    b.cert.sigs[0].1 = forged_sig;
                }
            }));
            let err = readmit_as(&s, &d_point, NOW).unwrap_err();
            prop_assert_eq!(
                &err,
                &HydrateReject::Verification(ReadRejection::BadCertificate)
            );
            prop_assert!(!is_stale_only(&err));
        }

        // 5. Splice: swapping the payloads under two addresses (a
        // corrupted directory block) fails both self-checks.
        {
            let mut s = store.clone();
            prop_assert!(s.splice(&d_point, &d_scan));
            for d in [&d_point, &d_scan] {
                prop_assert_eq!(
                    readmit_as(&s, d, NOW).unwrap_err(),
                    HydrateReject::DigestMismatch
                );
            }
        }

        // 6. Honest aging: after a long outage the same honest object
        // is rejected as stale — and classified as such, not as
        // tampering (callers drop it quietly instead of alarming).
        {
            let err = readmit_as(&store, &d_point, MUCH_LATER).unwrap_err();
            prop_assert_eq!(
                &err,
                &HydrateReject::Verification(ReadRejection::StaleTimestamp)
            );
            prop_assert!(is_stale_only(&err));
        }
    }
}
