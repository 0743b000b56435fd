//! The edge replay cache against a real partition: what it admits it
//! replays verifiably, what it lacks it names, and the floors it is
//! given hold for whatever it returns.
//!
//! The worked examples pin the anchor rules (full replay, partial
//! assembly, staleness and round-2 floors, batch aging); the property
//! test drives serve → cache → assemble → verify end to end against a
//! plain `BTreeMap` model of the write history.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{Partition, Section, TestHeader};
use proptest::prelude::*;
use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimTime, Value};
use transedge_edge::{
    BatchCommitment, QueryAnswer, ReadPipeline, ReadQuery, ReadResponse, ReplayCache,
    SnapshotPolicy,
};

fn two_batch_partition() -> Partition {
    let mut p = Partition::new();
    p.commit(&[(1, "alpha"), (2, "beta")], Epoch::NONE, SimTime(1_000));
    p.commit(&[(1, "alpha-v2")], Epoch(0), SimTime(2_000));
    p
}

fn k(n: u32) -> Key {
    Key::from_u32(n)
}

/// The keys each section proves, in section order.
fn proven(sections: &[Section]) -> Vec<Vec<Key>> {
    sections.iter().map(|s| s.body.keys().to_vec()).collect()
}

fn verified_values(
    p: &Partition,
    keys: &[Key],
    sections: Vec<Section>,
    now: SimTime,
) -> Vec<Option<Value>> {
    let response: ReadResponse<TestHeader> = ReadResponse::Point {
        sections,
        fresh: None,
    };
    let query = ReadQuery::point(keys.to_vec());
    match p
        .verifier()
        .verify_query(&p.keys, ClusterId(0), &query, &response, now)
        .expect("replayed sections verify")
    {
        QueryAnswer::Values(values) => values.into_iter().map(|(_, v)| v).collect(),
        other => panic!("a point query yields values, got {other:?}"),
    }
}

#[test]
fn replay_round_trips_verified_sections() {
    let p = two_batch_partition();
    let keys = vec![k(1), k(2), k(7)];
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    // Nothing cached yet: the edge node must pass upstream.
    let (sections, missing) = replay.assemble(&keys, Epoch::NONE, SimTime::ZERO);
    assert!(sections.is_empty());
    assert_eq!(missing, keys);
    assert_eq!(replay.stats.passes, 1);
    // Absorb an upstream response, then replay it to a second client.
    replay.admit_section(&p.section(&keys, BatchNum(1)));
    let (sections, missing) = replay.assemble(&keys, Epoch::NONE, SimTime::ZERO);
    assert!(missing.is_empty());
    assert_eq!(proven(&sections), std::slice::from_ref(&keys));
    let values = verified_values(&p, &keys, sections, SimTime(2_500));
    assert_eq!(values[0], Some(Value::from("alpha-v2")));
    assert_eq!(values[2], None, "a proven absence replays too");
    assert_eq!(replay.stats.replayed, 1);
    // A dependency floor the cached batch cannot satisfy passes
    // upstream instead of serving stale state.
    assert!(replay.assemble(&keys, Epoch(5), SimTime::ZERO).0.is_empty());
    // A subset of the cached keys replays from the superset body.
    let (sections, missing) = replay.assemble(&keys[..1], Epoch::NONE, SimTime::ZERO);
    assert!(missing.is_empty());
    assert_eq!(proven(&sections), std::slice::from_ref(&keys));
    // Unknown keys pass upstream.
    assert!(replay
        .assemble(&[k(99)], Epoch::NONE, SimTime::ZERO)
        .0
        .is_empty());
}

/// Partial assembly: a request only partially covered by the cache is
/// split into the cached section at an anchor batch plus the keys to
/// fetch upstream pinned at that batch; together they verify as one
/// response.
#[test]
fn partial_assembly_combines_cached_and_upstream_sections() {
    let p = two_batch_partition();
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    // The edge has only keys 1 and 2 cached (at batch 1).
    replay.admit_section(&p.section(&[k(1), k(2)], BatchNum(1)));
    // A 3-key request: 2 cached, 1 miss.
    let keys = vec![k(1), k(2), k(7)];
    let (mut sections, missing) = replay.assemble(&keys, Epoch::NONE, SimTime::ZERO);
    assert_eq!(proven(&sections), [vec![k(1), k(2)]]);
    assert_eq!(sections[0].batch(), BatchNum(1));
    assert_eq!(missing, [k(7)]);
    assert_eq!(replay.stats.partial, 1);
    // The upstream fill, pinned at the anchor batch.
    sections.push(p.section(&missing, BatchNum(1)));
    let values = verified_values(&p, &keys, sections, SimTime(2_500));
    assert_eq!(
        values,
        [
            Some(Value::from("alpha-v2")),
            Some(Value::from("beta")),
            None
        ]
    );
    // A cached body proving keys nobody asked for is no help to a
    // partial answer — padding it would cost more than forwarding the
    // request whole — so {2, 9} with only {1, 2} cached is a miss…
    let (sections, missing) = replay.assemble(&[k(2), k(9)], Epoch::NONE, SimTime::ZERO);
    assert!(sections.is_empty());
    assert_eq!(missing, [k(2), k(9)]);
    // …until a tighter body for key 2 is admitted.
    replay.admit_section(&p.section(&[k(2)], BatchNum(1)));
    let (sections, missing) = replay.assemble(&[k(2), k(9)], Epoch::NONE, SimTime::ZERO);
    assert_eq!(proven(&sections), [vec![k(2)]]);
    assert_eq!(missing, [k(9)]);
}

/// The staleness floor interacts with partial assembly per key: when a
/// key's only fresh-enough entry no longer covers the request, just the
/// stale/missing keys are refreshed upstream — not the whole request.
#[test]
fn staleness_floor_refreshes_only_stale_keys() {
    let p = two_batch_partition();
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    let both = [k(1), k(2)];
    // Batch 0 (timestamp 1_000) cached both keys; batch 1 (timestamp
    // 2_000) cached only key 1.
    replay.admit_section(&p.section(&both, BatchNum(0)));
    replay.admit_section(&p.section(&both[..1], BatchNum(1)));
    // Behind a floor both batches pass, the full batch-0 replay wins.
    let (sections, missing) = replay.assemble(&both, Epoch::NONE, SimTime(500));
    assert!(missing.is_empty());
    assert_eq!(sections[0].batch(), BatchNum(0));
    // Once batch 0 ages past the floor, key 2's entry is stale: the
    // fresh batch 1 anchors, key 1 replays from cache, and ONLY key 2
    // goes upstream — an aging entry is a per-key refresh, not a
    // whole-request miss.
    let (sections, missing) = replay.assemble(&both, Epoch::NONE, SimTime(1_500));
    assert_eq!(sections[0].batch(), BatchNum(1));
    assert_eq!(proven(&sections), [vec![k(1)]]);
    assert_eq!(missing, [k(2)]);
    // Past every batch's timestamp: nothing usable, full pass.
    assert!(replay
        .assemble(&both, Epoch::NONE, SimTime(2_500))
        .0
        .is_empty());
}

/// Round-2 `min_epoch` fetches are satisfied from newer admitted
/// batches — fully when one covers the keys, partially (pinned fetch
/// for the rest) when it only covers some.
#[test]
fn round2_floor_served_from_newer_admitted_batches() {
    let p = two_batch_partition();
    let keys = vec![k(1), k(2)];
    // Full coverage at the newer batch: a round-2 floor the old batch
    // cannot reach (batch 0 has LCE = NONE, batch 1 has LCE = 0) is
    // served entirely from batch 1.
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    replay.admit_section(&p.section(&keys, BatchNum(0)));
    replay.admit_section(&p.section(&keys, BatchNum(1)));
    let (sections, missing) = replay.assemble(&keys, Epoch(0), SimTime::ZERO);
    assert!(missing.is_empty());
    assert_eq!(sections[0].batch(), BatchNum(1));
    // A floor no admitted batch reaches still passes upstream.
    assert!(replay.assemble(&keys, Epoch(5), SimTime::ZERO).0.is_empty());
    // Partial coverage at the only floor-satisfying batch: anchor
    // there, fetch the rest pinned.
    let mut sparse: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    sparse.admit_section(&p.section(&keys, BatchNum(0)));
    sparse.admit_section(&p.section(&keys[..1], BatchNum(1)));
    let (sections, missing) = sparse.assemble(&keys, Epoch(0), SimTime::ZERO);
    assert_eq!(sections[0].batch(), BatchNum(1));
    assert_eq!(missing, [k(2)]);
}

#[test]
fn replay_respects_freshness_floor_and_gc() {
    let p = two_batch_partition();
    let keys = vec![k(1), k(2), k(7)];
    // Only the newest commitment is retained (max_batches = 1).
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 1);
    replay.admit_section(&p.section(&keys, BatchNum(0)));
    assert_eq!(replay.fragment_count(), keys.len());
    // Batch 1 (timestamp 2_000) evicts batch 0 and its entries.
    replay.admit_section(&p.section(&keys, BatchNum(1)));
    assert_eq!(replay.latest_batch(), Some(BatchNum(1)));
    assert_eq!(
        replay.fragment_count(),
        keys.len(),
        "entries of the evicted batch 0 must be dropped"
    );
    assert_eq!(replay.stats.evicted_entries, keys.len() as u64);
    // Fresh enough: replays.
    assert!(replay
        .assemble(&keys, Epoch::NONE, SimTime(1_500))
        .1
        .is_empty());
    // Cached section older than the floor: pass upstream instead of
    // serving something the client would reject as stale.
    assert!(replay
        .assemble(&keys, Epoch::NONE, SimTime(2_001))
        .0
        .is_empty());
}

/// Key space of the model test: small enough that sections overlap
/// constantly, with a few keys nobody ever writes.
const KEY_SPACE: u32 = 12;
const SECOND: u64 = 1_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Reference model for serve → cache → assemble → verify: over a
    /// random write history, random (overlapping, multi-batch,
    /// capacity-evicting) admissions and a random request under random
    /// floors, whatever `assemble` returns — completed with a pinned
    /// `serve_multi` fill for the keys it names missing — passes
    /// `verify_query` and equals a plain `BTreeMap` model at the anchor
    /// batch; the anchor is never below the floors; a section pads an
    /// answer with unrequested keys only when it answers it alone; and
    /// the cache never holds more than `capacity` proven keys.
    #[test]
    fn assembled_answers_match_the_model(
        history in proptest::collection::vec(
            proptest::collection::btree_set(0u32..KEY_SPACE - 3, 1..5),
            2..6,
        ),
        admissions in proptest::collection::vec(
            (any::<prop::sample::Index>(), proptest::collection::btree_set(0u32..KEY_SPACE, 1..5)),
            1..24,
        ),
        capacity in 3usize..24,
        max_batches in 1usize..6,
        asked_like in proptest::collection::vec(any::<prop::sample::Index>(), 1..3),
        asked_too in proptest::collection::btree_set(0u32..KEY_SPACE, 0..2),
        floor_lce in -1i64..2,
        floor_batch in 0u64..3,
    ) {
        // The partition and the model advance together.
        let mut p = Partition::new();
        let mut model: Vec<BTreeMap<Key, Value>> = Vec::new();
        for (n, written) in history.iter().enumerate() {
            let writes: Vec<(u32, String)> =
                written.iter().map(|key| (*key, format!("b{n}k{key}"))).collect();
            p.commit(&writes, Epoch(n as i64 - 1), SimTime(SECOND * (n as u64 + 1)));
            let mut cut = model.last().cloned().unwrap_or_default();
            cut.extend(writes.iter().map(|(key, v)| (k(*key), Value::from(v.as_str()))));
            model.push(cut);
        }

        let mut cache: ReplayCache<TestHeader> = ReplayCache::new(capacity, max_batches);
        for (at, keys) in &admissions {
            let at = BatchNum(at.index(history.len()) as u64);
            let keys: Vec<Key> = keys.iter().copied().map(k).collect();
            cache.admit_section(&p.section(&keys, at));
            prop_assert!(cache.fragment_count() <= capacity);
        }

        // The request resembles what was admitted — the union of one or
        // two admitted key sets, sometimes widened — so full replays,
        // partial answers and misses all occur.
        let mut asked = asked_too;
        for like in &asked_like {
            asked.extend(admissions[like.index(admissions.len())].1.iter().copied());
        }
        let keys: Vec<Key> = asked.iter().copied().map(k).collect();
        let min_lce = Epoch(floor_lce);
        let min_timestamp = SimTime(SECOND * floor_batch);
        let (mut sections, missing) = cache.assemble(&keys, min_lce, min_timestamp);
        prop_assert!(cache.fragment_count() <= capacity);
        let Some(anchor) = sections.first().map(|s| s.batch()) else {
            prop_assert_eq!(missing, keys);
            return Ok(());
        };
        // One cut, at or above both floors.
        let header = &p.headers[anchor.0 as usize];
        prop_assert!(sections.iter().all(|s| s.batch() == anchor));
        prop_assert!(header.lce() >= min_lce, "{:?} < {:?}", header.lce(), min_lce);
        prop_assert!(header.timestamp() >= min_timestamp);
        // Missing is exactly what no section proves.
        let unproven: Vec<Key> = keys
            .iter()
            .filter(|key| !sections.iter().any(|s| s.body.proves(key)))
            .cloned()
            .collect();
        prop_assert_eq!(&missing, &unproven);
        // Unrequested keys ride along only in a lone, complete answer.
        let requested: BTreeSet<&Key> = keys.iter().collect();
        let padded = sections
            .iter()
            .any(|s| s.body.keys().iter().any(|key| !requested.contains(key)));
        prop_assert!(!padded || (sections.len() == 1 && missing.is_empty()));

        // Complete it the way the edge does: one ordinary read of the
        // missing keys, pinned at the anchor.
        if !missing.is_empty() {
            let mut upstream = ReadPipeline::new(8);
            sections.push(p.wrap(upstream.serve_multi(&p, &missing, anchor), anchor));
        }
        let query = ReadQuery::point(keys.clone()).with_policy(SnapshotPolicy::MinEpoch(min_lce));
        let response: ReadResponse<TestHeader> = ReadResponse::Point { sections, fresh: None };
        let answer = p
            .verifier()
            .verify_query(&p.keys, ClusterId(0), &query, &response, header.timestamp())
            .expect("an assembled answer verifies");
        let want: Vec<(Key, Option<Value>)> = keys
            .iter()
            .map(|key| (key.clone(), model[anchor.0 as usize].get(key).cloned()))
            .collect();
        prop_assert_eq!(answer, QueryAnswer::Values(want));
    }
}
