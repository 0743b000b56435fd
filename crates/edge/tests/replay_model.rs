//! The edge replay cache against a real partition: what it admits it
//! replays verifiably, whole; what no one cached section covers it
//! declines; and the floors it is given hold for whatever it returns.
//!
//! The worked examples pin the replay rules (whole or nothing, superset
//! replay, staleness and round-2 floors, batch aging); the property
//! test drives serve → cache → replay → verify end to end against a
//! plain `BTreeMap` model of the write history.

mod common;

use std::collections::BTreeMap;

use common::{Partition, Section, TestHeader};
use proptest::prelude::*;
use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimTime, Value};
use transedge_edge::{
    BatchCommitment, QueryAnswer, ReadQuery, ReadResponse, ReplayCache, SnapshotPolicy,
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

fn verified_values(
    p: &Partition,
    keys: &[Key],
    section: Section,
    now: SimTime,
) -> Vec<Option<Value>> {
    let response: ReadResponse<TestHeader> = ReadResponse::Point {
        section: Box::new(section),
        fresh: None,
    };
    let query = ReadQuery::point(keys.to_vec());
    match p
        .verifier()
        .verify_query(&p.keys, ClusterId(0), &query, &response, now)
        .expect("a replayed section verifies")
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
    assert!(replay.replay(&keys, Epoch::NONE, SimTime::ZERO).is_none());
    // Absorb an upstream response, then replay it to a second client.
    replay.admit_section(&p.section(&keys, BatchNum(1)));
    let section = replay
        .replay(&keys, Epoch::NONE, SimTime::ZERO)
        .expect("cached");
    assert_eq!(section.body.keys(), keys);
    let values = verified_values(&p, &keys, section, SimTime(2_500));
    assert_eq!(values[0], Some(Value::from("alpha-v2")));
    assert_eq!(values[2], None, "a proven absence replays too");
    // A dependency floor the cached batch cannot satisfy passes
    // upstream instead of serving stale state.
    assert!(replay.replay(&keys, Epoch(5), SimTime::ZERO).is_none());
    // A subset of the cached keys replays from the superset body.
    let section = replay
        .replay(&keys[..1], Epoch::NONE, SimTime::ZERO)
        .expect("covered");
    assert_eq!(section.body.keys(), keys);
    // Unknown keys pass upstream.
    assert!(replay
        .replay(&[k(99)], Epoch::NONE, SimTime::ZERO)
        .is_none());
}

/// Whole or nothing: a request only partly covered by the cache is a
/// miss, however many of its keys are cached; the forwarded answer then
/// covers it alone. So is one every key of which is cached, but under
/// different bodies.
#[test]
fn partly_cached_request_is_a_miss() {
    let p = two_batch_partition();
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    // The edge has only keys 1 and 2 cached (at batch 1).
    replay.admit_section(&p.section(&[k(1), k(2)], BatchNum(1)));
    // A 3-key request: 2 cached, 1 miss.
    let keys = vec![k(1), k(2), k(7)];
    assert!(replay.replay(&keys, Epoch::NONE, SimTime::ZERO).is_none());
    // What the forward brings back replays whole…
    replay.admit_section(&p.section(&keys, BatchNum(1)));
    let section = replay
        .replay(&keys, Epoch::NONE, SimTime::ZERO)
        .expect("cached");
    assert_eq!(section.batch(), BatchNum(1));
    assert_eq!(
        verified_values(&p, &keys, section, SimTime(2_500)),
        [
            Some(Value::from("alpha-v2")),
            Some(Value::from("beta")),
            None
        ]
    );
    // …and the tighter body admitted before it still answers what it
    // covers.
    let pair = replay.replay(&keys[..2], Epoch::NONE, SimTime::ZERO);
    assert_eq!(pair.expect("covered").body.keys(), &keys[..2]);

    // Every key cached, but no one body proving all three: a miss.
    let mut split: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    split.admit_section(&p.section(&keys[..2], BatchNum(1)));
    split.admit_section(&p.section(&keys[2..], BatchNum(1)));
    assert!(split.replay(&keys, Epoch::NONE, SimTime::ZERO).is_none());
}

/// The staleness floor applies to the batch served: once the only batch
/// covering the request ages past it, the request is a miss, while a
/// key a fresh batch still covers keeps replaying.
#[test]
fn staleness_floor_passes_what_no_fresh_batch_covers() {
    let p = two_batch_partition();
    let mut replay: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    let both = [k(1), k(2)];
    // Batch 0 (timestamp 1_000) cached both keys; batch 1 (timestamp
    // 2_000) cached only key 1.
    replay.admit_section(&p.section(&both, BatchNum(0)));
    replay.admit_section(&p.section(&both[..1], BatchNum(1)));
    // Behind a floor both batches pass, batch 0 — the newest covering
    // the whole request — replays.
    let section = replay.replay(&both, Epoch::NONE, SimTime(500));
    assert_eq!(section.expect("covered").batch(), BatchNum(0));
    // Once batch 0 ages past the floor nothing fresh covers both keys…
    assert!(replay.replay(&both, Epoch::NONE, SimTime(1_500)).is_none());
    // …while key 1 alone replays from the fresh batch 1.
    let section = replay.replay(&both[..1], Epoch::NONE, SimTime(1_500));
    assert_eq!(section.expect("covered").batch(), BatchNum(1));
    // Past every batch's timestamp: nothing usable.
    assert!(replay
        .replay(&both[..1], Epoch::NONE, SimTime(2_500))
        .is_none());
}

/// Round-2 `min_epoch` fetches are satisfied from newer admitted
/// batches when one covers the keys, and pass upstream when the only
/// floor-satisfying batch covers just some.
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
    let section = replay.replay(&keys, Epoch(0), SimTime::ZERO);
    assert_eq!(section.expect("covered").batch(), BatchNum(1));
    // A floor no admitted batch reaches still passes upstream.
    assert!(replay.replay(&keys, Epoch(5), SimTime::ZERO).is_none());
    // Partial coverage at the only floor-satisfying batch: a miss, not
    // a downgrade to the batch below the floor.
    let mut sparse: ReplayCache<TestHeader> = ReplayCache::new(1024, 8);
    sparse.admit_section(&p.section(&keys, BatchNum(0)));
    sparse.admit_section(&p.section(&keys[..1], BatchNum(1)));
    assert!(sparse.replay(&keys, Epoch(0), SimTime::ZERO).is_none());
    let section = sparse.replay(&keys, Epoch::NONE, SimTime::ZERO);
    assert_eq!(section.expect("covered").batch(), BatchNum(0));
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
    assert!(replay.replay(&keys, Epoch::NONE, SimTime(1_500)).is_some());
    // Cached section older than the floor: pass upstream instead of
    // serving something the client would reject as stale.
    assert!(replay.replay(&keys, Epoch::NONE, SimTime(2_001)).is_none());
}

/// Key space of the model test: small enough that sections overlap
/// constantly, with a few keys nobody ever writes.
const KEY_SPACE: u32 = 12;
const SECOND: u64 = 1_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Reference model for serve → cache → replay → verify: over a
    /// random write history, random (overlapping, multi-batch,
    /// capacity-evicting) admissions and a random request under random
    /// floors, `replay` returns nothing or one section that proves
    /// every asked key, sits at or above both floors, passes
    /// `verify_query` and equals a plain `BTreeMap` model at the batch
    /// it was served at; and the cache never holds more than `capacity`
    /// proven keys.
    #[test]
    fn replayed_answers_match_the_model(
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
        // two admitted key sets, sometimes widened — so replays,
        // superset replays and misses all occur.
        let mut asked = asked_too;
        for like in &asked_like {
            asked.extend(admissions[like.index(admissions.len())].1.iter().copied());
        }
        let keys: Vec<Key> = asked.iter().copied().map(k).collect();
        let min_lce = Epoch(floor_lce);
        let min_timestamp = SimTime(SECOND * floor_batch);
        let replayed = cache.replay(&keys, min_lce, min_timestamp);
        prop_assert!(cache.fragment_count() <= capacity);
        let Some(section) = replayed else {
            return Ok(());
        };
        // One cut, at or above both floors, covering the request alone.
        let served = section.batch();
        let header = &p.headers[served.0 as usize];
        prop_assert!(header.lce() >= min_lce, "{:?} < {:?}", header.lce(), min_lce);
        prop_assert!(header.timestamp() >= min_timestamp);
        prop_assert!(keys.iter().all(|key| section.body.proves(key)));

        let query = ReadQuery::point(keys.clone()).with_policy(SnapshotPolicy::MinEpoch(min_lce));
        let response: ReadResponse<TestHeader> = ReadResponse::Point { section: Box::new(section), fresh: None };
        let answer = p
            .verifier()
            .verify_query(&p.keys, ClusterId(0), &query, &response, header.timestamp())
            .expect("a replayed answer verifies");
        let want: Vec<(Key, Option<Value>)> = keys
            .iter()
            .map(|key| (key.clone(), model[served.0 as usize].get(key).cloned()))
            .collect();
        prop_assert_eq!(answer, QueryAnswer::Values(want));
    }
}
