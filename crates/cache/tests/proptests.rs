//! Property-based tests for the cache substrate.

use proptest::prelude::*;

use cbs_cache::{
    policy_by_name, Arc, CachePolicy, CacheSim, Clock, Fifo, Lfu, Lru, MissRatioCurve,
    ReuseDistances, ShardsSampler, Slru, SweepGrid, TwoQ, POLICY_NAMES,
};
use cbs_trace::{BlockId, BlockSize, IoRequest, OpKind, Timestamp, VolumeId};

fn arb_stream() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..48, 1..400)
}

/// Arbitrary request traces for the sweep engine: offsets spanning a
/// small block range (with unaligned straddlers), mixed lengths
/// (including zero-length no-ops), mixed read/write ops, and
/// occasionally empty traces.
fn arb_requests() -> impl Strategy<Value = Vec<IoRequest>> {
    proptest::strategy::FnStrategy(|rng: &mut proptest::test_runner::TestRng| {
        let len = rng.below(300) as usize;
        (0..len)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new(0),
                    if rng.below(2) == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    rng.below(40 * 4096),
                    rng.below(3 * 4096) as u32,
                    Timestamp::from_micros(i as u64),
                )
            })
            .collect()
    })
}

/// Arbitrary span-shaped access streams long enough to compact a
/// `ReuseStack`: runs of 1–16 consecutive blocks over a 96-block space
/// (arbitrarily warm or cold) until at least 1 200 touches. With at most
/// 96 live positions, crossing 1 024 positions means at least ⅞ are
/// dead, so `should_compact` must fire at least once.
fn arb_compacting_stream() -> impl Strategy<Value = Vec<u64>> {
    proptest::strategy::FnStrategy(|rng: &mut proptest::test_runner::TestRng| {
        let target = 1_200 + rng.below(2_000) as usize;
        let mut stream = Vec::with_capacity(target + 16);
        while stream.len() < target {
            let span = 1 + rng.below(16);
            let start = rng.below(96 - span + 1);
            stream.extend(start..start + span);
        }
        stream
    })
}

/// Replays `stream` through `cache`, asserting the universal policy
/// invariants at every step, and returns the number of hits.
fn replay<P: CachePolicy>(mut cache: P, stream: &[u64]) -> u64 {
    let mut resident = std::collections::HashSet::new();
    let mut hits = 0u64;
    for &x in stream {
        let block = BlockId::new(x);
        let was_resident = resident.contains(&block);
        let out = cache.access(block);
        assert_eq!(out.hit, was_resident);
        hits += u64::from(out.hit);
        if let Some(v) = out.evicted {
            assert!(resident.remove(&v));
        }
        resident.insert(block);
        assert!(cache.len() <= cache.capacity());
        assert_eq!(cache.len(), resident.len());
        assert!(cache.contains(block));
    }
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every policy upholds residency/eviction/capacity invariants on
    /// arbitrary streams.
    #[test]
    fn policies_uphold_invariants(stream in arb_stream(), cap in 1usize..32) {
        replay(Lru::new(cap), &stream);
        replay(Fifo::new(cap), &stream);
        replay(Lfu::new(cap), &stream);
        replay(Clock::new(cap), &stream);
        replay(Arc::new(cap), &stream);
        replay(Slru::new(cap), &stream);
        replay(TwoQ::new(cap), &stream);
    }

    /// LRU hit counts predicted by reuse distances match simulation
    /// exactly (the stack property).
    #[test]
    fn reuse_distances_predict_lru(stream in arb_stream(), cap in 1usize..32) {
        let mut rd = ReuseDistances::new();
        let mut predicted_hits = 0u64;
        for &x in &stream {
            if let Some(d) = rd.access(BlockId::new(x)) {
                if (d as usize) < cap {
                    predicted_hits += 1;
                }
            }
        }
        let actual_hits = replay(Lru::new(cap), &stream);
        prop_assert_eq!(predicted_hits, actual_hits);
        // and the MRC agrees at this capacity
        let mrc = rd.to_mrc();
        let expected_ratio = 1.0 - actual_hits as f64 / stream.len() as f64;
        prop_assert!((mrc.miss_ratio_at(cap) - expected_ratio).abs() < 1e-12);
    }

    /// The LRU inclusion property: a larger cache always hits at least
    /// as often as a smaller one on the same stream.
    #[test]
    fn lru_is_inclusion_monotone(stream in arb_stream(), small in 1usize..16, extra in 1usize..16) {
        let small_hits = replay(Lru::new(small), &stream);
        let large_hits = replay(Lru::new(small + extra), &stream);
        prop_assert!(large_hits >= small_hits);
    }

    /// Miss-ratio curves are monotone non-increasing in capacity.
    #[test]
    fn mrc_monotone(hist in proptest::collection::vec(0u64..50, 0..40), cold in 0u64..50) {
        let mrc = MissRatioCurve::from_histogram(hist, cold);
        let mut prev = f64::INFINITY;
        for c in 0..45 {
            let m = mrc.miss_ratio_at(c);
            prop_assert!(m <= prev + 1e-12);
            prev = m;
        }
    }

    /// SHARDS at rate 1.0 equals the exact curve everywhere.
    #[test]
    fn shards_full_rate_exact(stream in arb_stream()) {
        let mut exact = ReuseDistances::new();
        let mut shards = ShardsSampler::new(1.0);
        for &x in &stream {
            exact.access(BlockId::new(x));
            shards.access(BlockId::new(x));
        }
        let me = exact.to_mrc();
        let ms = shards.to_mrc();
        for c in 0..64 {
            prop_assert!((me.miss_ratio_at(c) - ms.miss_ratio_at(c)).abs() < 1e-12);
        }
    }

    /// Cold misses equal the number of distinct blocks; histogram totals
    /// account for every access.
    #[test]
    fn reuse_distance_accounting(stream in arb_stream()) {
        let mut rd = ReuseDistances::new();
        for &x in &stream {
            rd.access(BlockId::new(x));
        }
        let distinct = stream.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        prop_assert_eq!(rd.cold_misses(), distinct);
        let finite: u64 = rd.histogram().iter().sum();
        prop_assert_eq!(finite + rd.cold_misses(), rd.accesses());
        prop_assert_eq!(rd.accesses(), stream.len() as u64);
    }

    /// `ReuseStack::touch`/`touch_cold`, relabeled through
    /// `compaction_table` + `rebuild_compacted` whenever
    /// `should_compact` fires, yields every access's reuse distance of
    /// a naive LRU list — including across compactions, of which the
    /// stream forces at least one.
    #[test]
    fn reuse_stack_matches_naive_lru(stream in arb_compacting_stream()) {
        let mut stack = cbs_cache::ReuseStack::new();
        let mut pos = std::collections::HashMap::new();
        let mut lru: Vec<u64> = Vec::new();
        let mut compactions = 0u32;
        for &blk in &stream {
            let expected = lru.iter().rev().position(|&x| x == blk).map(|d| d as u64);
            let got = match pos.get(&blk).copied() {
                Some(prev) => {
                    let (d, np) = stack.touch(prev);
                    pos.insert(blk, np);
                    Some(d)
                }
                None => {
                    pos.insert(blk, stack.touch_cold());
                    None
                }
            };
            prop_assert_eq!(got, expected, "block {}", blk);
            if let Some(i) = lru.iter().position(|&x| x == blk) {
                lru.remove(i);
            }
            lru.push(blk);
            prop_assert_eq!(stack.live(), lru.len());
            if stack.should_compact() {
                let table = stack.compaction_table();
                for p in pos.values_mut() {
                    *p = table[*p] as usize;
                }
                stack.rebuild_compacted();
                prop_assert_eq!(stack.positions(), lru.len());
                compactions += 1;
            }
        }
        prop_assert!(compactions >= 1, "no compaction over {} touches", stream.len());
    }

    /// Belady's OPT never loses to any online demand policy.
    #[test]
    fn opt_dominates_online_policies(stream in arb_stream(), cap in 1usize..24) {
        let accesses: Vec<BlockId> = stream.iter().map(|&x| BlockId::new(x)).collect();
        let opt = cbs_cache::simulate_opt(&accesses, cap);
        prop_assert_eq!(opt.accesses, stream.len() as u64);
        let lru_hits = replay(Lru::new(cap), &stream);
        let arc_hits = replay(Arc::new(cap), &stream);
        let twoq_hits = replay(TwoQ::new(cap), &stream);
        prop_assert!(opt.hits >= lru_hits, "OPT {} < LRU {lru_hits}", opt.hits);
        prop_assert!(opt.hits >= arc_hits, "OPT {} < ARC {arc_hits}", opt.hits);
        prop_assert!(opt.hits >= twoq_hits, "OPT {} < 2Q {twoq_hits}", opt.hits);
    }

    /// Sweep lane stats are bit-identical to a fresh per-(policy,
    /// capacity) `CacheSim` over the same trace — every policy, several
    /// capacities, arbitrary request shapes (unaligned, zero-length,
    /// empty traces), with and without worker threads.
    #[test]
    fn sweep_lanes_match_fresh_sims(
        reqs in arb_requests(),
        caps in proptest::collection::vec(1usize..80, 1..4),
        workers in 0usize..3,
    ) {
        let capacities: Vec<usize> = caps;
        let names: Vec<&str> = POLICY_NAMES.to_vec();
        let report = SweepGrid::new()
            .with_workers(workers)
            .with_batch_size(64)
            .grid(&names, &capacities)
            .expect("known names, non-zero capacities")
            .sweep(reqs.iter().copied());
        prop_assert_eq!(report.requests(), reqs.len() as u64);
        for &name in &names {
            for &cap in &capacities {
                let policy = policy_by_name(name, cap).expect("known policy");
                let mut sim = CacheSim::new(policy, BlockSize::DEFAULT);
                sim.run(&reqs);
                let got = report.stats(name, cap).expect("lane present");
                prop_assert_eq!(got, sim.stats(), "{}@{}", name, cap);
            }
        }
    }

    /// The sweep's collapsed-stack miss-ratio curve equals a fresh
    /// `CacheSim<Lru>` at EVERY capacity — grid points, off-grid
    /// points, and capacities past the histogram tail (where the curve
    /// flattens at the cold-miss ratio).
    #[test]
    fn sweep_mrc_matches_lru_sim_at_every_capacity(reqs in arb_requests()) {
        let report = SweepGrid::new()
            .with_workers(0)
            .lru_capacity(1)
            .expect("non-zero")
            .sweep(reqs.iter().copied());
        let mrc = report.lru_mrc().expect("stack lane ran");
        // 40 blocks of working set: capacity 100 is far past the tail.
        for cap in 1usize..100 {
            let mut sim = CacheSim::new(Lru::new(cap), BlockSize::DEFAULT);
            sim.run(&reqs);
            match sim.stats().overall_miss_ratio() {
                Some(expected) => {
                    prop_assert!(
                        (mrc.miss_ratio_at(cap) - expected).abs() < 1e-12,
                        "capacity {}: mrc {} vs sim {}", cap, mrc.miss_ratio_at(cap), expected
                    );
                }
                // Zero block accesses (empty trace or all zero-length
                // requests): the curve's convention is all-misses while
                // the sim reports no ratio.
                None => prop_assert_eq!(mrc.miss_ratio_at(cap), 1.0),
            }
        }
    }
}
