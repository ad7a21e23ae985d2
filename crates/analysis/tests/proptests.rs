//! Property-based tests: the single-pass analyzer against brute-force
//! reference implementations on arbitrary small traces.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use cbs_analysis::{analyze_trace, simd, AnalysisConfig, VolumeAnalyzer};
use cbs_trace::{BlockSize, IoRequest, OpKind, RequestBatch, Timestamp, Trace, VolumeId};

fn arb_op() -> impl Strategy<Value = OpKind> {
    prop_oneof![Just(OpKind::Read), Just(OpKind::Write)]
}

prop_compose! {
    /// Requests confined to a small space so blocks collide often.
    fn arb_request()(
        volume in 0u32..4,
        op in arb_op(),
        block in 0u64..40,
        len_blocks in 1u32..4,
        ts in 0u64..(1 << 34),
    ) -> IoRequest {
        IoRequest::new(
            VolumeId::new(volume),
            op,
            block * 4096,
            len_blocks * 4096,
            Timestamp::from_micros(ts),
        )
    }
}

/// Block space of [`arb_compacting_trace`]: at most this many blocks are
/// ever live in the analyzer's reuse stack.
const MRC_SPACE_BLOCKS: u64 = 128;

/// One volume's time-sorted requests of 1–64 blocks each (byte-granular,
/// so spans start and end mid-block) over a [`MRC_SPACE_BLOCKS`]-block
/// space, until at least 1 100 block touches. With at most 128 live
/// positions, crossing the stack's 1 024-position compaction floor means
/// at most ⅛ are live, so `should_compact` fires at least once.
fn arb_compacting_trace() -> impl Strategy<Value = Vec<IoRequest>> {
    proptest::strategy::FnStrategy(|rng: &mut proptest::test_runner::TestRng| {
        let target = 1_100 + rng.below(1_500);
        let (mut touches, mut reqs) = (0u64, Vec::new());
        while touches < target {
            let blocks = 1 + rng.below(64);
            let start = rng.below(MRC_SPACE_BLOCKS - blocks + 1);
            let head = rng.below(4096);
            let tail = if blocks == 1 {
                head + 1 + rng.below(4096 - head)
            } else {
                1 + rng.below(4096)
            };
            let op = if rng.below(3) == 0 {
                OpKind::Write
            } else {
                OpKind::Read
            };
            reqs.push(IoRequest::new(
                VolumeId::new(0),
                op,
                start * 4096 + head,
                ((blocks - 1) * 4096 + tail - head) as u32,
                Timestamp::from_micros(reqs.len() as u64 * 1_000),
            ));
            touches += blocks;
        }
        reqs
    })
}

/// LRU hit counts per op straight from Mattson's definition: a naive
/// recency list over every block touch of the trace (reads and writes
/// share one stack). `hits[op][c]` counts that op's touches hitting a
/// `c`-block cache, for `c` in `0..=capacity`.
fn naive_lru_hits(requests: &[IoRequest], capacity: usize) -> [(Vec<u64>, u64); 2] {
    let mut out = [(vec![0; capacity + 1], 0), (vec![0; capacity + 1], 0)];
    let mut lru: Vec<u64> = Vec::new();
    for req in requests {
        let (hits, total) = &mut out[usize::from(req.op() == OpKind::Write)];
        for block in BlockSize::DEFAULT.span_of(req) {
            let b = block.get();
            *total += 1;
            if let Some(i) = lru.iter().position(|&x| x == b) {
                let distance = lru.len() - 1 - i;
                for h in hits.iter_mut().skip(distance + 1) {
                    *h += 1;
                }
                lru.remove(i);
            }
            lru.push(b);
        }
    }
    out
}

/// Brute-force per-volume reference computed straight from the
/// definition.
struct Reference {
    reads: u64,
    writes: u64,
    read_blocks: HashSet<u64>,
    write_blocks: HashSet<u64>,
    update_blocks: HashSet<u64>,
    all_blocks: HashSet<u64>,
    pair_counts: [u64; 4], // raw, waw, rar, war
    update_intervals: u64,
}

fn reference(requests: &[IoRequest]) -> Reference {
    let bs = BlockSize::DEFAULT;
    let mut r = Reference {
        reads: 0,
        writes: 0,
        read_blocks: HashSet::new(),
        write_blocks: HashSet::new(),
        update_blocks: HashSet::new(),
        all_blocks: HashSet::new(),
        pair_counts: [0; 4],
        update_intervals: 0,
    };
    let mut last_op: HashMap<u64, OpKind> = HashMap::new();
    let mut write_counts: HashMap<u64, u64> = HashMap::new();
    for req in requests {
        match req.op() {
            OpKind::Read => r.reads += 1,
            OpKind::Write => r.writes += 1,
        }
        for block in bs.span_of(req) {
            let b = block.get();
            r.all_blocks.insert(b);
            if let Some(prev) = last_op.get(&b) {
                let idx = match (prev, req.op()) {
                    (OpKind::Write, OpKind::Read) => 0,
                    (OpKind::Write, OpKind::Write) => 1,
                    (OpKind::Read, OpKind::Read) => 2,
                    (OpKind::Read, OpKind::Write) => 3,
                };
                r.pair_counts[idx] += 1;
            }
            last_op.insert(b, req.op());
            match req.op() {
                OpKind::Read => {
                    r.read_blocks.insert(b);
                }
                OpKind::Write => {
                    r.write_blocks.insert(b);
                    let count = write_counts.entry(b).or_insert(0);
                    *count += 1;
                    if *count >= 2 {
                        r.update_blocks.insert(b);
                        r.update_intervals += 1;
                    }
                }
            }
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every per-volume metric with an exact reference matches it.
    #[test]
    fn analyzer_matches_brute_force(reqs in proptest::collection::vec(arb_request(), 1..300)) {
        let trace = Trace::from_requests(reqs);
        let config = AnalysisConfig::default();
        let metrics = analyze_trace(&trace, &config).expect("valid config");
        for m in &metrics {
            let volume_reqs = trace.volume(m.id).unwrap().requests();
            let r = reference(volume_reqs);
            prop_assert_eq!(m.reads, r.reads);
            prop_assert_eq!(m.writes, r.writes);
            prop_assert_eq!(m.wss_blocks, r.all_blocks.len() as u64);
            prop_assert_eq!(m.wss_read_blocks, r.read_blocks.len() as u64);
            prop_assert_eq!(m.wss_write_blocks, r.write_blocks.len() as u64);
            prop_assert_eq!(m.wss_update_blocks, r.update_blocks.len() as u64);
            prop_assert_eq!(m.raw_hist.total(), r.pair_counts[0]);
            prop_assert_eq!(m.waw_hist.total(), r.pair_counts[1]);
            prop_assert_eq!(m.rar_hist.total(), r.pair_counts[2]);
            prop_assert_eq!(m.war_hist.total(), r.pair_counts[3]);
            prop_assert_eq!(m.update_interval_hist.total(), r.update_intervals);
        }
    }

    /// The per-op LRU miss-ratio curves (Finding 15 / Fig. 18) equal a
    /// naive Mattson list at every capacity from 1 to wss + 1, on
    /// multi-block spans and across reuse-stack compactions. Streaming
    /// and sequential drivers share the analyzer, so this is the check
    /// that pins its reuse distances to the definition.
    #[test]
    fn analyzer_mrc_matches_naive_lru(reqs in arb_compacting_trace()) {
        let touches: usize = reqs.iter().map(|r| BlockSize::DEFAULT.span_of(r).count()).sum();
        prop_assert!(touches >= 1_024, "only {} touches", touches);
        let trace = Trace::from_requests(reqs);
        let metrics = analyze_trace(&trace, &AnalysisConfig::default()).expect("valid config");
        prop_assert_eq!(metrics.len(), 1);
        let m = &metrics[0];
        prop_assert!(m.wss_blocks <= MRC_SPACE_BLOCKS);
        let top = m.wss_blocks as usize + 1;
        let [reads, writes] = naive_lru_hits(trace.volume(m.id).unwrap().requests(), top);
        for (name, mrc, (hits, total)) in [("read", &m.read_mrc, reads), ("write", &m.write_mrc, writes)] {
            prop_assert_eq!(mrc.total_accesses(), total, "{} accesses", name);
            let cumulative = mrc.cumulative_hits();
            for c in 1..=top {
                let got = cumulative[c.min(cumulative.len() - 1)];
                prop_assert_eq!(got, hits[c], "{} hits at capacity {}", name, c);
            }
        }
    }

    /// Structural invariants that must hold for any input.
    #[test]
    fn analyzer_invariants(reqs in proptest::collection::vec(arb_request(), 1..300)) {
        let trace = Trace::from_requests(reqs);
        let config = AnalysisConfig::default();
        for m in analyze_trace(&trace, &config).expect("valid config") {
            prop_assert!(m.wss_update_blocks <= m.wss_write_blocks);
            prop_assert!(m.wss_read_blocks.max(m.wss_write_blocks) <= m.wss_blocks);
            prop_assert!(m.wss_read_blocks + m.wss_write_blocks >= m.wss_blocks);
            prop_assert!(m.updated_bytes <= m.write_bytes);
            prop_assert!(m.random_requests <= m.requests());
            prop_assert!(m.peak_interval_requests <= m.requests());
            prop_assert!(m.peak_interval_requests >= 1);
            prop_assert!(m.first_ts <= m.last_ts);
            prop_assert_eq!(m.interarrival_hist.total(), m.requests() - 1);
            prop_assert_eq!(
                m.read_size_hist.total() + m.write_size_hist.total(),
                m.requests()
            );
            // adjacency pairs + cold blocks = block accesses
            let pairs = m.raw_hist.total() + m.waw_hist.total()
                + m.rar_hist.total() + m.war_hist.total();
            let accesses = m.read_mrc.total_accesses() + m.write_mrc.total_accesses();
            prop_assert_eq!(pairs + m.wss_blocks, accesses);
            // read/write-mostly traffic is bounded by the op traffic
            prop_assert!(m.read_bytes_to_read_mostly <= m.read_bytes);
            prop_assert!(m.write_bytes_to_write_mostly <= m.write_bytes);
            // activeness lists are sorted unique
            prop_assert!(m.active_intervals.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(m.active_days.windows(2).all(|w| w[0] < w[1]));
            // miss ratios are probabilities and monotone in cache size
            for frac in [0.01, 0.1, 1.0] {
                if let Some(r) = m.read_miss_ratio(frac) {
                    prop_assert!((0.0..=1.0).contains(&r));
                }
            }
            if let (Some(small), Some(large)) =
                (m.write_miss_ratio(0.01), m.write_miss_ratio(0.10))
            {
                prop_assert!(large <= small + 1e-12);
            }
        }
    }

    /// The batched SoA kernel is bit-identical to per-request `observe`
    /// for every metric, at every batch split.
    #[test]
    fn observe_batch_equals_observe(
        reqs in proptest::collection::vec(arb_request(), 1..300),
        split_seed in 0u64..10_000,
    ) {
        // One volume, time-sorted: the analyzer's input contract.
        let volume = VolumeId::new(0);
        let mut reqs: Vec<IoRequest> = reqs
            .iter()
            .map(|r| IoRequest::new(volume, r.op(), r.offset(), r.len(), r.ts()))
            .collect();
        cbs_trace::iter::sort_by_time(&mut reqs);
        let epoch = reqs[0].ts();
        let config = AnalysisConfig::default();

        let mut scalar = VolumeAnalyzer::new(volume, epoch, config.clone()).expect("valid config");
        for req in &reqs {
            scalar.observe(req);
        }

        let mut batched = VolumeAnalyzer::new(volume, epoch, config).expect("valid config");
        let batch = RequestBatch::from(reqs.as_slice());
        // Split the batch at a few arbitrary points; each sub-range goes
        // through the fused column loops.
        let mut cuts = vec![
            split_seed as usize % (reqs.len() + 1),
            (split_seed / 100) as usize % (reqs.len() + 1),
        ];
        cuts.extend([0, reqs.len()]);
        cuts.sort_unstable();
        for pair in cuts.windows(2) {
            batched.observe_batch(&batch, pair[0]..pair[1]);
        }

        prop_assert_eq!(scalar.finish(), batched.finish());
    }

    /// The AVX2 op/length kernels are bit-identical to their scalar
    /// twins at every length and slice alignment (empty, length-1 and
    /// non-lane-multiple tails are all exercised by the start offsets).
    #[test]
    fn simd_op_kernels_equal_scalar(
        seeds in proptest::collection::vec(0u64..u64::MAX, 0..300),
    ) {
        // One seed vector yields matched op and length columns (the
        // compat proptest has no tuple strategies).
        let ops: Vec<OpKind> = seeds
            .iter()
            .map(|&s| if s & 1 == 1 { OpKind::Write } else { OpKind::Read })
            .collect();
        let lens: Vec<u32> = seeds.iter().map(|&s| (s >> 1) as u32).collect();
        for start in 0..=seeds.len().min(5) {
            let (ops, lens) = (&ops[start..], &lens[start..]);
            prop_assert_eq!(
                simd::op_len_sums(ops, lens),
                simd::op_len_sums_scalar(ops, lens)
            );
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            simd::write_mask(ops, &mut fast);
            simd::write_mask_scalar(ops, &mut slow);
            prop_assert_eq!(fast, slow);
        }
    }

    /// The AVX2 first-difference and range-membership kernels are
    /// bit-identical to their scalar twins on arbitrary values
    /// (including wraparound deltas) at every slice alignment.
    #[test]
    fn simd_value_kernels_equal_scalar(
        values in proptest::collection::vec(0u64..u64::MAX, 0..200),
        prev in 0u64..u64::MAX,
        lo in 0u64..u64::MAX,
        span in 0u64..(1 << 48),
    ) {
        let hi = lo.saturating_add(span);
        for start in 0..=values.len().min(5) {
            let values = &values[start..];
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            simd::deltas_u64(values, prev, &mut fast);
            simd::deltas_u64_scalar(values, prev, &mut slow);
            prop_assert_eq!(fast, slow);
            prop_assert_eq!(
                simd::any_within(values, lo, hi),
                simd::any_within_scalar(values, lo, hi)
            );
            // Inverted (empty) range: nothing is ever within.
            prop_assert!(!simd::any_within(values, hi.max(1), hi.max(1) - 1));
        }
    }

    /// Analysis is invariant under input order (the trace sorts by
    /// timestamp; only metrics independent of equal-timestamp tie
    /// order are compared).
    #[test]
    fn order_invariance(mut reqs in proptest::collection::vec(arb_request(), 1..150)) {
        let config = AnalysisConfig::default();
        let a = analyze_trace(&Trace::from_requests(reqs.clone()), &config).expect("valid config");
        reqs.reverse();
        let b = analyze_trace(&Trace::from_requests(reqs), &config).expect("valid config");
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.reads, y.reads);
            prop_assert_eq!(x.writes, y.writes);
            prop_assert_eq!(x.wss_blocks, y.wss_blocks);
            prop_assert_eq!(x.wss_update_blocks, y.wss_update_blocks);
            prop_assert_eq!(x.peak_interval_requests, y.peak_interval_requests);
            prop_assert_eq!(x.active_intervals.clone(), y.active_intervals.clone());
        }
    }
}
