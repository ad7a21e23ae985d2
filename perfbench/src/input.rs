//! Workload inputs and their reference results.
//!
//! Set-up turns `--seed` into synthetic corpora and encodes them to CBT
//! bytes; those bytes are all the library receives. The reference
//! results are computed once per run, outside any timing, from the
//! generated requests through an independent path, and every timed
//! job's outputs must equal them.

use std::collections::{BTreeMap, HashSet};

use cbs_analysis::findings::verdicts::evaluate_pair;
use cbs_analysis::{analyze_trace, AnalysisConfig};
use cbs_cache::{policy_by_name, CacheSim, ReuseDistances};
use cbs_obs::Registry;
use cbs_synth::presets::{self, CorpusConfig};
use cbs_trace::{BlockAccessColumn, BlockSize, CbtWriter, IoRequest, RequestBatch, Timestamp};
use cbs_trace::{Trace, VolumeId};

use crate::spans::Tracer;
use crate::sys::digest;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Characterize,
    Provision,
    Replay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Characterize,
        Workload::Provision,
        Workload::Replay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Characterize => "characterize",
            Workload::Provision => "provision",
            Workload::Replay => "replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes, in requests. `TINY` serves the self-tests and the
/// probe jobs of a traced run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub cloud: usize,
    pub msrc: usize,
    pub provision: usize,
    pub replay: usize,
    pub probe: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        cloud: 1_500_000,
        msrc: 500_000,
        provision: 2_000_000,
        replay: 1_000_000,
        probe: 200_000,
    };

    /// Requests one job of `workload` processes.
    pub fn requests(&self, workload: Workload) -> usize {
        match workload {
            Workload::Characterize => self.cloud + self.msrc,
            Workload::Provision => self.provision,
            Workload::Replay => self.replay,
        }
    }

    pub const TINY: Scale = Scale {
        cloud: 20_000,
        msrc: 8_000,
        provision: 30_000,
        replay: 20_000,
        probe: 5_000,
    };
}

/// Seed of the volume population. The fleet — each volume's rates,
/// sizes, regions and lifetime — is the same in every run; `--seed`
/// draws each volume's request stream from it, so seeds vary the trace
/// sample but not the workload's shape.
const FLEET_SEED: u64 = 90210;
/// Days of traffic each corpus is configured for. A workload's request
/// budget takes a prefix of about two days.
const CORPUS_DAYS: u64 = 3;
/// Intensity scale: every seed's AliCloud-like corpus holds about 3 M
/// requests, half again the largest budget.
const INTENSITY: f64 = 0.015;
/// The replay corpus confines each volume's address regions to this
/// many bytes, so the in-memory page store stays a few hundred MiB.
const REPLAY_REGION_BYTES: u64 = 4 << 20;
/// The ×100 replay probe covers at most this much recorded time.
const PROBE_WINDOW_SECS: u64 = 200;

/// The cache capacities of the provisioning grid, in 4 KiB blocks: the
/// five Fig. 18 points, 16 MiB to 4 GiB.
pub const CAPACITIES: [usize; 5] = [4_096, 16_384, 65_536, 262_144, 1_048_576];
/// The exact-LRU capacity checked against a standalone `CacheSim`.
pub const CHECKED_CAPACITY: usize = 65_536;

#[derive(Debug, Clone, Copy)]
enum Fleet {
    AliCloud,
    Msrc,
    /// AliCloud-like with every region capped at [`REPLAY_REGION_BYTES`].
    AliCloudBounded,
}

impl Fleet {
    fn name(self) -> &'static str {
        match self {
            Fleet::AliCloud | Fleet::AliCloudBounded => "AliCloud-like",
            Fleet::Msrc => "MSRC-like",
        }
    }

    /// The fleet's corpus with each volume's stream re-seeded by `seed`.
    fn corpus(self, seed: u64) -> cbs_synth::CorpusGenerator {
        let config =
            CorpusConfig::new(128, CORPUS_DAYS, FLEET_SEED).with_intensity_scale(INTENSITY);
        let base = match self {
            Fleet::AliCloud | Fleet::AliCloudBounded => presets::alicloud_like(&config),
            Fleet::Msrc => presets::msrc_like(&CorpusConfig {
                volumes: 36,
                ..config
            }),
        };
        let stream_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let profiles = base
            .profiles()
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.seed ^= stream_seed;
                if let Fleet::AliCloudBounded = self {
                    let cap = REPLAY_REGION_BYTES;
                    p.read_spatial.region_len = p.read_spatial.region_len.min(cap);
                    p.write_spatial.region_len = p.write_spatial.region_len.min(cap);
                    if let Some(job) = &mut p.daily_rewrite {
                        job.region_len = job.region_len.min(cap);
                    }
                }
                p
            })
            .collect();
        cbs_synth::CorpusGenerator::new(profiles).expect("re-seeded preset profiles stay valid")
    }
}

/// Exactly `n` requests of `corpus`, or an error naming the shortfall.
fn take_exact(fleet: Fleet, seed: u64, n: usize) -> Result<Vec<IoRequest>, String> {
    let requests: Vec<IoRequest> = fleet.corpus(seed).stream().take(n).collect();
    if requests.len() < n {
        return Err(format!(
            "the {} corpus of seed {seed} holds {} requests, fewer than the {n} needed",
            fleet.name(),
            requests.len()
        ));
    }
    Ok(requests)
}

pub fn encode(requests: &[IoRequest]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = CbtWriter::new(&mut bytes);
    for req in requests {
        writer
            .write_request(req)
            .expect("encoding into memory cannot fail");
    }
    writer.finish().expect("encoding into memory cannot fail");
    bytes
}

/// The generated input of one run: the requests of each corpus (kept
/// only until the reference is computed) and their CBT encodings.
#[derive(Debug)]
pub struct Inputs {
    pub corpora: Vec<Vec<IoRequest>>,
    pub blobs: Vec<Vec<u8>>,
}

impl Inputs {
    /// Requests one job processes.
    pub fn requests(&self) -> u64 {
        self.corpora.iter().map(|c| c.len() as u64).sum()
    }
}

/// Set-up: generates the workload's corpora (`synth.gen` span) and
/// encodes them (`trace.encode` span).
pub fn generate(
    workload: Workload,
    seed: u64,
    scale: Scale,
    tracer: &Tracer,
) -> Result<Inputs, String> {
    let corpora = tracer.span("synth.gen", || -> Result<Vec<Vec<IoRequest>>, String> {
        Ok(match workload {
            Workload::Characterize => vec![
                take_exact(Fleet::AliCloud, seed, scale.cloud)?,
                take_exact(Fleet::Msrc, seed, scale.msrc)?,
            ],
            Workload::Provision => vec![take_exact(Fleet::AliCloud, seed, scale.provision)?],
            // Every request is due at the same instant, so the replay
            // runs as fast as the engine can issue.
            Workload::Replay => vec![take_exact(Fleet::AliCloudBounded, seed, scale.replay)?
                .into_iter()
                .map(|r| IoRequest::new(r.volume(), r.op(), r.offset(), r.len(), Timestamp::ZERO))
                .collect()],
        })
    })?;
    let blobs = tracer.span("trace.encode", || {
        corpora.iter().map(|c| encode(c)).collect()
    });
    Ok(Inputs { corpora, blobs })
}

/// The ×100 fidelity probe of the traced replay: the first
/// [`PROBE_WINDOW_SECS`] of recorded time (at most `scale.probe`
/// requests), with real timestamps.
pub fn replay_probe(seed: u64, scale: Scale) -> Vec<u8> {
    let corpus = Fleet::AliCloudBounded.corpus(seed);
    let mut stream = corpus.stream().peekable();
    let start = stream.peek().map_or(Timestamp::ZERO, IoRequest::ts);
    let end = start.saturating_add(cbs_trace::TimeDelta::from_secs(PROBE_WINDOW_SECS));
    let requests: Vec<IoRequest> = stream
        .take_while(|r| r.ts() < end)
        .take(scale.probe)
        .collect();
    encode(&requests)
}

/// Expected job outputs (`check.*` keys, compared verbatim) plus facts
/// about the input recorded in the manifest.
#[derive(Debug, Default)]
pub struct Reference {
    pub checks: BTreeMap<String, String>,
    pub working_set_blocks: u64,
    /// Traced run only: per-layer figures measured on the reference
    /// path (`analysis.ns_per_req`, `cache.reuse_compactions`).
    pub layers: BTreeMap<&'static str, f64>,
}

pub fn cache_stats_line(stats: &cbs_cache::CacheStats) -> String {
    format!(
        "{},{},{},{}",
        stats.read_accesses(),
        stats.read_hits(),
        stats.write_accesses(),
        stats.write_hits()
    )
}

/// Block accesses of `requests` (4 KiB blocks), in stream order.
fn block_column(requests: &[IoRequest]) -> BlockAccessColumn {
    let mut batch = RequestBatch::with_capacity(requests.len());
    for r in requests {
        batch.push(r);
    }
    let mut column = BlockAccessColumn::with_capacity(requests.len());
    batch.expand_blocks_into(BlockSize::DEFAULT, &mut column);
    column
}

/// Counts `ReuseStack` compactions on `streams` through a
/// registry-attached `ReuseDistances`, which compacts by the same rule
/// as the stacks inside the analyzer (one per volume) and the sweep's
/// LRU lane (one per stream). Those stacks take no registry.
fn reuse_compactions<'a>(streams: impl Iterator<Item = &'a [cbs_trace::BlockId]>) -> f64 {
    let registry = Registry::new();
    for blocks in streams {
        let mut distances = ReuseDistances::new().with_registry(&registry);
        for &b in blocks {
            distances.access(b);
        }
    }
    registry.counter("reuse.compactions").get() as f64
}

pub fn reference(workload: Workload, inputs: &Inputs, traced: bool) -> Reference {
    let mut out = Reference::default();
    match workload {
        Workload::Characterize => {
            let config = AnalysisConfig::default();
            let mut metrics = Vec::new();
            let mut analyze_ns = 0u64;
            for (corpus, key) in inputs.corpora.iter().zip(["cloud", "msrc"]) {
                let trace = Trace::from_requests(corpus.clone());
                let clock = std::time::Instant::now();
                let m = analyze_trace(&trace, &config).expect("default config is valid");
                analyze_ns += clock.elapsed().as_nanos() as u64;
                out.checks
                    .insert(format!("check.{key}_metrics"), digest(&m[..]));
                out.working_set_blocks += m.iter().map(|v| v.wss_blocks).sum::<u64>();
                if traced {
                    let per_volume = trace.volumes().map(|v| block_column(v.requests()));
                    let columns: Vec<BlockAccessColumn> = per_volume.collect();
                    *out.layers.entry("cache.reuse_compactions").or_insert(0.0) +=
                        reuse_compactions(columns.iter().map(BlockAccessColumn::blocks));
                }
                metrics.push(m);
            }
            let verdicts = evaluate_pair(&metrics[0], &metrics[1], &config);
            out.checks
                .insert("check.verdicts".into(), digest(&verdicts[..]));
            out.checks
                .insert("check.requests".into(), inputs.requests().to_string());
            if traced {
                out.layers.insert(
                    "analysis.ns_per_req",
                    analyze_ns as f64 / inputs.requests() as f64,
                );
            }
        }
        Workload::Provision => {
            let requests = &inputs.corpora[0];
            let policy = policy_by_name("lru", CHECKED_CAPACITY).expect("lru is a known policy");
            let mut sim = CacheSim::new(policy, BlockSize::DEFAULT);
            sim.run(requests);
            let column = block_column(requests);
            out.checks.insert(
                format!("check.lru_{CHECKED_CAPACITY}"),
                cache_stats_line(&sim.stats()),
            );
            out.checks
                .insert("check.accesses".into(), column.len().to_string());
            out.checks
                .insert("check.requests".into(), requests.len().to_string());
            out.working_set_blocks = column.blocks().iter().collect::<HashSet<_>>().len() as u64;
            if traced {
                out.layers.insert(
                    "cache.reuse_compactions",
                    reuse_compactions(std::iter::once(column.blocks())),
                );
            }
        }
        Workload::Replay => {
            let requests = &inputs.corpora[0];
            let (mut bytes, mut reads) = (0u64, 0u64);
            let mut pages: HashSet<(VolumeId, u64)> = HashSet::new();
            for r in requests {
                bytes += u64::from(r.len());
                if r.is_read() {
                    reads += 1;
                } else if !r.is_empty() {
                    let first = r.offset() / cbs_replay::PAGE_BYTES;
                    let last = (r.offset() + u64::from(r.len()) - 1) / cbs_replay::PAGE_BYTES;
                    pages.extend((first..=last).map(|p| (r.volume(), p)));
                }
            }
            let n = requests.len() as u64;
            out.checks.insert("check.requests".into(), n.to_string());
            out.checks.insert("check.bytes".into(), bytes.to_string());
            out.checks.insert("check.reads".into(), reads.to_string());
            out.checks
                .insert("check.writes".into(), (n - reads).to_string());
            out.checks
                .insert("check.pages".into(), pages.len().to_string());
            out.working_set_blocks = pages.len() as u64;
        }
    }
    out
}
