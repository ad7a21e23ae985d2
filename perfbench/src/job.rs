//! One timed job, run in a fresh child process so that its peak RSS is
//! its own.
//!
//! The child reads its CBT inputs from stdin and runs the workload's
//! pipeline through the library's public API. The timed region runs
//! from opening the first CBT input to the complete result. Afterwards
//! the child prints `key value` lines: the requests it completed, wall
//! and CPU time of the timed region, peak RSS, its outputs as `check.*`
//! lines, and with tracing on the per-layer figures as `layer.*` lines.

use std::collections::BTreeMap;
use std::time::Instant;

use cbs_analysis::findings::verdicts::{evaluate_pair, FindingVerdict};
use cbs_analysis::{AnalysisConfig, VolumeMetrics};
use cbs_cache::{LaneReport, SweepGrid, SweepReport, POLICY_NAMES};
use cbs_core::StreamingWorkbench;
use cbs_obs::Registry;
use cbs_replay::{LaneSet, MemBackend, MultiLaneReport, Timing};
use cbs_trace::{CbtError, CbtReader, CbtSliceReader, IoRequest};

use crate::input::{cache_stats_line, Workload, CAPACITIES, CHECKED_CAPACITY};
use crate::spans::Tracer;
use crate::sys;

/// Worker threads per job besides the feeding thread: one shard, one
/// sweep worker or one replay lane, so a job uses two threads.
pub const WORKERS: usize = 1;

/// Length-prefixed blobs on a byte stream: a `u32` count, then per blob
/// a `u64` length and the bytes.
pub fn write_blobs(out: &mut impl std::io::Write, blobs: &[&[u8]]) -> std::io::Result<()> {
    out.write_all(&(blobs.len() as u32).to_le_bytes())?;
    for blob in blobs {
        out.write_all(&(blob.len() as u64).to_le_bytes())?;
        out.write_all(blob)?;
    }
    out.flush()
}

fn read_blobs(input: &mut impl std::io::Read) -> std::io::Result<Vec<Vec<u8>>> {
    let mut count = [0u8; 4];
    input.read_exact(&mut count)?;
    let mut blobs = Vec::new();
    for _ in 0..u32::from_le_bytes(count) {
        let mut len = [0u8; 8];
        input.read_exact(&mut len)?;
        let len = usize::try_from(u64::from_le_bytes(len)).expect("blob length fits in memory");
        let mut blob = vec![0u8; len];
        input.read_exact(&mut blob)?;
        blobs.push(blob);
    }
    Ok(blobs)
}

/// The complete result of a job.
enum Output {
    Characterize {
        metrics: Vec<Vec<VolumeMetrics>>,
        verdicts: Vec<FindingVerdict>,
    },
    Provision(SweepReport),
    Replay {
        report: MultiLaneReport,
        pages: usize,
    },
}

/// Requests a job completed, and its result or why it has none.
struct Run {
    completed: u64,
    output: Result<Output, String>,
}

impl Run {
    fn decode_failed(completed: u64, e: &CbtError) -> Run {
        Run {
            completed,
            output: Err(format!("CBT decode failed: {e}")),
        }
    }
}

/// Entry point of the child process.
pub fn run_child(workload: Workload, traced: bool, spans_out: Option<&str>) {
    let blobs = read_blobs(&mut std::io::stdin().lock()).expect("read job inputs from stdin");
    let tracer = Tracer::new(traced);
    let registry = traced.then(Registry::new);
    let registry = registry.as_ref();

    let cpu_start = sys::cpu_nanos();
    let clock = Instant::now();
    let run = match workload {
        Workload::Characterize => characterize(&blobs, &tracer, registry),
        Workload::Provision => provision(&blobs[0], &tracer, registry),
        Workload::Replay => replay(&blobs[0], &tracer, registry),
    };
    let wall_ns = clock.elapsed().as_nanos() as u64;
    let cpu_ns = sys::cpu_nanos() - cpu_start;
    let rss_kb = sys::peak_rss_kb();

    println!("completed {}", run.completed);
    println!("wall_ns {wall_ns}");
    println!("cpu_ns {cpu_ns}");
    println!("rss_kb {rss_kb}");
    let output = match run.output {
        Ok(output) => output,
        Err(reason) => {
            eprintln!("perfbench: job failed: {reason}");
            println!("error {}", reason.replace(char::is_whitespace, "_"));
            return;
        }
    };
    for (key, value) in checks(&output) {
        println!("{key} {value}");
    }
    if traced {
        let mut layers = layers(
            &output,
            &tracer,
            registry,
            wall_ns as f64,
            run.completed as f64,
        );
        let self_ns: u64 = tracer.self_ns().values().sum();
        layers.insert(
            "bench.unattributed_share",
            wall_ns.saturating_sub(self_ns) as f64 / wall_ns as f64,
        );
        if workload == Workload::Replay {
            layers.extend(replay_probe(&blobs[1]));
        }
        for (key, value) in layers {
            println!("layer.{key} {value}");
        }
    }
    if let Some(path) = spans_out {
        if let Err(e) = std::fs::write(path, tracer.to_json()) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
        }
    }
}

/// `characterize`: each corpus streams from CBT into a one-shard
/// streaming session; `evaluate_pair` then gives the 15 verdicts.
fn characterize(blobs: &[Vec<u8>], tracer: &Tracer, registry: Option<&Registry>) -> Run {
    let mut completed = 0u64;
    let mut metrics = Vec::new();
    for blob in blobs {
        let mut workbench = StreamingWorkbench::new().with_shards(WORKERS);
        let mut reader = CbtSliceReader::new(blob);
        if let Some(r) = registry {
            workbench = workbench.with_registry(r);
            reader = reader.with_registry(r);
        }
        let mut session = workbench.start();
        loop {
            match tracer.span("trace.decode", || reader.read_batch_ref()) {
                Ok(Some(batch)) => {
                    completed += batch.len() as u64;
                    tracer.span("core.route", || session.observe_request_batch_ref(batch));
                }
                Ok(None) => break,
                Err(e) => return Run::decode_failed(completed, &e),
            }
        }
        metrics.push(tracer.span("core.finish", || session.finish()));
    }
    let verdicts = tracer.span("analysis.findings", || {
        evaluate_pair(&metrics[0], &metrics[1], &AnalysisConfig::default())
    });
    Run {
        completed,
        output: Ok(Output::Characterize { metrics, verdicts }),
    }
}

/// `provision`: one CBT streams into a sweep grid with one worker:
/// exact LRU at every capacity, the other policies SHARDS-sampled at
/// the same capacities, and the sampled miss-ratio curve.
fn provision(blob: &[u8], tracer: &Tracer, registry: Option<&Registry>) -> Run {
    let mut grid = SweepGrid::new().with_workers(WORKERS);
    let mut reader = CbtReader::new(blob);
    if let Some(r) = registry {
        grid = grid.with_registry(r);
        reader = reader.with_registry(r);
    }
    for &name in POLICY_NAMES {
        for &capacity in &CAPACITIES {
            grid = if name == "lru" {
                grid.policy(name, capacity)
            } else {
                grid.sampled_policy(name, capacity)
            }
            .expect("every POLICY_NAMES entry is a known policy");
        }
    }
    let mut sweep = grid.with_sampled_mrc().start();
    let mut completed = 0u64;
    loop {
        match tracer.span("trace.decode", || reader.read_batch()) {
            Ok(Some(batch)) => {
                completed += batch.len() as u64;
                tracer.span("cache.observe", || sweep.observe_batch(&batch));
            }
            Ok(None) => break,
            Err(e) => return Run::decode_failed(completed, &e),
        }
    }
    let report = tracer.span("cache.finish", || sweep.finish());
    Run {
        completed,
        output: Ok(Output::Provision(report)),
    }
}

/// Flattens CBT blocks into requests for the replay feeder, with a
/// `trace.decode` span around each block. `LaneSet::run` takes
/// infallible requests, so a decode error ends the stream and is kept
/// for the caller.
struct TracedRequests<'a, 't> {
    reader: CbtSliceReader<'a>,
    tracer: &'t Tracer,
    buffer: Vec<IoRequest>,
    next: usize,
    error: Option<CbtError>,
}

impl<'a, 't> TracedRequests<'a, 't> {
    fn new(reader: CbtSliceReader<'a>, tracer: &'t Tracer) -> Self {
        TracedRequests {
            reader,
            tracer,
            buffer: Vec::new(),
            next: 0,
            error: None,
        }
    }
}

impl Iterator for TracedRequests<'_, '_> {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        while self.next == self.buffer.len() {
            let (reader, buffer) = (&mut self.reader, &mut self.buffer);
            let decoded = self.tracer.span("trace.decode", || {
                reader.read_batch_ref().map(|batch| {
                    batch.map(|b| {
                        buffer.clear();
                        buffer.extend(b.iter());
                    })
                })
            });
            match decoded {
                Ok(Some(())) => self.next = 0,
                Ok(None) => return None,
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            }
        }
        self.next += 1;
        Some(self.buffer[self.next - 1])
    }
}

/// `replay`: one CBT, every request due at once, replayed through one
/// lane onto an in-memory page store.
fn replay(blob: &[u8], tracer: &Tracer, registry: Option<&Registry>) -> Run {
    let mut lanes = LaneSet::new(WORKERS, |_| MemBackend::new()).with_timing(Timing::recorded());
    let mut reader = CbtSliceReader::new(blob);
    if let Some(r) = registry {
        lanes = lanes.with_registry(r);
        reader = reader.with_registry(r);
    }
    let mut source = TracedRequests::new(reader, tracer);
    let result = tracer.span("replay.run", || lanes.run(&mut source));
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            return Run {
                completed: 0,
                output: Err(format!("replay failed: {e}")),
            }
        }
    };
    let completed = report.merged.requests;
    if let Some(e) = source.error {
        return Run::decode_failed(completed, &e);
    }
    let pages = lanes.backends().iter().map(MemBackend::page_count).sum();
    Run {
        completed,
        output: Ok(Output::Replay { report, pages }),
    }
}

/// The `check.*` lines the parent compares with its reference, and
/// `repeat.*` lines that must not change between jobs.
fn checks(output: &Output) -> BTreeMap<String, String> {
    let mut lines = BTreeMap::new();
    let mut check = |key: &str, value: String| lines.insert(format!("check.{key}"), value);
    match output {
        Output::Characterize { metrics, verdicts } => {
            for (m, key) in metrics.iter().zip(["cloud", "msrc"]) {
                check(&format!("{key}_metrics"), sys::digest(&m[..]));
            }
            check("verdicts", sys::digest(&verdicts[..]));
            let requests: u64 = metrics.iter().flatten().map(VolumeMetrics::requests).sum();
            check("requests", requests.to_string());
        }
        Output::Provision(report) => {
            let lru = report
                .stats("lru", CHECKED_CAPACITY)
                .expect("the grid holds an exact LRU lane at the checked capacity");
            check(&format!("lru_{CHECKED_CAPACITY}"), cache_stats_line(&lru));
            check("accesses", report.accesses().to_string());
            check("requests", report.requests().to_string());
            let grid: Vec<_> = report
                .lanes()
                .iter()
                .map(|l| (&l.policy, l.capacity, l.sampled, l.stats))
                .collect();
            lines.insert("repeat.grid".into(), sys::digest(&grid[..]));
        }
        Output::Replay { report, pages } => {
            let merged = &report.merged;
            check("requests", merged.requests.to_string());
            check("bytes", merged.bytes.to_string());
            check("reads", merged.reads.to_string());
            check("writes", merged.writes.to_string());
            check("pages", pages.to_string());
        }
    }
    lines
}

fn counter(registry: Option<&Registry>, name: &str) -> f64 {
    registry.map_or(0.0, |r| r.counter(name).get() as f64)
}

/// Per-layer figures of a traced job; `wall` is the timed region in
/// nanoseconds.
fn layers(
    output: &Output,
    tracer: &Tracer,
    registry: Option<&Registry>,
    wall: f64,
    requests: f64,
) -> BTreeMap<&'static str, f64> {
    let span = |name| tracer.total_ns(name) as f64;
    let decode = span("trace.decode");
    let mut l = BTreeMap::new();
    l.insert("trace.decode_ns_per_req", decode / requests);
    l.insert("trace.decode_share", decode / wall);
    match output {
        Output::Characterize { metrics, .. } => {
            let backpressure = counter(registry, "stream.backpressure_nanos");
            let busy: f64 = (0..WORKERS)
                .map(|s| counter(registry, &format!("stream.shard{s}.analyze_nanos")))
                .sum();
            let route = (span("core.route") - backpressure).max(0.0);
            let wss: u64 = metrics.iter().flatten().map(|m| m.wss_blocks).sum();
            l.insert("core.route_ns_per_req", route / requests);
            l.insert("core.backpressure_share", backpressure / wall);
            l.insert("core.shard_busy_share", busy / (wall * WORKERS as f64));
            l.insert("core.finish_ms", span("core.finish") / 1e6);
            l.insert("analysis.findings_ms", span("analysis.findings") / 1e6);
            l.insert("analysis.wss_blocks", wss as f64);
        }
        Output::Provision(report) => {
            let (exact, sampled): (Vec<&LaneReport>, Vec<&LaneReport>) =
                report.lanes().iter().partition(|l| !l.sampled);
            let ns_per_access = |lanes: &[&LaneReport]| {
                let nanos: u64 = lanes.iter().map(|l| l.nanos).sum();
                let accesses: u64 = lanes.iter().map(|l| l.accesses).sum();
                nanos as f64 / accesses.max(1) as f64
            };
            l.insert("cache.expand_share", report.expand_nanos() as f64 / wall);
            l.insert(
                "cache.backpressure_share",
                counter(registry, "sweep.backpressure_nanos") / wall,
            );
            l.insert("cache.lru_ns_per_access", ns_per_access(&exact));
            l.insert("cache.sampled_ns_per_access", ns_per_access(&sampled));
            l.insert("cache.sampled_fraction", report.sampled_fraction());
        }
        Output::Replay { report, pages } => {
            let merged = &report.merged;
            let replay_wall = merged.wall_nanos as f64;
            let backend = merged.backend.sum as f64;
            let issue = (replay_wall - backend - merged.slept_nanos as f64).max(0.0);
            l.insert("replay.backend_share", backend / replay_wall);
            l.insert("replay.issue_ns_per_req", issue / requests);
            l.insert(
                "replay.feed_backpressure_share",
                report.feed_backpressure_nanos as f64 / replay_wall,
            );
            l.insert("replay.mem_pages", *pages as f64);
        }
    }
    l
}

/// Issue lag counted as on time.
const ONTIME_NANOS: u64 = 100_000;

/// The ×100 probe: the probe CBT replayed at its recorded timestamps,
/// 100 times faster, through one lane onto an in-memory page store.
fn replay_probe(blob: &[u8]) -> BTreeMap<&'static str, f64> {
    let registry = Registry::new();
    let mut lanes = LaneSet::new(WORKERS, |_| MemBackend::new())
        .with_timing(Timing::multiplier(100.0).expect("x100 is a supported multiplier"))
        .with_registry(&registry);
    let untraced = Tracer::new(false);
    let mut source = TracedRequests::new(CbtSliceReader::new(blob), &untraced);
    let report = lanes
        .run(&mut source)
        .expect("the x100 probe replays onto memory");
    assert!(
        source.error.is_none(),
        "the probe CBT is generated in-process and decodes"
    );
    let lag = registry.histogram("replay.issue_lag_nanos");
    // The largest quantile whose lag is still on time.
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..30 {
        let mid = (lo + hi) / 2.0;
        if lag.quantile(mid).unwrap_or(0) <= ONTIME_NANOS {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    BTreeMap::from([
        (
            "replay.x100.lag_p50_us",
            report.merged.issue_lag.p50 as f64 / 1e3,
        ),
        (
            "replay.x100.lag_p99_us",
            report.merged.issue_lag.p99 as f64 / 1e3,
        ),
        ("replay.x100.ontime_frac", lo),
    ])
}
