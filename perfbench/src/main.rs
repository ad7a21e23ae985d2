//! `cbs-perfbench`: the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload characterize --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run sets up the workload's input from `--seed` several times
//! (reporting the median set-up time), computes the reference outputs
//! once, then runs the timed job in fresh child processes until
//! `--seconds` have passed, checking every job's outputs. It prints a
//! readable summary, a manifest line, and as its last line one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). The exit code is 0 only when
//! every job completed every request with correct outputs.
//!
//! See `perfbench/README.md` for the workloads and the metrics.

mod input;
mod job;
mod spans;
mod sys;

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use input::{Scale, Workload};
use spans::Tracer;

/// End-to-end metrics, printed by an untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("rps", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by a traced run.
const PER_LAYER: [(&str, &str); 26] = [
    ("trace.decode_ns_per_req", "ns"),
    ("trace.decode_share", "ratio"),
    ("trace.encode_s", "s"),
    ("core.route_ns_per_req", "ns"),
    ("core.backpressure_share", "ratio"),
    ("core.shard_busy_share", "ratio"),
    ("core.finish_ms", "ms"),
    ("analysis.ns_per_req", "ns"),
    ("analysis.findings_ms", "ms"),
    ("analysis.wss_blocks", "count"),
    ("cache.reuse_compactions", "count"),
    ("cache.expand_share", "ratio"),
    ("cache.backpressure_share", "ratio"),
    ("cache.lru_ns_per_access", "ns"),
    ("cache.sampled_ns_per_access", "ns"),
    ("cache.sampled_fraction", "ratio"),
    ("replay.backend_share", "ratio"),
    ("replay.issue_ns_per_req", "ns"),
    ("replay.feed_backpressure_share", "ratio"),
    ("replay.mem_pages", "count"),
    ("replay.x100.lag_p50_us", "us"),
    ("replay.x100.lag_p99_us", "us"),
    ("replay.x100.ontime_frac", "ratio"),
    ("synth.gen_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unattributed_share", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed jobs per run (per kind, in a traced run).
const MIN_JOBS: usize = 3;
/// Most timed jobs per run.
const MAX_JOBS: usize = 200;
/// Where traced jobs write their spans, relative to the working
/// directory.
const SPANS_DIR: &str = ".bench_build/perfbench-spans";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    /// Self-test fault injection: flip one byte in the middle of the
    /// first CBT input after the reference is computed.
    flip_byte: bool,
    /// Internal: run one job as a child process.
    job: bool,
    spans_out: Option<String>,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "perfbench: {problem}\nusage: cbs-perfbench --workload characterize|provision|replay \
         --seed N --seconds N --trace 0|1 [--scale full|tiny] [--flip-byte]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::Characterize,
        seed: 1,
        seconds: 20,
        trace: false,
        scale: Scale::FULL,
        flip_byte: false,
        job: false,
        spans_out: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" | "--job" => {
                let name = value();
                args.job |= flag == "--job";
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--scale" => {
                args.scale = match value().as_str() {
                    "full" => Scale::FULL,
                    "tiny" => Scale::TINY,
                    _ => usage("--scale takes full or tiny"),
                };
            }
            "--flip-byte" => args.flip_byte = true,
            "--spans-out" => args.spans_out = Some(value()),
            _ => usage(&format!("unknown argument {flag:?}")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    args
}

fn main() {
    let args = parse_args();
    if args.job {
        job::run_child(args.workload, args.trace, args.spans_out.as_deref());
        return;
    }
    std::process::exit(run(&args));
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile range over the median, with quartiles computed as
/// Python's `statistics.quantiles(values, n=4)` does.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (n, m) = (4usize, v.len() + 1);
    let quartile = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (quartile(3) - quartile(1)) / median(values)
}

/// One finished job as the parent sees it.
struct JobReport {
    traced: bool,
    lines: BTreeMap<String, String>,
    /// Host slowdown around the job: the mean of the calibrations
    /// just before and just after it.
    slowdown: f64,
}

impl JobReport {
    fn number(&self, key: &str) -> f64 {
        self.lines
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }
}

/// Runs one job in a child process; `None` if it died or printed no
/// result.
fn spawn_job(
    workload: Workload,
    traced: bool,
    spans_out: Option<&str>,
    blobs: &[&[u8]],
) -> Option<JobReport> {
    let exe = std::env::current_exe().expect("the running benchmark has a path");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--job",
        workload.name(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if let Some(path) = spans_out {
        std::fs::create_dir_all(SPANS_DIR).ok()?;
        cmd.args(["--spans-out", path]);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn a job process");
    let fed = job::write_blobs(&mut child.stdin.take().expect("stdin is piped"), blobs);
    let output = child.wait_with_output().expect("wait for the job process");
    if fed.is_err() || !output.status.success() {
        eprintln!("perfbench: job process failed ({})", output.status);
        return None;
    }
    let lines: BTreeMap<String, String> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    lines.contains_key("completed").then_some(JobReport {
        traced,
        lines,
        slowdown: 1.0,
    })
}

/// Requests a finished job did not complete correctly: those it left
/// unprocessed, or all of them when an output differs from the
/// reference or from the first job's.
fn job_failures(
    report: &JobReport,
    requests: u64,
    reference: &input::Reference,
    first_repeat: &mut BTreeMap<String, String>,
) -> u64 {
    let completed = (report.number("completed") as u64).min(requests);
    if completed < requests || report.lines.contains_key("error") {
        return (requests - completed).max(1);
    }
    let mut ok = true;
    for (key, want) in &reference.checks {
        let got = report.lines.get(key);
        if got != Some(want) {
            eprintln!("perfbench: output check {key} failed: want {want}, got {got:?}");
            ok = false;
        }
    }
    for (key, got) in report
        .lines
        .iter()
        .filter(|(k, _)| k.starts_with("repeat."))
    {
        let want = first_repeat
            .entry(key.clone())
            .or_insert_with(|| got.clone());
        if want != got {
            eprintln!("perfbench: {key} differs from the first job's: {want} then {got}");
            ok = false;
        }
    }
    if ok {
        0
    } else {
        requests
    }
}

/// A workload's input after set-up, with its reference outputs.
struct Prepared {
    workload: Workload,
    /// Set-up seconds, normalized to the reference host speed.
    setup_s: Vec<f64>,
    gen_s: Vec<f64>,
    encode_s: Vec<f64>,
    reference: input::Reference,
    requests: u64,
    blobs: Vec<Vec<u8>>,
}

/// Sets up `workload` `setups` times (every set-up must produce the
/// same bytes) and computes the reference outputs once.
fn prepare(
    workload: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
    setups: usize,
) -> Result<Prepared, String> {
    let (mut setup_s, mut gen_s, mut encode_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut inputs: Option<input::Inputs> = None;
    let mut slowdown = sys::host_slowdown();
    for _ in 0..setups {
        let tracer = Tracer::new(true);
        let clock = Instant::now();
        let generated = input::generate(workload, seed, scale, &tracer)?;
        let secs = clock.elapsed().as_secs_f64();
        let next = sys::host_slowdown();
        setup_s.push(secs / ((slowdown + next) / 2.0));
        slowdown = next;
        gen_s.push(tracer.total_ns("synth.gen") as f64 / 1e9);
        encode_s.push(tracer.total_ns("trace.encode") as f64 / 1e9);
        match &inputs {
            Some(first) if first.blobs != generated.blobs => {
                return Err(format!("set-up is not deterministic for seed {seed}"));
            }
            Some(_) => {}
            None => inputs = Some(generated),
        }
    }
    let inputs = inputs.expect("at least one set-up");
    let reference = input::reference(workload, &inputs, traced);
    let requests = inputs.requests();
    let mut blobs = inputs.blobs;
    if traced && workload == Workload::Replay {
        blobs.push(input::replay_probe(seed, scale));
    }
    Ok(Prepared {
        workload,
        setup_s,
        gen_s,
        encode_s,
        reference,
        requests,
        blobs,
    })
}

/// Jobs run on one prepared input.
#[derive(Default)]
struct Jobs {
    attempted: u64,
    failed: u64,
    reports: Vec<JobReport>,
}

/// Runs jobs until `seconds` have passed and at least `min_jobs` ran;
/// `traced(job)` says which ones trace. A failed job ends the loop: its
/// result is wrong, not slow.
fn run_jobs(
    prepared: &Prepared,
    min_jobs: usize,
    seconds: f64,
    traced: impl Fn(usize) -> bool,
    spans_out: Option<&str>,
) -> Jobs {
    let blobs: Vec<&[u8]> = prepared.blobs.iter().map(Vec::as_slice).collect();
    let requests = prepared.requests;
    let mut jobs = Jobs::default();
    let mut first_repeat = BTreeMap::new();
    let clock = Instant::now();
    let mut last_job = Duration::ZERO;
    let mut slowdown = sys::host_slowdown();
    for job in 0..MAX_JOBS {
        // Start no job that would end past `seconds`.
        if job >= min_jobs && (clock.elapsed() + last_job).as_secs_f64() > seconds {
            break;
        }
        let job_clock = Instant::now();
        let traced = traced(job);
        jobs.attempted += requests;
        let spans_out = spans_out.filter(|_| traced);
        let report = spawn_job(prepared.workload, traced, spans_out, &blobs);
        let next = sys::host_slowdown();
        match report {
            Some(mut report) => {
                report.slowdown = (slowdown + next) / 2.0;
                match job_failures(&report, requests, &prepared.reference, &mut first_repeat) {
                    0 => jobs.reports.push(report),
                    n => jobs.failed += n,
                }
            }
            None => jobs.failed += requests,
        }
        if jobs.failed > 0 {
            break;
        }
        slowdown = next;
        last_job = job_clock.elapsed();
    }
    jobs
}

fn run(args: &Args) -> i32 {
    let workload = args.workload;
    let mut main = match prepare(workload, args.seed, args.scale, args.trace, SETUP_REPS) {
        Ok(prepared) => prepared,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return 2;
        }
    };
    if args.flip_byte {
        let blob = &mut main.blobs[0];
        let middle = blob.len() / 2;
        blob[middle] ^= 0x5a;
    }
    let requests = main.requests;

    // A traced run alternates traced and untraced jobs so that it can
    // measure tracing overhead.
    let spans_out = format!("{SPANS_DIR}/{}-seed{}.json", workload.name(), args.seed);
    let jobs = if args.trace {
        run_jobs(
            &main,
            2 * MIN_JOBS,
            args.seconds as f64,
            |job| job % 2 == 0,
            Some(&spans_out),
        )
    } else {
        run_jobs(&main, MIN_JOBS, args.seconds as f64, |_| false, None)
    };
    let (mut attempted, mut failed) = (jobs.attempted, jobs.failed);

    // Times are normalized to the reference host speed: a job that ran
    // while the host was 20 % slow counts 20 % less wall and CPU time.
    let rps_of = |r: &&JobReport| requests as f64 / (r.number("wall_ns") / 1e9 / r.slowdown);
    let untraced: Vec<&JobReport> = jobs.reports.iter().filter(|r| !r.traced).collect();
    let rps: Vec<f64> = untraced.iter().map(rps_of).collect();
    let cpu_s: Vec<f64> = untraced
        .iter()
        .map(|r| r.number("cpu_ns") / 1e9 / r.slowdown)
        .collect();
    let raw_rps: Vec<f64> = untraced
        .iter()
        .map(|r| requests as f64 / (r.number("wall_ns") / 1e9))
        .collect();
    let slowdowns: Vec<f64> = jobs.reports.iter().map(|r| r.slowdown).collect();
    let rss_mb: Vec<f64> = untraced
        .iter()
        .map(|r| r.number("rss_kb") / 1024.0)
        .collect();

    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    let spreads = if args.trace {
        let traced: Vec<&JobReport> = jobs.reports.iter().filter(|r| r.traced).collect();
        let traced_rps: Vec<f64> = traced.iter().map(rps_of).collect();
        let mut layers = layer_medians(&traced, &main.reference);
        layers.insert("synth.gen_s", median(&main.gen_s));
        layers.insert("trace.encode_s", median(&main.encode_s));
        let overhead = if rps.is_empty() || traced_rps.is_empty() {
            0.0
        } else {
            1.0 - median(&traced_rps) / median(&rps)
        };
        layers.insert("bench.trace_overhead_frac", overhead);
        // Layers this workload does not run are measured by one tiny
        // traced job of each other workload, so that every per-layer
        // metric is measured in every traced run.
        for other in Workload::ALL.into_iter().filter(|&w| w != workload) {
            let probe = match prepare(other, args.seed, Scale::TINY, true, 1) {
                Ok(prepared) => prepared,
                Err(e) => {
                    eprintln!(
                        "perfbench: set-up of the {} probe failed: {e}",
                        other.name()
                    );
                    return 2;
                }
            };
            let probe_jobs = run_jobs(&probe, 1, 0.0, |_| true, None);
            attempted += probe_jobs.attempted;
            failed += probe_jobs.failed;
            let probe_reports: Vec<&JobReport> = probe_jobs.reports.iter().collect();
            for (name, value) in layer_medians(&probe_reports, &probe.reference) {
                layers.entry(name).or_insert(value);
            }
        }
        for (name, _) in PER_LAYER {
            metrics.insert(name, layers.get(name).copied().unwrap_or(0.0));
        }
        vec![("traced_rps", spread(&traced_rps)), ("rps", spread(&rps))]
    } else {
        metrics.insert("rps", median(&rps));
        metrics.insert("cpu_s", median(&cpu_s));
        metrics.insert("peak_rss_mb", median(&rss_mb));
        metrics.insert("setup_s", median(&main.setup_s));
        vec![
            ("rps", spread(&rps)),
            ("raw_rps", spread(&raw_rps)),
            ("cpu_s", spread(&cpu_s)),
            ("peak_rss_mb", spread(&rss_mb)),
            ("setup_s", spread(&main.setup_s)),
        ]
    };
    let correct = failed == 0;
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };

    // Readable summary.
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "{} seed {} ({} jobs of {requests} requests, trace {}):",
        workload.name(),
        args.seed,
        jobs.reports.len(),
        u8::from(args.trace)
    );
    for (name, unit) in listed {
        println!("  {name:<32} {:>16.6} {unit}", metrics[name]);
    }
    println!(
        "  {:<32} {fail_frac:>16.6} ratio ({failed} of {attempted} requests)",
        "fail_frac"
    );

    let spread_json: Vec<String> = spreads
        .iter()
        .map(|(name, s)| format!("\"{name}\": {s}"))
        .collect();
    let per_workload = |value: &dyn Fn(Workload) -> usize| {
        let members: Vec<String> = Workload::ALL
            .iter()
            .map(|&w| format!("\"{}\": {}", w.name(), value(w)))
            .collect();
        format!("{{{}}}", members.join(", "))
    };
    let scale = args.scale;
    println!(
        "{{\"manifest\": {{{}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"threads_per_workload\": {}, \"requests_per_job\": {}, \
         \"working_set_blocks\": {}, \"jobs\": {}, \"setups\": {SETUP_REPS}, \
         \"fail_frac\": {fail_frac}, \"raw_rps\": {}, \"host_slowdown\": {}, \
         \"spread_iqr_over_median\": {{{}}}}}}}",
        sys::host_manifest(),
        workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        per_workload(&|_| job::WORKERS + 1),
        per_workload(&|w| scale.requests(w)),
        main.reference.working_set_blocks,
        jobs.reports.len(),
        median(&raw_rps),
        median(&slowdowns),
        spread_json.join(", ")
    );

    let metric_json: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                metrics[name]
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metric_json.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Median of each `layer.*` figure over `reports`, plus the figures
/// measured on the reference path.
fn layer_medians(
    reports: &[&JobReport],
    reference: &input::Reference,
) -> BTreeMap<&'static str, f64> {
    let mut layers: BTreeMap<&'static str, f64> = reference.layers.clone();
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.lines.get(&format!("layer.{name}")))
            .filter_map(|v| v.parse().ok())
            .collect();
        if !values.is_empty() {
            layers.insert(name, median(&values));
        }
    }
    layers
}
