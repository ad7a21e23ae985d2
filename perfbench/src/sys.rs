//! Process-level measurements and the run manifest: CPU time, peak
//! resident memory, output digests, host and build identity.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hasher as _;
use std::process::Command;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage and /proc, so it targets 64-bit Linux");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process (every thread, live
/// or joined) since it started, in nanoseconds.
pub fn cpu_nanos() -> u64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the
    // kernel's `struct rusage` for 64-bit Linux (checked by the
    // `compile_error!` gate above), and `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let micros = |t: &Timeval| (t.sec as u64) * 1_000_000 + t.usec as u64;
    (micros(&usage.utime) + micros(&usage.stime)) * 1000
}

/// Seconds the calibration kernel takes on the reference host. A
/// speed factor of 1 means the host runs as fast as that one.
pub const CALIBRATION_REF_S: f64 = 0.1;

/// Runs a fixed kernel shaped like the workloads — random reads and
/// writes over a table larger than the caches, then hash-map inserts —
/// and returns its speed factor: its wall time over
/// [`CALIBRATION_REF_S`]. On a shared host, the speed of identical
/// jobs drifts with the neighbours' load; the factor measured next to
/// a job follows that drift.
pub fn host_slowdown() -> f64 {
    const TABLE: usize = 1 << 23;
    let clock = Instant::now();
    let mut table: Vec<u64> = (0..TABLE as u64).collect();
    let (mut x, mut sum) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..1 << 22 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 41) as usize % TABLE;
        sum = sum.wrapping_add(table[i]);
        table[i] ^= sum;
    }
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for k in 0..1u64 << 19 {
        *counts.entry(k.wrapping_mul(x) >> 20).or_insert(0) += k;
    }
    std::hint::black_box((sum, counts.len()));
    clock.elapsed().as_secs_f64() / CALIBRATION_REF_S
}

/// Peak resident set size (`VmHWM`) of this process, in KiB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// A stable digest of a value's `Debug` rendering, streamed through the
/// hasher without building the string. Parent and child run the same
/// binary, so equal digests mean equal renderings.
pub fn digest<T: std::fmt::Debug + ?Sized>(value: &T) -> String {
    struct HashWriter(std::collections::hash_map::DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut w = HashWriter(std::collections::hash_map::DefaultHasher::new());
    write!(w, "{value:?}").expect("hashing never fails");
    format!("{:016x}", w.0.finish())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        // Keep git from searching above the working directory.
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir().ok()?.parent()?,
        )
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Host, toolchain and source identity, as JSON object members.
pub fn host_manifest() -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let git_rev = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let git_dirty = command_line(
        "git",
        &[
            "--no-optional-locks",
            "status",
            "--porcelain",
            "--untracked-files=no",
        ],
    )
    .map_or("null", |s| if s.is_empty() { "false" } else { "true" });
    format!(
        "\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}, \
         \"git_rev\": {}, \"git_dirty\": {git_dirty}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&cpu_model),
        json_str(&kernel),
        json_str(&rustc),
        json_str(&git_rev),
    )
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
