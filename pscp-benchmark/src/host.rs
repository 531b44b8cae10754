//! What every result records about the machine it ran on.

use crate::record::Host;

/// The host record: processors online, available parallelism, CPU
/// model, the compiler the benchmark was built with, and the commit of
/// the checkout it runs in (`unknown` outside a git checkout).
pub fn host() -> Host {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == name).then(|| v.trim().to_string())
        })
    };
    let processors = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count() as u64;
    let available = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    Host {
        nproc: if processors > 0 {
            processors
        } else {
            available
        },
        available_parallelism: available,
        cpu_model: field("model name").unwrap_or_else(|| "unknown".to_string()),
        rustc: env!("PSCP_BENCHMARK_RUSTC").to_string(),
        git_commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
    }
}

/// The commit `.git/HEAD` in the working directory resolves to. Reads
/// the checkout's own metadata only; never walks up the tree.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(loose) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(loose.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time every thread of this process has used so far, in seconds.
/// Time the hypervisor steals from the virtual CPUs is not in it, so on
/// a shared host it follows the work done rather than the neighbours'
/// load.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
