//! What the run measured *on*: cores, thread budget, SIMD path, and the
//! process's own memory and CPU counters.

use gcs_metrics::Json;

/// Most load-generating threads, connections and ring ranks a workload
/// runs: `T = min(nproc, MAX_LOAD_THREADS)`.
pub const MAX_LOAD_THREADS: usize = 2;

/// The facts every output file records, so two files are only compared
/// when they were measured under the same generator settings.
#[derive(Clone, Debug, PartialEq)]
pub struct Environment {
    /// CPUs the process was allowed when it started.
    pub nproc: usize,
    /// Load threads / connections / ring ranks: `min(nproc, 2)`.
    pub t: usize,
    /// The one CPU the whole process runs on.
    pub cpu: usize,
    /// Threads the kernels' fork-join runtime uses (`GCS_THREADS`).
    pub gcs_threads: usize,
    /// Whether `gcs-tensor` dispatches to its AVX2 kernels.
    pub avx2: bool,
}

impl Environment {
    /// Reads the environment, confines the process to one CPU and pins
    /// `GCS_THREADS` to the one thread a one-CPU process would default to.
    /// Call before any thread is spawned (threads inherit the mask) and
    /// before the first kernel call (the fork-join runtime reads the
    /// variable once).
    ///
    /// Why one CPU when the issue sized the workloads for `T` busy threads:
    /// the two vCPUs of the box this runs on deliver, together, anywhere
    /// between one and two cores' worth of work, and the figure moves within
    /// minutes. Two busy Python processes took 0.88x to 1.94x the time of
    /// one; `agg_large` at `GCS_THREADS=2` on both CPUs spread 28 % (quartile
    /// distance over median, ten runs) in `rounds_per_s` and 45 % in its p95,
    /// `aggd_large` built a backlog at its reference rate in some runs and not
    /// in others, and `train_vgg` ran no faster than on one thread. Work that
    /// keeps one CPU busy at a time does not see the second CPU's weather.
    /// Ranks, streams and daemon threads still exist `T` at a time and
    /// time-share the CPU; the load generators are synchronous clients that
    /// sleep while the program works, so they take turns with it.
    pub fn detect() -> Result<Environment, String> {
        let allowed = allowed_cpus()?;
        // The last allowed CPU: CPU 0 takes most of the kernel's housekeeping.
        let cpu = *allowed.last().ok_or("the affinity mask is empty")?;
        set_affinity(&[cpu])?;
        std::env::set_var("GCS_THREADS", "1");
        let gcs_threads = gcs_tensor::parallel::max_threads();
        if gcs_threads != 1 {
            return Err(format!("the kernels run {gcs_threads} threads, not 1"));
        }
        Ok(Environment {
            nproc: allowed.len(),
            t: allowed.len().min(MAX_LOAD_THREADS),
            cpu,
            gcs_threads,
            avx2: gcs_tensor::simd::avx2_enabled(),
        })
    }

    /// Generator self-audit: a workload may not run more load threads or
    /// connections than `T`.
    pub fn audit_generator(&self, load_threads: usize, connections: usize) -> Result<(), String> {
        if load_threads > self.t || connections > self.t {
            return Err(format!(
                "generator audit: {load_threads} load threads / {connections} connections exceed T={}",
                self.t
            ));
        }
        Ok(())
    }

    /// The `env` object of an output file.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("T".into(), Json::Num(self.t as f64)),
            ("GCS_THREADS".into(), Json::Num(self.gcs_threads as f64)),
            ("pinned_cpu".into(), Json::Num(self.cpu as f64)),
            ("avx2".into(), Json::Bool(self.avx2)),
            // Every socket in this benchmark is 127.0.0.1: wire numbers
            // measure the program's framing and copies, not a link.
            ("network".into(), Json::Str("loopback".into())),
        ])
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Process CPU time consumed so far, all threads: `(user_s, system_s)`.
pub fn cpu_seconds() -> Result<(f64, f64), String> {
    // Linux reports utime/stime in USER_HZ ticks, fixed at 100 for every
    // supported architecture's userspace ABI.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Field 2 (comm) may contain spaces; fields resume after the last ')'.
    let after = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("malformed /proc/self/stat")?;
    let mut fields = after.split_whitespace();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime = fields.nth(11).and_then(|v| v.parse::<f64>().ok());
    let stime = fields.next().and_then(|v| v.parse::<f64>().ok());
    match (utime, stime) {
        (Some(u), Some(s)) => Ok((u / USER_HZ, s / USER_HZ)),
        _ => Err("no utime/stime in /proc/self/stat".into()),
    }
}

/// Process CPU seconds consumed so far by every thread, live or exited, as
/// the scheduler accounts them (`CLOCK_PROCESS_CPUTIME_ID`). The tick-sampled
/// `utime`/`stime` above misjudge threads that run in bursts shorter than a
/// tick — exactly what a polling daemon's io threads do.
pub fn process_cpu_seconds() -> Result<f64, String> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through `tp`,
    // which points at a live, exclusively borrowed `Timespec` whose layout
    // (two 64-bit fields) is `struct timespec` on every 64-bit Linux target
    // this benchmark builds for; the function has no other effect.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed".into());
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Words of the affinity masks below: 1024 CPUs, the kernel's `CPU_SETSIZE`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `sched_getaffinity(0, ..)` writes at most `cpusetsize` bytes
    // through `mask`, here the whole of a live, exclusively borrowed local
    // array, and has no other effect on this program.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".into());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread — and every thread it spawns from now on,
/// which inherit the mask — to `cpus`.
fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        let word = mask
            .get_mut(cpu / 64)
            .ok_or_else(|| format!("cpu {cpu} is beyond the affinity mask"))?;
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: `sched_setaffinity(0, ..)` reads `cpusetsize` bytes from
    // `mask`, here the whole of a live local array, and changes only the
    // calling thread's scheduling; it touches no memory of this program.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity({cpus:?}) failed"));
    }
    Ok(())
}

/// CPU seconds `(user, system)` spent between a [`CpuMark::start`] and
/// [`CpuMark::elapsed`].
pub struct CpuMark {
    user: f64,
    sys: f64,
}

impl CpuMark {
    /// Marks the start of a timed section.
    pub fn start() -> Result<CpuMark, String> {
        let (user, sys) = cpu_seconds()?;
        Ok(CpuMark { user, sys })
    }

    /// `(user_s, system_s)` since the mark.
    pub fn elapsed(&self) -> Result<(f64, f64), String> {
        let (user, sys) = cpu_seconds()?;
        Ok((user - self.user, sys - self.sys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable_and_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        let (u, s) = cpu_seconds().unwrap();
        assert!(u >= 0.0 && s >= 0.0);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let before = process_cpu_seconds().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let after = process_cpu_seconds().unwrap();
        assert!(after > before, "{before} -> {after} ({x})");
    }

    #[test]
    fn the_pinned_cpu_comes_from_the_allowed_set() {
        let allowed = allowed_cpus().unwrap();
        assert!(!allowed.is_empty());
        assert!(allowed.windows(2).all(|w| w[0] < w[1]));
        // Re-applying the current mask is always permitted; a CPU beyond the
        // mask is refused before the system call.
        set_affinity(&allowed).unwrap();
        assert!(set_affinity(&[MASK_WORDS * 64]).is_err());
    }

    #[test]
    fn audit_refuses_more_load_than_t() {
        let env = Environment {
            nproc: 2,
            t: 2,
            cpu: 1,
            gcs_threads: 1,
            avx2: false,
        };
        assert!(env.audit_generator(2, 2).is_ok());
        assert!(env.audit_generator(3, 2).is_err());
        assert!(env.audit_generator(1, 16).is_err());
    }
}
