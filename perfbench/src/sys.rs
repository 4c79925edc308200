//! Process-level measurements taken from the kernel: CPU time and context
//! switches from `getrusage`, resident memory and thread count from `/proc`.
//!
//! Linux only. Memory is read from the kernel rather than from a counting
//! allocator, so the figures carry no per-allocation tax.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use genealog_metrics::{MetricsRegistry, SampleValue};

/// `struct rusage` on 64-bit Linux: two `timeval`s followed by fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time and context switches of the whole process, every thread included
/// (also threads that have already exited).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time, in seconds.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// Reads the current usage of this process.
    pub fn now() -> Usage {
        let mut raw = RUsage::default();
        // SAFETY: `raw` is a valid, writable `struct rusage` for 64-bit Linux
        // (layout above) that outlives the call; RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
        );
        let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Usage {
            cpu_s: seconds(raw.utime) + seconds(raw.stime),
            // ru_nvcsw and ru_nivcsw are the last two longs.
            ctx_switches: (raw.longs[12] + raw.longs[13]) as u64,
        }
    }

    /// The usage accumulated since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {name} field"))
}

/// Peak resident set size of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// Current resident set size (`/proc/self/statm`, second field), in megabytes.
fn rss_mb() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("statm has a resident field");
    // Linux pages are 4 KiB on every target this benchmark supports.
    pages as f64 * 4096.0 / (1024.0 * 1024.0)
}

/// What the sampler observed over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampled {
    /// Mean of the resident-set samples, in megabytes.
    pub avg_rss_mb: f64,
    /// Largest sum over channels of queued elements (traced runs only).
    pub queue_depth_max: u64,
    /// Largest thread count seen, minus the main and sampler threads (traced
    /// runs only).
    pub threads_max: u64,
}

/// The benchmark's one extra thread: samples resident memory every few
/// milliseconds, and in traced runs also the channel depths and thread count.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Sampled>,
}

const SAMPLE_EVERY: Duration = Duration::from_millis(5);

fn queue_depth(registry: &MetricsRegistry) -> u64 {
    registry
        .snapshot()
        .iter()
        .filter(|s| s.name == "genealog_channel_queue_depth")
        .map(|s| match s.value {
            SampleValue::Gauge(v) => v,
            _ => 0,
        })
        .sum()
}

impl Sampler {
    /// Starts sampling; `registry` is the running query's registry in traced
    /// runs and `None` otherwise.
    pub fn start(registry: Option<Arc<MetricsRegistry>>) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (mut sum, mut n) = (0.0, 0u64);
            let mut out = Sampled::default();
            loop {
                let last = flag.load(Ordering::Relaxed);
                sum += rss_mb();
                n += 1;
                if let Some(registry) = &registry {
                    out.queue_depth_max = out.queue_depth_max.max(queue_depth(registry));
                    out.threads_max = out
                        .threads_max
                        .max(status_field("Threads:").saturating_sub(2));
                }
                if last {
                    break;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
            out.avg_rss_mb = sum / n as f64;
            out
        });
        Sampler { stop, handle }
    }

    /// Takes a last sample, stops the thread and returns what it saw.
    pub fn finish(self) -> Sampled {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .expect("the sampler thread does not panic")
    }
}
