//! Small helpers with no dependency on the code under test: a seeded RNG,
//! order statistics, the input hash, the machine fingerprint and the CPU pin.

use std::hint::black_box;
use std::time::Instant;

/// SplitMix64: every input the benchmark generates comes from one of these,
/// seeded from `--seed`, so the same seed yields the same bytes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a sequence of byte strings (each terminated, so
/// `["ab","c"]` and `["a","bc"]` differ).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes.iter().chain(std::iter::once(&0xff)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a value's `Debug` rendering: the edit and coord runs keep
/// this per delta instead of the delta itself, so memory does not grow with
/// the number of operations.
pub fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    Fnv::default().add(format!("{value:?}").as_bytes()).finish()
}

/// Nearest-rank quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Per-op latencies of a timed phase: each op's class and its latency (µs).
/// Every op of the phase counts: no span of it is dropped, so a program
/// that slows down as the run goes on is measured as it is.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ops: Vec<(usize, f64)>,
}

impl Latencies {
    pub fn push(&mut self, class: usize, us: f64) {
        self.ops.push((class, us));
    }

    /// Latencies of the ops whose class passes `keep`.
    pub fn of(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|&&(class, _)| keep(class))
            .map(|&(_, us)| us)
            .collect()
    }

    /// Ops per second of busy time: one over the mean latency.
    pub fn ops_per_s(&self) -> f64 {
        let total_us: f64 = self.ops.iter().map(|op| op.1).sum();
        ratio(1e6 * self.ops.len() as f64, total_us)
    }

    /// Geometric mean latency (ms), each class weighted equally.
    pub fn geomean_ms(&self) -> f64 {
        let classes = self.ops.iter().map(|op| op.0 + 1).max().unwrap_or(0);
        let per_class: Vec<f64> = (0..classes)
            .map(|c| self.of(|k| k == c))
            .filter(|xs| !xs.is_empty())
            .map(|xs| geomean(&xs))
            .collect();
        geomean(&per_class) / 1e3
    }
}

/// Prints the latency tail with its sample count.  The tail is reported
/// but not bounded: on a shared two-core machine it is set by scheduler
/// preemptions more than by the program.
pub fn print_tail(us: &[f64]) {
    println!(
        "latency over {} samples: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us ({} beyond it)",
        us.len(),
        median(us),
        quantile(us, 0.9),
        quantile(us, 0.99),
        us.len() / 100
    );
}

/// `a / b`, or 0 when nothing was measured (`b` is 0): a per-layer metric
/// of a layer the run did not call.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins this process to the CPU it is running on; threads and child
/// processes started afterwards inherit the pin.  The edit and coord
/// workloads hand each op between client, server threads and worker
/// processes: on one CPU every hand-off is a context switch, while across
/// CPUs it wakes an idle vCPU, whose latency on a shared host varies with
/// the host's load more than with the program.  Returns the CPU, or `None`
/// where pinning is not available.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the CPU id.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // glibc's `cpu_set_t`: a 1024-bit mask.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 is this
    // thread, and threads started later copy its mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// The machine fingerprint printed with every result: hardware threads and
/// the best of five runs of a fixed integer loop, so figures from different
/// machines can be normalised.
pub fn machine_fingerprint() -> (usize, f64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let calibration_ns = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x1234_5678_u64);
            for _ in 0..(1u32 << 22) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    (nproc, calibration_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn latency_summaries() {
        let mut lat = Latencies::default();
        for i in 0..1000 {
            lat.push(i % 2, 10.0 * (1 + i % 2) as f64);
        }
        assert_eq!(lat.of(|c| c == 0), vec![10.0; 500]);
        assert!((lat.geomean_ms() * 1e3 - (10.0f64 * 20.0).sqrt()).abs() < 1e-9);
        assert!((lat.ops_per_s() - 1e6 / 15.0).abs() < 1e-6);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
