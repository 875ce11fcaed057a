//! Host-speed calibration. The benchmark's host is a few vCPUs of a
//! shared machine whose speed drifts by a fifth or more over minutes,
//! in CPU time as well as wall time: other guests contend for the
//! physical cores, caches and memory, and thread wake-ups cost more
//! when the host is busy. A run therefore times a fixed reference
//! kernel — code of the benchmark's own, never the library's —
//! interleaved with its operations, and scales its CPU times by how
//! fast that kernel ran. A change to the library cannot move the
//! kernel, so it moves the scaled times as it moves the raw ones; a
//! slow spell on the host moves both the kernel and the operations, and
//! largely cancels.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

use crate::host;
use crate::metrics::median;

/// The reference kernel's typical median CPU time on the host the
/// benchmark was written on (a 2-vCPU Xeon guest: 10-12 ms), so scaled
/// times read about as raw times did there. On another host they differ
/// from raw times by a factor, which cancels in any comparison of runs
/// on that host.
pub const REFERENCE_MS: f64 = 11.0;

/// Words in the kernel's random-access table (16 MiB): larger than a
/// core's caches, so the kernel feels memory contention as the
/// workloads do.
const TABLE_WORDS: usize = 1 << 21;

/// Runs the reference kernel and keeps its CPU times.
pub struct Calibrator {
    table: Vec<u64>,
    samples_ms: Vec<f64>,
    /// The two parts of each sample: computing, and waking threads.
    pub compute_ms: Vec<f64>,
    pub wake_ms: Vec<f64>,
    state: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let table = (0..TABLE_WORDS).map(|_| xorshift(&mut state)).collect();
        Calibrator {
            table,
            samples_ms: Vec::new(),
            compute_ms: Vec::new(),
            wake_ms: Vec::new(),
            state,
        }
    }

    /// Run the kernel `times` times, timing each part on the CPU clocks
    /// of the threads that run it.
    pub fn sample(&mut self, times: usize) {
        for _ in 0..times {
            let start = host::thread_cpu_s();
            std::hint::black_box(self.compute());
            let compute = (host::thread_cpu_s() - start) * 1e3;
            let wake = ping_pong(WAKE_ROUND_TRIPS);
            self.compute_ms.push(compute);
            self.wake_ms.push(wake);
            self.samples_ms.push(compute + wake);
        }
    }

    /// CPU milliseconds all kernel runs so far took, to take out of
    /// process CPU times that cover them.
    pub fn spent_ms(&self) -> f64 {
        self.samples_ms.iter().sum()
    }

    /// Median CPU milliseconds of one kernel run (0 before any run).
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// Factor that turns this run's times into reference-host times:
    /// [`REFERENCE_MS`] over the kernel's median.
    pub fn scale(&self) -> f64 {
        let k = self.kernel_ms();
        if k > 0.0 {
            REFERENCE_MS / k
        } else {
            1.0
        }
    }

    /// The kernel's computing part, a mix of what the workloads spend
    /// their time on: many small allocations, a large buffer written
    /// and read back (page faults and memory bandwidth), sorting,
    /// hashing into a map larger than the first-level caches,
    /// formatting and parsing numbers as text, and dependent loads from
    /// a table larger than the caches.
    fn compute(&mut self) -> u64 {
        let s = &mut self.state;
        let names: Vec<String> = (0..8_192)
            .map(|i| format!("node-{i}-{}", xorshift(s) % 97))
            .collect();
        let mut acc = names.iter().map(|n| n.len() as u64).sum::<u64>();
        drop(names);

        let mut big = vec![0u64; 1 << 20];
        for (i, w) in big.iter_mut().enumerate() {
            *w = i as u64 ^ acc;
        }
        acc ^= big.iter().fold(0u64, |a, &w| a.wrapping_add(w));
        drop(big);

        let mut v: Vec<u64> = (0..32_768).map(|_| xorshift(s)).collect();
        v.sort_unstable();
        acc ^= v[v.len() / 2];

        let mut map: HashMap<u64, u32> = HashMap::new();
        for i in 0..32_768u32 {
            *map.entry(xorshift(s) % 16_384).or_default() += i;
        }
        acc ^= map.len() as u64;

        let mut text = String::new();
        for _ in 0..4_096 {
            let _ = write!(text, "{} ", xorshift(s) % 1_000_000);
        }
        acc ^= text
            .split_whitespace()
            .filter_map(|w| w.parse::<u64>().ok())
            .sum::<u64>();

        let mask = self.table.len() - 1;
        let mut at = (xorshift(s) as usize) & mask;
        for _ in 0..20_000 {
            at = (self.table[at] as usize ^ at) & mask;
        }
        acc ^ at as u64
    }
}

/// Round trips of the kernel's wake-up part.
const WAKE_ROUND_TRIPS: usize = 200;

/// Bounce a small message between this thread and a helper over a
/// socket pair `trips` times; returns the CPU milliseconds both threads
/// spent. Each trip blocks and wakes a thread twice, as a request to
/// an in-process server does.
fn ping_pong(trips: usize) -> f64 {
    let (mut a, mut b) = UnixStream::pair().expect("socketpair");
    let start = host::thread_cpu_s();
    let helper_ms = std::thread::scope(|s| {
        let helper = s.spawn(move || {
            let start = host::thread_cpu_s();
            let mut buf = [0u8; 64];
            for _ in 0..trips {
                b.read_exact(&mut buf).expect("ping");
                b.write_all(&buf).expect("pong");
            }
            (host::thread_cpu_s() - start) * 1e3
        });
        let mut buf = [7u8; 64];
        for _ in 0..trips {
            a.write_all(&buf).expect("ping");
            a.read_exact(&mut buf).expect("pong");
        }
        helper.join().expect("helper thread")
    });
    (host::thread_cpu_s() - start) * 1e3 + helper_ms
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_kept_and_scale_is_reference_over_median() {
        let mut c = Calibrator::new();
        assert_eq!(c.scale(), 1.0, "no sample yet: no scaling");
        c.sample(3);
        assert_eq!((c.compute_ms.len(), c.wake_ms.len()), (3, 3));
        let k = c.kernel_ms();
        assert!(k > 0.0);
        assert!(c.spent_ms() >= 3.0 * k * 0.5);
        assert!((c.scale() - REFERENCE_MS / k).abs() < 1e-12);
    }
}
