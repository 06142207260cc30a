//! Host speed: a fixed CPU kernel of the benchmark's own, timed beside the
//! workload.
//!
//! On the shared two-core virtual machine the benchmark is sized for, the
//! same work (identical effort counters) ran up to 1.8× slower from one
//! minute to the next. Durations of work are therefore reported at a
//! reference host speed, [`REFERENCE_PASS_MS`] per kernel pass. A set-up is
//! scaled by passes timed right after it in the same thread
//! ([`local_pass_ms`]); a timed phase by the mean speed a sampler thread saw
//! while it ran ([`HostSpeed`]), which for the one-thread workloads shares
//! the work's one CPU. A slower program moves the scaled numbers; a slower
//! host, which slows the kernel as much, does not. The kernel never calls
//! into the workspace, so no program change can move it.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::stats;
use crate::sys;

/// Time of one kernel pass at the reference speed: about what the two-vCPU
/// virtual machine the benchmark is sized for takes when its host is quiet.
pub const REFERENCE_PASS_MS: f64 = 0.3;

/// Kernel passes timed after each set-up.
const LOCAL_PASSES: usize = 5;

/// Pause between two kernel passes of the sampler.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Order of the dense matrix each pass factorizes.
const N: usize = 64;

/// Numbers each pass formats and parses back.
const TEXT_NUMBERS: usize = 500;

/// Keys each pass hashes into an ordered map.
const MAP_KEYS: usize = 1200;

/// One pass: a dense LU factorization with partial pivoting (like the
/// barrier's KKT solves and the simplex tableaux), formatting and parsing
/// floats (like the JSON codecs), and hashing keys into an ordered map (like
/// fingerprints and the stores). Returns a checksum so nothing is elided.
pub fn pass(salt: u64) -> f64 {
    let mut rng = stats::Rng::new(salt);
    let mut unit = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;

    let mut a: Vec<f64> = (0..N * N).map(|_| unit() - 0.5).collect();
    for i in 0..N {
        a[i * N + i] += N as f64 / 4.0;
    }
    let mut det_log = 0.0;
    for k in 0..N {
        let p = (k..N)
            .max_by(|&r, &s| a[r * N + k].abs().total_cmp(&a[s * N + k].abs()))
            .expect("a non-empty column");
        if p != k {
            for j in 0..N {
                a.swap(k * N + j, p * N + j);
            }
        }
        let pivot = a[k * N + k];
        det_log += pivot.abs().ln();
        for r in k + 1..N {
            let factor = a[r * N + k] / pivot;
            for j in k..N {
                a[r * N + j] -= factor * a[k * N + j];
            }
        }
    }

    let mut text = String::new();
    for _ in 0..TEXT_NUMBERS {
        let _ = write!(text, "{},", unit() * 1e3);
    }
    let parsed: f64 = text
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<f64>().expect("formatted floats parse"))
        .sum();

    let mut map = BTreeMap::new();
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
    for i in 0..MAP_KEYS as u64 {
        for byte in i.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        *map.entry(h % 1024).or_insert(0u64) += i;
    }
    det_log + parsed + map.len() as f64
}

/// Median time in milliseconds of [`LOCAL_PASSES`] kernel passes run now, in
/// the calling thread.
pub fn local_pass_ms() -> f64 {
    let pass_ms: Vec<f64> = (0..LOCAL_PASSES)
        .map(|i| {
            let t0 = Instant::now();
            black_box(pass(black_box(i as u64)));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&pass_ms)
}

/// A thread that times one kernel pass every [`SAMPLE_EVERY`] while the
/// workload runs: about 1 % of one core.
pub struct HostSpeed {
    stop: Arc<AtomicBool>,
    /// The sampler thread's `/proc` stat file.
    stat: PathBuf,
    sampler: JoinHandle<Vec<f64>>,
}

impl HostSpeed {
    pub fn start() -> HostSpeed {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (stat_tx, stat_rx) = mpsc::channel();
        let sampler = thread::spawn(move || {
            let _ = stat_tx.send(sys::thread_stat_path());
            let mut pass_ms = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                thread::sleep(SAMPLE_EVERY);
                let t0 = Instant::now();
                black_box(pass(black_box(pass_ms.len() as u64)));
                pass_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            pass_ms
        });
        let stat = stat_rx.recv().expect("the sampler names its stat file");
        HostSpeed {
            stop,
            stat,
            sampler,
        }
    }

    /// CPU seconds the sampler thread has used so far: the benchmark's,
    /// not the program's, so it is taken out of `cpu_s`.
    pub fn cpu_seconds(&self) -> f64 {
        sys::stat_cpu_seconds(&self.stat)
    }

    /// Stops the sampler and returns the pass times it took.
    pub fn finish(self) -> Samples {
        self.stop.store(true, Ordering::Relaxed);
        Samples(self.sampler.join().expect("host-speed sampler panicked"))
    }
}

/// Kernel pass times in milliseconds, in the order they were taken.
pub struct Samples(Vec<f64>);

impl Samples {
    /// Median time of one pass, in milliseconds.
    pub fn pass_ms(&self) -> f64 {
        stats::median(&self.0)
    }

    /// The factor that scales a measured duration to the reference host
    /// speed: this run's speed ÷ the reference speed, with speed taken as
    /// passes per millisecond. A mean over evenly spaced samples is what a
    /// workload running alongside them met; it is taken over the middle
    /// half of the samples, so passes preempted by the workload's own
    /// threads do not pull it down.
    pub fn factor(&self) -> f64 {
        let speeds = stats::sorted(&self.0.iter().map(|ms| 1.0 / ms).collect::<Vec<_>>());
        let n = speeds.len();
        let middle = &speeds[n / 4..n - n / 4];
        REFERENCE_PASS_MS * middle.iter().sum::<f64>() / middle.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_repeat_and_a_sample_takes_several() {
        assert_eq!(pass(3), pass(3));
        assert_ne!(pass(3), pass(4));
        let speed = HostSpeed::start();
        thread::sleep(SAMPLE_EVERY * 5);
        assert!(speed.cpu_seconds() >= 0.0);
        let samples = speed.finish();
        assert!(samples.0.len() >= 2);
        assert!(samples.factor() > 0.0 && samples.factor().is_finite());
    }
}
