//! Host-speed meter: a fixed piece of work, written in this file so that no
//! change to the program can make it faster or slower, repeated on a second
//! thread while a set-up or an orchestrator run is timed on the first.
//!
//! The shared host this benchmark runs on changes speed by 10–30% over
//! minutes, each core on its own. The meter samples that speed over exactly
//! the interval timed, on both cores, so the ratio of the wall time to the
//! meter's time per unit of work cancels the drift that a wall time alone
//! would carry. The program runs at one thread, so the meter's thread takes
//! the other core.
//!
//! The work imitates what dominates a device run: small dense forward
//! passes with a fresh allocation per activation, and a little hash-map
//! bookkeeping. It stays in cache and does not grow the heap, so it does
//! not compete with the run for memory.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const DIM_IN: usize = 64;
const HIDDEN: usize = 128;
const LAYERS: usize = 8;
const CLASSES: usize = 20;
/// Forward passes per unit of work (about 25 ms on the host it was tuned on).
const ITEMS: usize = 250;

/// Deterministic values in [-0.5, 0.5).
fn lcg(state: &mut u64) -> f32 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    ((*state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
}

fn matvec(w: &[f32], x: &[f32], rows: usize) -> Vec<f32> {
    let cols = x.len();
    (0..rows)
        .map(|r| {
            w[r * cols..(r + 1) * cols]
                .iter()
                .zip(x)
                .map(|(a, b)| a * b)
                .sum::<f32>()
        })
        .collect()
}

struct Weights {
    input: Vec<f32>,
    hidden: Vec<Vec<f32>>,
    output: Vec<f32>,
}

impl Weights {
    fn new() -> Weights {
        let mut s = 0x9e37_79b9_7f4a_7c15;
        Weights {
            input: (0..HIDDEN * DIM_IN).map(|_| lcg(&mut s)).collect(),
            hidden: (0..LAYERS)
                .map(|_| (0..HIDDEN * HIDDEN).map(|_| lcg(&mut s) * 0.1).collect())
                .collect(),
            output: (0..CLASSES * HIDDEN).map(|_| lcg(&mut s)).collect(),
        }
    }

    /// One unit of work: [`ITEMS`] forward passes.
    fn unit(&self, seed: &mut u64) {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for _ in 0..ITEMS {
            let x: Vec<f32> = (0..DIM_IN).map(|_| lcg(seed)).collect();
            let mut h = matvec(&self.input, &x, HIDDEN);
            for w in &self.hidden {
                let y = matvec(w, &h, HIDDEN);
                h = h.iter().zip(&y).map(|(a, b)| a + b.max(0.0)).collect();
            }
            let logits = matvec(&self.output, &h, CLASSES);
            let best = logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i);
            *counts.entry(best as u32).or_default() += 1;
        }
        black_box(&counts);
    }
}

/// The meter's time per unit of work on the host the benchmark was tuned
/// on (an Intel Xeon with 2 vCPUs). A wall time `t` read while the meter
/// took `u` per unit is `t * REFERENCE_UNIT_S / u` seconds at that speed.
pub const REFERENCE_UNIT_S: f64 = 0.025;

/// Units of work between two swaps of the run's and the meter's cores.
const SWAP_UNITS: u32 = 4;

/// Thread placement through the C library (Linux): a `cpu_set_t` of 1024
/// bits, thread ids as `pid_t`.
mod affinity {
    pub type Mask = [u64; 16];

    extern "C" {
        fn gettid() -> i32;
        fn sched_getaffinity(tid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(tid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's id.
    pub fn current() -> i32 {
        // SAFETY: `gettid` takes no arguments and cannot fail.
        unsafe { gettid() }
    }

    pub fn get(tid: i32) -> Option<Mask> {
        let mut mask = [0; 16];
        // SAFETY: `mask` is writable and exactly `size` bytes long.
        let rc = unsafe { sched_getaffinity(tid, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(tid: i32, mask: &Mask) -> bool {
        // SAFETY: `mask` is readable and exactly `size` bytes long.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    pub fn only(cpu: usize) -> Mask {
        let mut mask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        mask
    }

    /// The first two CPUs a mask allows.
    pub fn two(mask: &Mask) -> Option<(usize, usize)> {
        let mut cpus = (0..1024).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
        Some((cpus.next()?, cpus.next()?))
    }
}

/// A running meter; [`Meter::stop`] ends it.
pub struct Meter {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(u32, f64)>,
}

impl Meter {
    /// Starts repeating the unit of work on a thread of its own, beside
    /// the calling thread.
    ///
    /// Each core of a shared host has neighbours of its own, so one core
    /// can run slower than the other for a minute at a time. Every
    /// [`SWAP_UNITS`] units the meter therefore swaps the two threads'
    /// cores, so that the run and the meter both sample both cores. The
    /// calling thread gets its own placement back when the meter stops.
    /// Without two usable CPUs the threads stay where the system puts them.
    pub fn start() -> Meter {
        let weights = Weights::new();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let caller = affinity::current();
        let handle = std::thread::spawn(move || {
            let original = affinity::get(caller);
            let cores = original.as_ref().and_then(affinity::two);
            let mut seed = 1;
            let mut units: u32 = 0;
            let t = Instant::now();
            while units == 0 || !flag.load(Ordering::Relaxed) {
                if let Some((a, b)) = cores.filter(|_| units.is_multiple_of(SWAP_UNITS)) {
                    let (run, meter) = if (units / SWAP_UNITS).is_multiple_of(2) {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    affinity::set(caller, &affinity::only(run));
                    affinity::set(0, &affinity::only(meter));
                }
                weights.unit(&mut seed);
                units += 1;
            }
            let secs = t.elapsed().as_secs_f64();
            if let Some(mask) = original {
                affinity::set(caller, &mask);
            }
            (units, secs)
        });
        Meter { stop, handle }
    }

    /// Stops the meter and waits for its thread: the mean seconds per unit
    /// of work while it ran.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let (units, secs) = self.handle.join().expect("meter thread panicked");
        secs / f64::from(units)
    }
}
