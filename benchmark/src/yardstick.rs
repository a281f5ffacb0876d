//! A yardstick for the host: a computation that belongs to the benchmark
//! and not to the simulator, so its cost changes with the speed of the
//! machine and with nothing a pull request touches. The host is a few
//! hardware threads of a shared machine whose speed sags by up to 1.8x
//! for minutes on end (NOISE.md); host time is reported as what it would
//! be on a host that runs the yardstick at its reference speed.
//!
//! The yardstick is shaped like the simulator — an event loop over a
//! binary heap with boxed payloads, a hash map of strings, formatting and
//! parsing — so that what slows the one slows the other.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Seconds per chunk on the undisturbed host the bounds were set on:
/// host time is scaled to a host of this speed.
pub const REFERENCE_CHUNK_S: f64 = 0.0072;
const CHUNK_EVENTS: u64 = 20_000;
const LIVE_EVENTS: u64 = 4096;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One chunk of fixed work, 7 ms; the sum keeps the optimiser honest.
fn chunk() -> u64 {
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    let mut queue = BinaryHeap::new();
    let mut rows: HashMap<u64, String, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for id in 0..LIVE_EVENTS {
        queue.push(Reverse((xorshift(&mut rng) % 1000, id, Box::new([id; 4]))));
    }
    let mut sum = 0;
    for _ in 0..CHUNK_EVENTS {
        let Reverse((at, id, payload)) = queue.pop().expect("the queue never drains");
        let row = format!(
            "INSERT INTO readings VALUES ({at}, {}, 'gen{id}')",
            payload[1]
        );
        let parsed: u64 = row
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|word| word.parse::<u64>().ok())
            .sum();
        sum += parsed;
        rows.insert(id % 2048, row);
        let next = at + 1 + xorshift(&mut rng) % 1000;
        queue.push(Reverse((next, id + LIVE_EVENTS, Box::new([parsed; 4]))));
    }
    sum + rows.len() as u64
}

/// Mean seconds per chunk over a burst of `chunks`: how fast the host
/// is now.
pub fn burst(chunks: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..chunks {
        std::hint::black_box(chunk());
    }
    start.elapsed().as_secs_f64() / chunks as f64
}

/// `seconds`, measured while the yardstick ran at `chunk_s` per chunk, as
/// they would be on the reference host.
pub fn on_reference_host(seconds: f64, chunk_s: f64) -> f64 {
    seconds * REFERENCE_CHUNK_S / chunk_s
}
