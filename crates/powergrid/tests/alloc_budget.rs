//! Allocation budget of one reading, counted, not timed: every
//! generator builds one `narada_message` or one `rgma_insert` per
//! publish and the log keeps every message, so an allocation here is
//! paid — and, under gridlog, held — 720 000 times in a paper-scale run.

use powergrid::GeneratorState;
use simcore::{SimRng, SimTime};
use std::sync::Arc;
use wire::Value;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A generator a few readings into its run, on a thread that has built a
/// reading before (the shared topic string is made once per thread).
fn warm_generator() -> GeneratorState {
    let mut rng = SimRng::new(7);
    let mut g = GeneratorState::new(42, &mut rng);
    g.step(&mut rng, 10.0);
    g.narada_message(0, SimTime::ZERO, 1);
    g
}

#[test]
fn a_reading_is_a_handful_of_blocks() {
    let g = warm_generator();
    let (m, allocs) = allocations(|| g.narada_message(1, SimTime::from_secs(10), 1));
    // The 16-entry body, the one-entry properties, the block that holds
    // both, and the four string cells ("site-NNNN" and three constants).
    assert!(allocs <= 8, "narada_message allocated {allocs} times");
    assert_eq!(m.wire_size(), wire::encode_message(&m).len());
}

#[test]
fn forwarding_and_sizing_a_reading_allocate_nothing() {
    let g = warm_generator();
    let m = g.narada_message(1, SimTime::from_secs(10), 1);
    let (copy, allocs) = allocations(|| m.clone());
    assert_eq!(allocs, 0, "clone allocated");
    let (size, allocs) = allocations(|| copy.wire_size());
    assert_eq!(allocs, 0, "wire_size allocated");
    assert_eq!(size, wire::encode_message(&m).len());
}

#[test]
fn a_triple_reading_owns_only_the_names_of_its_copies() {
    let g = warm_generator();
    let (m, allocs) = allocations(|| g.narada_message(1, SimTime::from_secs(10), 3));
    // As above with twelve string cells, plus the 32 `name_r` names of
    // the second and third copies (`format!` regrows the longer ones).
    assert!(
        allocs <= 70,
        "narada_message(repeat 3) allocated {allocs} times"
    );
    let wire::Body::Map(map) = m.body() else {
        panic!("map message")
    };
    assert_eq!(map.len(), 48);
}

#[test]
fn sizing_an_rgma_reading_allocates_nothing() {
    let g = warm_generator();
    let ((row, len), allocs) = allocations(|| g.rgma_insert());
    // The four CHAR(20) cells hold their text inline.
    assert_eq!(allocs, 0, "rgma_insert allocated");
    assert_eq!(row.len(), 16);
    assert!(len > 250, "{len} bytes");
}

#[test]
fn an_rgma_reading_is_one_block() {
    let g = warm_generator();
    let (row, _) = g.rgma_insert();
    // What the publisher hands the client: the request and the retry
    // record then share it.
    let (block, allocs) = allocations(|| Arc::<[Value]>::from(row));
    assert_eq!(allocs, 1, "the row took {allocs} blocks");
    assert_eq!(block.len(), 16);
}
