#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the gridmon reproduction. Provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time.
//! * [`EventQueue`] — a time-ordered queue with FIFO tie-breaking, so a
//!   given seed always replays the identical event history.
//! * [`Actor`] / [`Simulation`] / [`Context`] — the actor model every
//!   middleware component is written against.
//! * [`ServiceMap`] — type-keyed shared state (network fabric, OS resource
//!   accounting, metrics collectors).
//! * [`FastMap`] / [`FastSet`] — `HashMap` / `HashSet` with the one fixed
//!   hasher every table in the workspace uses.
//! * [`SimRng`] — a frozen xoshiro256++ implementation for reproducible
//!   randomness.
//! * [`write_uint`] — the one decimal writer, into a `String` or a byte
//!   buffer ([`AsciiBuf`]); [`uint_len`] is how much it writes.
//! * [`Site`] / [`WallAccum`] — the one wall-clock table of the host
//!   time spent per hot path (`repro --scope`): armed by
//!   [`Simulation::enable_hotpath_timing`], written by the kernel and
//!   through [`Context::wall_start`] / [`Context::wall_record`], read by
//!   [`Simulation::hotpath`].
//!
//! Design notes: the kernel dispatches strictly one event at a time; actors
//! communicate only via messages, so there is no shared mutable state
//! between actors except through explicit services. Everything is
//! single-threaded *within* one simulation — parallelism in this project
//! happens *across* simulations (parameter sweeps), which is where the real
//! win is for a measurement-study reproduction.

pub mod actor;
pub mod digits;
pub mod event;
pub mod hash;
pub mod kernel;
pub mod rng;
pub mod service;
pub mod time;

pub use actor::{Actor, ActorId, FnActor, NullActor};
pub use digits::{uint_len, write_uint, AsciiBuf};
pub use event::{
    EventQueue, EventTypeStat, Payload, ScheduledEvent, Site, WallAccum, EXTERNAL_LANE,
};
pub use hash::{FastMap, FastSet};
pub use kernel::{Context, KernelStats, RemoteEnvelope, RemoteRouter, RunOutcome, Simulation};
pub use rng::SimRng;
pub use service::ServiceMap;
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Site::COUNT);
        for (row, site) in Site::ALL.into_iter().enumerate() {
            assert_eq!(site as usize, row, "{}", site.name());
        }
    }

    #[test]
    fn probes_noop_when_unarmed() {
        let mut sim = Simulation::new(1);
        let a = sim.add_actor(FnActor(|_m: Payload, ctx: &mut Context| {
            let t0 = ctx.wall_start();
            assert_eq!(t0, None);
            ctx.wall_record(Site::NetFabricSend, t0);
        }));
        sim.schedule(SimDuration::ZERO, a, Box::new(()));
        sim.run_to_completion(10);
        assert_eq!(sim.hotpath(), None);
    }

    #[test]
    fn probes_accumulate_when_armed() {
        let mut sim = Simulation::new(2);
        sim.enable_hotpath_timing();
        let a = sim.add_actor(FnActor(|_m: Payload, ctx: &mut Context| {
            let t0 = ctx.wall_start();
            assert!(t0.is_some());
            ctx.wall_record(Site::JmsMatch, t0);
        }));
        for i in 0..3u64 {
            sim.schedule(SimDuration::from_secs(i), a, Box::new(()));
        }
        sim.run_to_completion(10);
        let table = sim.hotpath().unwrap();
        assert_eq!(table[Site::JmsMatch as usize].count, 3);
        assert_eq!(table[Site::NetFabricSend as usize].count, 0);
    }

    #[test]
    fn merged_sums_counts_and_nanos() {
        let mut a = WallAccum::default();
        a.add(10);
        a.add(20);
        let mut b = WallAccum::default();
        b.add(5);
        a.merge(b);
        assert_eq!(
            a,
            WallAccum {
                nanos: 35,
                count: 3
            }
        );
    }
}
