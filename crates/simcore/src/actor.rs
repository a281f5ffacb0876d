//! Actors: the unit of behaviour in the simulation.
//!
//! Every middleware component (broker, servlet container, generator client,
//! NIC driver…) is an actor. Actors receive type-erased messages through
//! [`Actor::handle`] and interact with the world exclusively through the
//! [`crate::Context`] passed to them — scheduling future messages, sending
//! to other actors, drawing randomness, and touching shared services.

use crate::event::Payload;
use crate::kernel::Context;
use std::fmt;

/// Identifies an actor within one simulation. Stable for the lifetime of
/// the simulation (actors are never removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(u32);

impl ActorId {
    /// Sentinel id used before registration; never dispatched to.
    pub const NONE: ActorId = ActorId(u32::MAX);

    /// Construct from a raw slab index (kernel use and tests).
    pub fn from_index(ix: usize) -> Self {
        ActorId(ix as u32)
    }

    /// Raw slab index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The actor's kernel lane: the slab index as the `u32` it is stored
    /// as, what keys the records an actor makes (probe ids, trace and
    /// metric records).
    pub fn lane(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Behaviour attached to an [`ActorId`].
pub trait Actor {
    /// Deliver one message. `ctx.self_id()` is this actor's id and
    /// `ctx.now()` the current virtual time.
    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>);

    /// Called once when the simulation starts (before any event fires), in
    /// registration order. Default: nothing.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Human-readable name for traces. Default: type name.
    fn name(&self) -> &str {
        std::any::type_name::<Self>()
    }
}

/// A no-op actor that silently drops everything sent to it. Useful as a
/// sink in tests and as a placeholder for torn-down components.
#[derive(Debug, Default)]
pub struct NullActor;

impl Actor for NullActor {
    fn handle(&mut self, _msg: Payload, _ctx: &mut Context<'_>) {}
    fn name(&self) -> &str {
        "null"
    }
}

/// An actor built from a closure; convenient in tests.
pub struct FnActor<F>(pub F);

impl<F: FnMut(Payload, &mut Context<'_>)> Actor for FnActor<F> {
    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        (self.0)(msg, ctx)
    }
    fn name(&self) -> &str {
        "fn-actor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_id_roundtrip() {
        let id = ActorId::from_index(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.lane(), 17);
        assert_eq!(ActorId::NONE.lane(), u32::MAX);
        assert_eq!(format!("{id}"), "actor#17");
        assert_ne!(id, ActorId::NONE);
    }
}
