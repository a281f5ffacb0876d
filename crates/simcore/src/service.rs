//! Shared simulation services.
//!
//! Some state is naturally global to a simulated world rather than owned by
//! one actor — the network fabric, per-node OS resource accounting, the
//! metrics collector. Such state registers itself as a *service*: a
//! type-keyed singleton that actors access through their context.
//!
//! To keep borrows sound while still letting a service callback schedule
//! events, services are temporarily *taken out* of their slot for the duration
//! of the access (see [`crate::Context::with_service`]) and put back after.
//! Nested access to two different services works; re-entrant access to the
//! same service panics with a clear message instead of aliasing.

use std::any::{Any, TypeId};

/// Type-keyed table of singleton services.
///
/// A world registers at most ten services, so the table is a flat vector
/// scanned by `TypeId`: a lookup — hit or miss — is a handful of integer
/// compares, and `take` / `put` empty and refill a slot in place.
#[derive(Default)]
pub struct ServiceMap {
    slots: Vec<(TypeId, Option<Box<dyn Any>>)>,
}

impl ServiceMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot<S: Any>(&self) -> Option<&Option<Box<dyn Any>>> {
        let id = TypeId::of::<S>();
        self.slots.iter().find(|(t, _)| *t == id).map(|(_, s)| s)
    }

    #[inline]
    fn slot_mut<S: Any>(&mut self) -> Option<&mut Option<Box<dyn Any>>> {
        let id = TypeId::of::<S>();
        self.slots
            .iter_mut()
            .find(|(t, _)| *t == id)
            .map(|(_, s)| s)
    }

    /// Register a service, replacing any previous instance of the same type.
    pub fn insert<S: Any>(&mut self, svc: S) {
        self.put(Box::new(svc));
    }

    /// True if a service of type `S` is registered (and not currently taken).
    pub fn contains<S: Any>(&self) -> bool {
        self.slot::<S>().is_some_and(Option::is_some)
    }

    /// Remove the service of type `S` for exclusive use. Pair with [`put`].
    ///
    /// [`put`]: ServiceMap::put
    #[inline]
    pub fn take<S: Any>(&mut self) -> Option<Box<S>> {
        self.slot_mut::<S>()?
            .take()
            .map(|b| b.downcast::<S>().expect("service slot type mismatch"))
    }

    /// Return a service previously removed with [`take`].
    ///
    /// [`take`]: ServiceMap::take
    #[inline]
    pub fn put<S: Any>(&mut self, svc: Box<S>) {
        match self.slot_mut::<S>() {
            Some(slot) => *slot = Some(svc),
            None => self.slots.push((TypeId::of::<S>(), Some(svc))),
        }
    }

    /// Borrow a service immutably.
    #[inline]
    pub fn get<S: Any>(&self) -> Option<&S> {
        self.slot::<S>()?
            .as_ref()
            .map(|b| b.downcast_ref::<S>().expect("service slot type mismatch"))
    }

    /// Borrow a service mutably.
    #[inline]
    pub fn get_mut<S: Any>(&mut self) -> Option<&mut S> {
        self.slot_mut::<S>()?
            .as_mut()
            .map(|b| b.downcast_mut::<S>().expect("service slot type mismatch"))
    }

    /// True if `S` has a slot, whether its service is present or taken.
    pub(crate) fn registered<S: Any>(&self) -> bool {
        self.slot::<S>().is_some()
    }

    /// Number of registered services (not counting any currently taken).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|(_, s)| s.is_some()).count()
    }

    /// True if no services are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u32);
    struct Name(String);

    #[test]
    fn insert_get_mutate() {
        let mut m = ServiceMap::new();
        m.insert(Counter(1));
        m.insert(Name("hydra".into()));
        assert!(m.contains::<Counter>());
        assert_eq!(m.get::<Counter>().unwrap().0, 1);
        m.get_mut::<Counter>().unwrap().0 += 1;
        assert_eq!(m.get::<Counter>().unwrap().0, 2);
        assert_eq!(m.get::<Name>().unwrap().0, "hydra");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn take_and_put_roundtrip() {
        let mut m = ServiceMap::new();
        m.insert(Counter(7));
        let c = m.take::<Counter>().unwrap();
        assert!(!m.contains::<Counter>());
        assert_eq!(c.0, 7);
        m.put(c);
        assert_eq!(m.get::<Counter>().unwrap().0, 7);
    }

    #[test]
    fn missing_service_is_none() {
        let mut m = ServiceMap::new();
        assert!(m.get::<Counter>().is_none());
        assert!(m.take::<Counter>().is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn insert_replaces() {
        let mut m = ServiceMap::new();
        m.insert(Counter(1));
        m.insert(Counter(2));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get::<Counter>().unwrap().0, 2);
    }
}
