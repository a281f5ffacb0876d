//! The GMA directory service: an in-memory registry of producers with
//! *registration propagation delay*.
//!
//! The GGF Grid Monitoring Architecture (GFD.7), through which the paper
//! frames both middlewares, separates discovery from data transfer:
//! producers gather data, consumers receive it, and a directory service
//! mediates between them off the data path. The directory is eventually
//! consistent: a registration becomes *visible* to searches only after a
//! propagation delay (registry replication, mediator refresh cycles). This
//! single mechanism produces the paper's R-GMA warm-up behaviour: tuples
//! published before any consumer's plan includes the new producer are
//! never delivered (0.17 % loss in the 400-generator no-wait test).

use simcore::{FastMap, SimTime};
use simnet::Endpoint;

/// How data moves from producer to consumer once discovery has happened
/// (GFD.7 §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferMode {
    /// Either party initiates; the producer then streams events until
    /// either side terminates. Narada topics and R-GMA continuous queries
    /// are this mode.
    PublishSubscribe,
    /// The consumer initiates; the producer answers with all data in one
    /// response. R-GMA latest/history queries are this mode.
    QueryResponse,
    /// The producer initiates and transfers all data in one notification.
    Notification,
}

/// Handle to a registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegistrationId(pub u64);

/// A registered producer.
#[derive(Debug, Clone)]
pub struct ProducerEntry {
    /// Registration handle.
    pub id: RegistrationId,
    /// Where the producer's data interface lives.
    pub endpoint: Endpoint,
    /// What it publishes: topic name or table name.
    pub resource: String,
    /// Supported transfer modes.
    pub modes: Vec<TransferMode>,
    /// When the registration was submitted.
    pub registered_at: SimTime,
    /// When it becomes visible to searches.
    pub visible_at: SimTime,
}

/// In-memory directory with propagation delay.
pub struct Directory {
    /// Producers by resource, each list in registration order: a search
    /// hashes the resource name once and compares no strings.
    producers: FastMap<String, Vec<ProducerEntry>>,
    propagation: simcore::SimDuration,
    next_id: u64,
}

impl Directory {
    /// Directory whose registrations take `propagation` to become visible.
    pub fn new(propagation: simcore::SimDuration) -> Self {
        Directory {
            producers: FastMap::default(),
            propagation,
            next_id: 0,
        }
    }

    fn next(&mut self) -> RegistrationId {
        let id = RegistrationId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Register a producer; visible after the propagation delay.
    pub fn register_producer(
        &mut self,
        now: SimTime,
        endpoint: Endpoint,
        resource: impl Into<String>,
        modes: Vec<TransferMode>,
    ) -> RegistrationId {
        let id = self.next();
        let resource = resource.into();
        let entry = ProducerEntry {
            id,
            endpoint,
            resource: resource.clone(),
            modes,
            registered_at: now,
            visible_at: now + self.propagation,
        };
        self.producers.entry(resource).or_default().push(entry);
        id
    }

    /// Register a consumer. Nothing searches for consumers, so this only
    /// mints its handle, from the same sequence as producers'.
    pub fn register_consumer(&mut self) -> RegistrationId {
        self.next()
    }

    /// Producers for `resource` visible at `now`, in registration order.
    pub fn find_producers(&self, now: SimTime, resource: &str) -> Vec<&ProducerEntry> {
        let entries = self.producers.get(resource).map_or(&[][..], Vec::as_slice);
        entries.iter().filter(|p| p.visible_at <= now).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{ActorId, SimDuration};
    use simos::NodeId;

    fn ep(n: u16) -> Endpoint {
        Endpoint::new(NodeId(n), ActorId::from_index(n as usize))
    }

    #[test]
    fn propagation_gates_visibility() {
        let mut d = Directory::new(SimDuration::from_secs(5));
        let t0 = SimTime::from_secs(10);
        d.register_producer(t0, ep(0), "generator", vec![TransferMode::PublishSubscribe]);
        assert!(d.find_producers(t0, "generator").is_empty());
        assert!(d
            .find_producers(t0 + SimDuration::from_secs(4), "generator")
            .is_empty());
        assert_eq!(
            d.find_producers(t0 + SimDuration::from_secs(5), "generator")
                .len(),
            1
        );
    }

    #[test]
    fn resource_filtering() {
        let mut d = Directory::new(SimDuration::ZERO);
        let t = SimTime::from_secs(1);
        d.register_producer(t, ep(0), "generator", vec![]);
        d.register_producer(t, ep(1), "weather", vec![]);
        d.register_consumer();
        assert_eq!(d.find_producers(t, "generator").len(), 1);
        assert_eq!(d.find_producers(t, "weather").len(), 1);
        assert_eq!(d.find_producers(t, "nothing").len(), 0);
    }

    #[test]
    fn ids_unique_across_kinds() {
        let mut d = Directory::new(SimDuration::ZERO);
        let a = d.register_producer(SimTime::ZERO, ep(0), "x", vec![]);
        let b = d.register_consumer();
        assert_ne!(a, b);
    }
}
