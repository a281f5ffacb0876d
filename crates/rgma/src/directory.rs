//! The GMA directory service: an in-memory registry of producers and
//! consumers with *registration propagation delay*.
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

/// A registered consumer.
#[derive(Debug, Clone)]
pub struct ConsumerEntry {
    /// Registration handle.
    pub id: RegistrationId,
    /// Where the consumer's control interface lives.
    pub endpoint: Endpoint,
    /// Resource (topic/table) it wants.
    pub resource: String,
    /// When the registration was submitted.
    pub registered_at: SimTime,
    /// When it becomes visible.
    pub visible_at: SimTime,
}

/// In-memory directory with propagation delay.
pub struct Directory {
    /// Producers by resource, each list in registration order: a search
    /// hashes the resource name once and compares no strings.
    producers: FastMap<String, Vec<ProducerEntry>>,
    consumers: Vec<ConsumerEntry>,
    propagation: simcore::SimDuration,
    next_id: u64,
}

impl Directory {
    /// Directory whose registrations take `propagation` to become visible.
    pub fn new(propagation: simcore::SimDuration) -> Self {
        Directory {
            producers: FastMap::default(),
            consumers: Vec::new(),
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

    /// Register a consumer; visible after the propagation delay.
    pub fn register_consumer(
        &mut self,
        now: SimTime,
        endpoint: Endpoint,
        resource: impl Into<String>,
    ) -> RegistrationId {
        let id = self.next();
        self.consumers.push(ConsumerEntry {
            id,
            endpoint,
            resource: resource.into(),
            registered_at: now,
            visible_at: now + self.propagation,
        });
        id
    }

    /// Remove a registration (producer or consumer).
    pub fn unregister(&mut self, id: RegistrationId) {
        for entries in self.producers.values_mut() {
            entries.retain(|p| p.id != id);
        }
        self.consumers.retain(|c| c.id != id);
    }

    /// Producers for `resource` visible at `now`, in registration order.
    pub fn find_producers(&self, now: SimTime, resource: &str) -> Vec<&ProducerEntry> {
        let entries = self.producers.get(resource).map_or(&[][..], Vec::as_slice);
        entries.iter().filter(|p| p.visible_at <= now).collect()
    }

    /// Consumers for `resource` visible at `now`.
    pub fn find_consumers(&self, now: SimTime, resource: &str) -> Vec<&ConsumerEntry> {
        self.consumers
            .iter()
            .filter(|c| c.resource == resource && c.visible_at <= now)
            .collect()
    }

    /// All producer registrations (including not-yet-visible), for
    /// diagnostics.
    pub fn producer_count(&self) -> usize {
        self.producers.values().map(Vec::len).sum()
    }

    /// All consumer registrations.
    pub fn consumer_count(&self) -> usize {
        self.consumers.len()
    }

    /// The configured propagation delay.
    pub fn propagation(&self) -> simcore::SimDuration {
        self.propagation
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
        d.register_consumer(t, ep(2), "generator");
        assert_eq!(d.find_producers(t, "generator").len(), 1);
        assert_eq!(d.find_producers(t, "weather").len(), 1);
        assert_eq!(d.find_producers(t, "nothing").len(), 0);
        assert_eq!(d.find_consumers(t, "generator").len(), 1);
    }

    #[test]
    fn unregister_removes() {
        let mut d = Directory::new(SimDuration::ZERO);
        let t = SimTime::ZERO;
        let id = d.register_producer(t, ep(0), "generator", vec![]);
        assert_eq!(d.producer_count(), 1);
        d.unregister(id);
        assert_eq!(d.producer_count(), 0);
        assert!(d.find_producers(t, "generator").is_empty());
    }

    #[test]
    fn ids_unique_across_kinds() {
        let mut d = Directory::new(SimDuration::ZERO);
        let a = d.register_producer(SimTime::ZERO, ep(0), "x", vec![]);
        let b = d.register_consumer(SimTime::ZERO, ep(1), "x");
        assert_ne!(a, b);
        assert_eq!(d.consumer_count(), 1);
    }
}
