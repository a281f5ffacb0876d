//! The component taxonomy time is attributed to.

/// One component of the simulated stack. The taxonomy is fixed (an enum,
/// not strings) so attribution is allocation-free and the slot order is
/// stable across exports — the same convention as `simcore::Site`, whose
/// variant is its row of the kernel's wall-clock table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Component {
    /// Narada broker publish handling: deserialize, duplicate-filter,
    /// route, serialize deliveries and peer forwards.
    NaradaRoute,
    /// Narada selector/queue matching inside the broker engine.
    NaradaMatch,
    /// Narada UDP publish-ack processing on the broker.
    NaradaAck,
    /// Narada client-side marshalling/unmarshalling (driver nodes).
    NaradaTransport,
    /// R-GMA servlet dispatch and instance management (Tomcat side).
    RgmaServlet,
    /// R-GMA INSERT processing in producer servlets.
    RgmaInsert,
    /// R-GMA continuous-SELECT evaluation, streaming, and consumer-side
    /// chunk/poll processing.
    RgmaSelect,
    /// R-GMA registry lookups and (re-)registrations.
    RgmaRegistry,
    /// R-GMA secondary-producer batching and re-publication.
    RgmaSecondary,
    /// R-GMA client-side HTTP assembly and response processing
    /// (driver nodes).
    RgmaClient,
    /// Network fabric frame handling (event count only — the fabric's
    /// NIC servers are not CPU time).
    NetFabric,
    /// Per-link frame delivery (event count only).
    NetLink,
    /// OS scheduler activity: thread spawn/kill churn (event count
    /// only — dispatch latency is pure latency, not busy time).
    OsSched,
    /// Stop-the-world GC pauses charged to middleware JVMs.
    OsGc,
    /// gridlog broker append path: deserialize a produce batch, assign
    /// offsets, append to the partition segment.
    GridlogAppend,
    /// gridlog broker fetch path: serve long-poll fetches, serialize
    /// record batches.
    GridlogFetch,
    /// gridlog broker consumer-group offset-commit processing.
    GridlogCommit,
    /// gridlog group-coordinator work: join/leave handling, partition
    /// assignment, crash-restart segment replay.
    GridlogRebalance,
    /// gridlog client-side batching, marshalling, and record delivery
    /// (driver nodes).
    GridlogClient,
    /// CPU work submitted outside any instrumented site. Non-zero means
    /// an instrumentation gap; the conservation test asserts it stays
    /// zero.
    Unattributed,
}

/// Number of [`Component`] slots.
pub const COMPONENT_COUNT: usize = 20;

impl Component {
    /// All components, in slot order.
    pub const ALL: [Component; COMPONENT_COUNT] = [
        Component::NaradaRoute,
        Component::NaradaMatch,
        Component::NaradaAck,
        Component::NaradaTransport,
        Component::RgmaServlet,
        Component::RgmaInsert,
        Component::RgmaSelect,
        Component::RgmaRegistry,
        Component::RgmaSecondary,
        Component::RgmaClient,
        Component::NetFabric,
        Component::NetLink,
        Component::OsSched,
        Component::OsGc,
        Component::GridlogAppend,
        Component::GridlogFetch,
        Component::GridlogCommit,
        Component::GridlogRebalance,
        Component::GridlogClient,
        Component::Unattributed,
    ];

    /// Stable dotted name used by every exporter (table, collapsed
    /// stacks, CSV).
    pub fn name(self) -> &'static str {
        match self {
            Component::NaradaRoute => "narada.route",
            Component::NaradaMatch => "narada.match",
            Component::NaradaAck => "narada.ack",
            Component::NaradaTransport => "narada.transport",
            Component::RgmaServlet => "rgma.servlet",
            Component::RgmaInsert => "rgma.insert",
            Component::RgmaSelect => "rgma.select",
            Component::RgmaRegistry => "rgma.registry",
            Component::RgmaSecondary => "rgma.secondary",
            Component::RgmaClient => "rgma.client",
            Component::NetFabric => "simnet.fabric",
            Component::NetLink => "simnet.link",
            Component::OsSched => "simos.sched",
            Component::OsGc => "simos.gc",
            Component::GridlogAppend => "gridlog.append",
            Component::GridlogFetch => "gridlog.fetch",
            Component::GridlogCommit => "gridlog.commit",
            Component::GridlogRebalance => "gridlog.rebalance",
            Component::GridlogClient => "gridlog.client",
            Component::Unattributed => "unattributed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_slots_match_discriminants() {
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{} out of slot order", c.name());
        }
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let names: simcore::FastSet<&str> = Component::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), COMPONENT_COUNT);
    }
}
