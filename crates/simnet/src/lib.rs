#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # simnet — the simulated 100 Mbps switched LAN
//!
//! Models the paper's isolated Hydra network: per-node NIC FIFO
//! serialization at the measured effective rate (~7.5 MB/s), switch
//! latency, exponential jitter, MSS segmentation with per-packet overhead,
//! UDP loss, and per-connection FIFO ordering for the TCP family.
//!
//! * [`NetworkFabric`] — the kernel service actors send through.
//! * [`Transport`] — TCP / NIO / UDP / HTTP flavours.
//! * [`Delivery`] — the event a receiving actor gets.
//! * [`http`] — request/response framing for the R-GMA servlet paths:
//!   the [`http::Caller`] every request leaves through and the
//!   [`http::Reply`] every response does.
//! * [`session`] — the connect → live → suspect → backoff → reconnect
//!   session shared by the broker clients (narada, gridlog).
//! * [`server`] — the other end: the [`server::Acceptor`] every server
//!   holds its connections in (thread + heap per connection, refusal,
//!   the inbound gate, crash / restart).
//! * [`probe`] — the stamp both ends make: the four lifecycle instants
//!   of a reading, written to every recorder from one place.
//! * [`partition_nodes`] — the topology partitioner for sharded runs.

pub mod addr;
pub mod fabric;
pub mod http;
pub mod probe;
pub mod server;
pub mod session;

pub use addr::Endpoint;
pub use fabric::{ConnId, ConnMeta, Delivery, FabricConfig, FabricStats, NetworkFabric, Transport};
pub use http::{HttpRequest, HttpResponse};

/// Partition `nodes` simulated nodes across `shards` shards, round-robin.
///
/// Returns `node → shard`. Round-robin interleaves the experiment's server
/// nodes (registered first) and client nodes (registered after) across
/// shards, which balances both middleware and driver load; any
/// deterministic map works for correctness since cross-shard traffic only
/// costs mailbox hops, never changes results. Shards may end up empty when
/// `shards > nodes`; the executor tolerates that.
pub fn partition_nodes(nodes: usize, shards: usize) -> Vec<usize> {
    assert!(shards > 0, "at least one shard");
    (0..nodes).map(|n| n % shards).collect()
}

#[cfg(test)]
mod partition_tests {
    use super::partition_nodes;

    #[test]
    fn round_robin_covers_and_balances() {
        let p = partition_nodes(7, 3);
        assert_eq!(p, vec![0, 1, 2, 0, 1, 2, 0]);
        for s in 0..3 {
            let size = p.iter().filter(|&&x| x == s).count();
            assert!((2..=3).contains(&size));
        }
        // More shards than nodes: high shards are simply empty.
        assert_eq!(partition_nodes(2, 4), vec![0, 1]);
    }
}
