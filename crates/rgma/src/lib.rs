#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # rgma — a Relational Grid Monitoring Architecture implementation
//!
//! R-GMA (gLite 3.0 flavour) as the paper tested it: the Grid as one
//! *virtual database*. Producers `INSERT` into per-instance memory
//! storage with latest/history retention; Consumers run continuous
//! `SELECT` queries mediated through a Registry/Schema pair; everything
//! travels over HTTP into Java-servlet-style components; subscribers poll
//! the Consumer every 100 ms.
//!
//! The paper's R-GMA findings all emerge from mechanisms here:
//!
//! * **Long Process Time** (fig 15) — periodic streaming + mediation
//!   cycles and heavy per-request servlet costs on PIII-era nodes.
//! * **Warm-up loss** (§III.F, 0.17 %) — continuous queries only see
//!   tuples inserted after the mediator adds the producer to the plan,
//!   and registrations take seconds to propagate ([`registry`]).
//! * **Secondary Producer delays** (fig 10) — the deliberate 30 s batch
//!   flush ([`secondary`]).
//! * **Single-server limits** (figs 11–13) — thread-per-connection
//!   servlets against a bounded native pool, heap per instance/tuple.

pub mod client;
pub mod config;
pub mod consumer;
pub mod directory;
pub mod producer;
pub mod protocol;
pub mod registry;
pub mod secondary;
pub mod storage;

pub use client::{
    ProducerHandle, QueryHandle, RgmaClientSet, RgmaEvent, RgmaTimer, SubscriberHandle,
};
pub use config::RgmaConfig;
pub use consumer::{ConsumerControl, ConsumerServlet};
pub use producer::{ProducerControl, ProducerServlet};
pub use protocol::{ConsumerId, ProducerId, QueryType};
pub use registry::RegistryActor;
pub use secondary::SecondaryProducer;
pub use storage::{MemoryStorage, StoredTuple};
