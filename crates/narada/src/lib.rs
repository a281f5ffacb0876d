#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # narada — a NaradaBrokering-like JMS broker
//!
//! A from-scratch reproduction of the middleware behaviours the paper
//! measures in NaradaBrokering v1.1.3:
//!
//! * JMS topics with selector-filtered subscriptions ([`matching`]).
//! * Thread-per-connection brokers whose accept path spends real (modelled)
//!   memory — connection refusals at scale emerge from the OS model, not a
//!   hard-coded limit ([`broker`]).
//! * Transport adapters: TCP, NIO and JMS-over-UDP with its per-message
//!   acknowledgement protocol — the cause of the paper's surprising UDP
//!   results ([`client`], [`broker`]).
//! * The Broker Network Map with full-mesh deployment, a Broker Discovery
//!   Node, and the v1.1.3 broadcast deficiency behind the paper's DBN
//!   findings ([`network`]).

pub mod broker;
pub mod client;
pub mod config;
pub mod matching;
pub mod network;
pub mod protocol;
mod seqset;

pub use broker::{Broker, BrokerControl, BrokerStats, StatsHandle};
pub use client::{ClientEvent, NaradaClientSet};
pub use config::ConnSettings;
pub use matching::{MatchedDelivery, MatchingEngine, Subscription};
pub use network::{BrokerDiscoveryNode, BrokerNetwork};
pub use simnet::session::{ClientTimer, ReconnectPolicy};
