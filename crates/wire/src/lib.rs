#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # wire — the message model shared by both middlewares
//!
//! * [`Value`] — dynamically-typed cells used by JMS map bodies, selector
//!   properties, and R-GMA tuples, with SQL/JMS three-valued comparison.
//! * [`Text`] — the string inside a value: inline up to 22 bytes, so the
//!   paper's short string cells own no heap block.
//! * [`Message`] — JMS-style messages (headers, properties, Map/Text/Bytes
//!   bodies) with an exact wire-size model; [`ValueMap`] is the sorted
//!   name→value block behind properties and map bodies.
//! * [`Tuple`] — relational rows for the R-GMA virtual database.
//! * [`TopicId`] / [`TopicTable`] — interned topic names for routing
//!   tables and partition maps (dense `u32` handles, broker-local).
//! * [`codec`] — a real binary codec over `Vec<u8>` / `&[u8]` that no
//!   simulated message passes through: tests assert `wire_size()` equal
//!   to the true encoded length, keeping the simulator's byte accounting
//!   honest.

pub mod codec;
pub mod message;
pub mod text;
pub mod topic;
pub mod tuple;
pub mod value;

pub use codec::{decode_message, decode_tuple, encode_message, encode_tuple, CodecError};
pub use message::{Body, DeliveryMode, Headers, Message, MessageId, ValueMap};
pub use text::Text;
pub use topic::{TopicId, TopicTable};
pub use tuple::Tuple;
pub use value::{Value, ValueType};
