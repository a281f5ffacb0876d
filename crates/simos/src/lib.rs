#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # simos — node resource model
//!
//! Models the per-machine resources whose exhaustion drives the paper's
//! scalability results:
//!
//! * [`CpuServer`] — a single-core FIFO CPU with thread-count cost
//!   inflation (Pentium III 866 MHz behaviour under thousands of Java
//!   threads).
//! * [`ProcessMemory`] — JVM-style heap cap plus native memory for thread
//!   stacks; returns typed [`OomError`]s that middlewares convert into
//!   connection refusals ("ran out of memory to create new threads").
//! * [`OsModel`] — the cluster-wide service combining both.
//! * [`VmstatSampler`] / [`VmstatLog`] — the paper's `vmstat` measurement
//!   of CPU idle % and memory consumption (fig 6, fig 13).
//! * [`GcPauser`] — stop-the-world JVM collection pauses, the source of
//!   the latency tails (fig 8's 99.8 %, fig 12's multi-second p99).

pub mod cpu;
pub mod gc;
pub mod memory;
pub mod node;
pub mod vmstat;

pub use cpu::CpuServer;
pub use gc::{GcConfig, GcPauser};
pub use memory::{Bytes, OomError, OomKind, ProcessMemory};
pub use node::{Node, NodeId, NodeSpec, OsModel, ProcessId, ProcessSpec};
pub use vmstat::{VmSample, VmstatLog, VmstatSampler};
