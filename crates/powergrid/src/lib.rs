#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # powergrid — the monitoring workload
//!
//! The paper's driver programs, reproduced: fleets of simulated power
//! generators with realistic telemetry dynamics, created at the paper's
//! stagger (0.5 s Narada / 1 s R-GMA), sleeping a random 10–20 s warm-up,
//! then publishing every 10 s. Payloads match the paper exactly (Narada:
//! 2 int + 5 float + 2 long + 3 double + 4 string in a MapMessage;
//! R-GMA: 4 int + 8 double + 4 char(20) in an SQL INSERT), and the
//! subscriber uses the paper's selector `id<10000`.

pub mod fleet;
pub mod generator;
pub mod gridlog_fleet;
pub mod narada_fleet;
pub mod rgma_fleet;

pub use fleet::{
    dispatch, ClientSet, Fleet, FleetConfig, FleetProtocol, FleetStats, FleetStatsHandle, Signal,
};
pub use generator::{GeneratorState, PAPER_SELECTOR, TABLE, TABLE_SQL, TOPIC};
pub use gridlog_fleet::{GridlogPublisher, GridlogSubscriber};
pub use narada_fleet::{NaradaPublisher, NaradaSubscriber};
pub use rgma_fleet::{RgmaPublisher, RgmaSubscriber};
