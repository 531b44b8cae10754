//! Seeded end-to-end and per-layer benchmark of the PSCP flow.
//!
//! Six workloads — design-space exploration, plant co-simulation, dense
//! and sparse scripted simulation, loopback serving and state-space
//! exploration — each run in a child process of their own through four
//! phases: set-up, one warm-up repetition, timed repetitions of fixed
//! work, and an untimed verify against the workload's oracle. A traced
//! run adds the per-layer ledger. `BENCHMARK.md` beside this crate
//! describes the workloads and metrics.

pub mod cli;
pub mod compare;
pub mod host;
pub mod probe;
pub mod record;
pub mod rng;
pub mod runner;
pub mod span;
pub mod stats;
pub mod subject;
pub mod workloads;
