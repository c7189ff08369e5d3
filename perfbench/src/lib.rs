//! The repository benchmark: three seeded workloads driven through the
//! simulator's public library surface, checked against dense stepping,
//! with end-to-end host/simulated metrics and a separate traced run for
//! per-layer spans and counters. See `README.md` for the metric map.

pub mod bench;
pub mod host;
pub mod micro;
pub mod pass;
pub mod stats;
pub mod trace;
pub mod workloads;
