//! End-to-end rack benchmark of the ROS reproduction.
//!
//! Drives one seeded bench rack through one of three workloads —
//! `ingest`, `cold_read`, `audit_repair` — as a single closed-loop
//! client, and reports end-to-end metrics on the sim and wall clocks;
//! a traced run adds per-layer attribution. See `README.md` beside
//! this crate for the workloads, the metric → layer map and how to run.

#![forbid(unsafe_code)]

pub mod gen;
pub mod layers;
pub mod record;
pub mod run;
pub mod workload;
