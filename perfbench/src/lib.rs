//! End-to-end and per-layer benchmark of the LISA toolchain.
//!
//! Two measured workloads — `steady_run` (the cycle loop) and
//! `fuzz_lockstep` (the five-oracle fuzzer) — each checked for
//! correctness while measured. A traced run times the calls into each
//! layer from outside the program, a closed loop of `/v1/simulate`
//! requests included. See `perfbench/README.md`.

pub mod bench;
pub mod calib;
pub mod cli;
pub mod fuzz;
pub mod host;
pub mod layers;
pub mod programs;
pub mod report;
pub mod requests;
pub mod rng;
pub mod stats;
pub mod steady;
pub mod trace;
