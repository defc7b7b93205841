//! # tag-perfbench — the TAG benchmark
//!
//! Two seeded workloads over the production defaults, each run either
//! untraced (end-to-end metrics) or traced (per-layer metrics, the
//! workspace crates being the layers). See `README.md` in this directory
//! for the metrics, the workloads and what each layer metric predicts.

#![warn(missing_docs)]

pub mod gen;
mod layers;
mod stats;
pub mod tally;
pub mod workloads;
