//! # bench — workloads and experiment harness
//!
//! This crate holds the seeded workload generators shared by the repo
//! benchmark (`benchmark/`, which imports them by path) and by the
//! `experiments` binary that regenerates every figure, example, and
//! complexity-scaling experiment of the paper (E1–E12).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod workloads;

pub use workloads::{
    blowup_rewriting_problem, determinization_family, random_problem, random_rpq_workload,
    RandomProblemConfig, RpqWorkload,
};
