//! # cqads-benchmark — the repo benchmark
//!
//! Four replayed workloads over the CQAds engine, measured with the quiet-latency
//! estimator ([`replay`]), checked for correct answers in every run, and reported as
//! seven end-to-end metrics ([`metrics::END_TO_END`]). The sibling binary
//! `cqads-benchmark-trace` re-executes every op stage by stage through the layers'
//! public functions and reports the per-layer metrics ([`metrics::PER_LAYER`]).
//! `README.md` in this crate is the glossary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod args;
pub mod audit;
pub mod clock;
pub mod e2e;
pub mod inputs;
pub mod metrics;
pub mod replay;
pub mod stats;
pub mod sut;
pub mod workload;
