//! `blinkbench`: one wall-clock benchmark of the BlinkDB reproduction.
//!
//! Four workloads drive the workspace's public API from outside —
//! `adhoc_direct`, `dashboard_service`, `heavy_scan`, `ingest_durable` —
//! and report eleven end-to-end metrics untraced, or 62 per-layer
//! metrics in a separate traced run. `README.md` in this directory has
//! the workload rationale, the metric glossary and the layer → metric
//! map; `BENCHMARK.json` at the repository root is the contract.

pub mod checks;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod report;
pub mod sets;
pub mod spans;
pub mod stats;
pub mod workloads;
