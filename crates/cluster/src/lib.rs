//! Cluster latency simulator.
//!
//! The paper's latency numbers come from a 100-node EC2 cluster running
//! Hive on Hadoop MapReduce, Shark (Hive on Spark) with and without
//! caching, and BlinkDB on Shark. We cannot rent that cluster inside a
//! library test, so this crate models the quantities those latencies are
//! made of:
//!
//! * per-node **effective scan bandwidth** by storage tier (disk vs. RAM
//!   cache) and by engine (Hive's SerDe + MR materialization overhead vs.
//!   Shark's in-memory columnar processing),
//! * **job launch overhead** (tens of seconds for Hadoop job setup vs.
//!   sub-second Spark DAG scheduling),
//! * **task scheduling waves** across `nodes × cores` slots,
//! * **shuffle** cost for GROUP BY repartitioning,
//! * a **random-I/O penalty** (used by the online-aggregation baseline,
//!   which must read data in random order, §7),
//! * deterministic per-run **jitter** so repeated executions spread the
//!   way Fig. 8's min/avg/max bars do.
//!
//! Calibration targets are taken from the paper itself (§1: full scans of
//! 10 TB take 30–45 min on disk, 5–10 min cached; §6.2: Shark-cached
//! answers a 2.5 TB aggregate in ≈112 s; BlinkDB answers 17 TB queries in
//! ≈2 s) — see `engine` for the constants and `benches/fig6c.rs` in
//! `blinkdb-bench` for the resulting reproduction of Fig. 6(c).

pub mod config;
pub mod engine;
pub mod sim;

pub use config::ClusterConfig;
pub use engine::EngineProfile;
pub use sim::{simulate_job, LatencyBreakdown, SimJob};
