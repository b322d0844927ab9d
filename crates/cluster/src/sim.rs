//! Job latency simulation.
//!
//! A [`SimJob`] describes one distributed aggregation: how many MB land
//! on each node (a balanced split or a partition fan-out), which
//! storage tier serves them, and how many MB the GROUP BY shuffle
//! moves. [`simulate_job`] prices it:
//!
//! ```text
//! latency = launch
//!         + max over nodes( node_bytes / scan_bw
//!                           + ceil(node_tasks / cores) · task_overhead )
//!         + shuffle_bytes / (nodes · net_bw)
//! ```
//!
//! multiplied by a deterministic seeded jitter factor so repeated runs
//! fluctuate like a real cluster (Fig. 8's min/avg/max bars).

use crate::config::ClusterConfig;
use crate::engine::EngineProfile;
use blinkdb_common::rng::derive_seed;
use blinkdb_storage::StorageTier;

/// One distributed scan job.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// MB of input on each node (length = cluster nodes; shorter vectors
    /// are treated as zero-padded).
    pub bytes_mb_per_node: Vec<f64>,
    /// Where the input lives.
    pub tier: StorageTier,
    /// MB repartitioned for the reduce/GROUP BY phase.
    pub shuffle_mb: f64,
    /// `true` if the scan reads data in random order (OLA baseline) —
    /// pays [`ClusterConfig::random_io_penalty`] on disk.
    pub random_order: bool,
}

impl SimJob {
    /// A job whose `total_mb` input is spread evenly over the cluster.
    pub fn balanced(total_mb: f64, cluster: &ClusterConfig, tier: StorageTier) -> Self {
        let per_node = total_mb / cluster.num_nodes as f64;
        SimJob {
            bytes_mb_per_node: vec![per_node; cluster.num_nodes],
            tier,
            shuffle_mb: 0.0,
            random_order: false,
        }
    }

    /// A job whose `total_mb` input is split into `partitions` equal
    /// tasks dealt round-robin over the cluster's nodes — the fan-out of
    /// a partitioned sample scan (§4.2/§5: one partial-aggregate task
    /// per partition, merged at the driver).
    ///
    /// With one partition per node this degenerates to
    /// [`SimJob::balanced`]; with fewer partitions than nodes the scan
    /// is bound by the per-partition share (`total_mb / partitions`), so
    /// the partition count is exactly the intra-query parallel speedup
    /// the cost model sees. `partitions == 0` is treated as 1.
    pub fn fanout(
        total_mb: f64,
        partitions: usize,
        cluster: &ClusterConfig,
        tier: StorageTier,
    ) -> Self {
        let partitions = partitions.max(1);
        let per_partition = total_mb / partitions as f64;
        let mut bytes_mb_per_node = vec![0.0; cluster.num_nodes];
        for p in 0..partitions {
            bytes_mb_per_node[p % cluster.num_nodes] += per_partition;
        }
        SimJob {
            bytes_mb_per_node,
            tier,
            shuffle_mb: 0.0,
            random_order: false,
        }
    }

    /// Sets the shuffle volume.
    pub fn with_shuffle(mut self, mb: f64) -> Self {
        self.shuffle_mb = mb;
        self
    }

    /// Marks the scan as random-order.
    pub fn random_order(mut self) -> Self {
        self.random_order = true;
        self
    }

    /// Total input MB.
    pub fn total_mb(&self) -> f64 {
        self.bytes_mb_per_node.iter().sum()
    }
}

/// Phase-by-phase latency of a simulated job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Job launch overhead (s).
    pub launch_s: f64,
    /// Parallel scan makespan (s) — the straggler node.
    pub scan_s: f64,
    /// Shuffle/reduce phase (s).
    pub shuffle_s: f64,
    /// Multiplicative jitter applied (1.0 when disabled).
    pub jitter_factor: f64,
}

impl LatencyBreakdown {
    /// End-to-end seconds.
    pub fn total_s(&self) -> f64 {
        (self.launch_s + self.scan_s + self.shuffle_s) * self.jitter_factor
    }
}

/// Simulates one job run.
///
/// `run_seed` individualizes the jitter: the same seed reproduces the
/// same latency, different seeds fluctuate around the deterministic
/// model by `±cluster.jitter`.
pub fn simulate_job(
    cluster: &ClusterConfig,
    engine: &EngineProfile,
    job: &SimJob,
    run_seed: u64,
) -> LatencyBreakdown {
    let mut scan_bw = engine.scan_mbps(job.tier);
    if job.random_order && job.tier == StorageTier::Disk {
        scan_bw /= cluster.random_io_penalty.max(1.0);
    }

    // HDFS block size is 128 MB; tasks per node = blocks per node.
    const BLOCK_MB: f64 = 128.0;
    let mut scan_s = 0.0f64;
    let mut total_tasks = 0.0f64;
    for node in 0..cluster.num_nodes {
        let mb = job.bytes_mb_per_node.get(node).copied().unwrap_or(0.0);
        if mb <= 0.0 {
            continue;
        }
        let tasks = (mb / BLOCK_MB).ceil().max(1.0);
        total_tasks += tasks;
        let waves = (tasks / cluster.cores_per_node as f64).ceil();
        let node_time = mb / scan_bw + waves * engine.task_overhead_s;
        scan_s = scan_s.max(node_time);
    }
    // Central driver dispatch: serialized per-task launch cost.
    let dispatch_s = total_tasks * engine.dispatch_s_per_task;

    // Shuffle: all-to-all repartition; every node sends and receives
    // shuffle_mb / nodes, bounded by per-node NIC bandwidth.
    let shuffle_s = if job.shuffle_mb > 0.0 {
        2.0 * job.shuffle_mb / (cluster.num_nodes as f64 * cluster.net_mbps)
    } else {
        0.0
    };

    let jitter_factor = if cluster.jitter > 0.0 {
        // Deterministic uniform jitter in [1 - j, 1 + j] from the seed.
        let h = derive_seed(run_seed, 0xC1A5_7E12);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        1.0 + cluster.jitter * (2.0 * u - 1.0)
    } else {
        1.0
    };

    LatencyBreakdown {
        launch_s: engine.launch_s + dispatch_s,
        scan_s,
        shuffle_s,
        jitter_factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates a balanced scan of `total_mb` and returns seconds.
    fn scan_seconds(
        cluster: &ClusterConfig,
        engine: &EngineProfile,
        total_mb: f64,
        tier: StorageTier,
        run_seed: u64,
    ) -> f64 {
        let job = SimJob::balanced(total_mb, cluster, tier);
        simulate_job(cluster, engine, &job, run_seed).total_s()
    }

    fn no_jitter() -> ClusterConfig {
        ClusterConfig {
            jitter: 0.0,
            ..ClusterConfig::default()
        }
    }

    /// §6.2 calibration: Shark-cached answers a 2.5 TB aggregate in about
    /// 112 seconds.
    #[test]
    fn shark_cached_2_5tb_near_paper() {
        let cluster = no_jitter();
        let s = scan_seconds(
            &cluster,
            &EngineProfile::shark_cached(),
            2.5e6,
            StorageTier::Memory,
            0,
        );
        assert!(
            (80.0..160.0).contains(&s),
            "expected ≈112 s (paper), simulated {s:.1} s"
        );
    }

    /// §1 calibration: a 10 TB full scan on disk takes 30–45 minutes on
    /// Hadoop.
    #[test]
    fn hive_10tb_in_paper_band() {
        let cluster = no_jitter();
        let s = scan_seconds(
            &cluster,
            &EngineProfile::hive_on_hadoop(),
            1.0e7,
            StorageTier::Disk,
            0,
        );
        let minutes = s / 60.0;
        assert!(
            (25.0..75.0).contains(&minutes),
            "expected tens of minutes, simulated {minutes:.1} min"
        );
    }

    /// BlinkDB's headline: ~2 s on a 17 TB table via a cached sample of a
    /// few GB.
    #[test]
    fn blinkdb_sample_scan_is_seconds() {
        let cluster = no_jitter();
        // A 1% selective-column sample of 17 TB ≈ tens of GB; say 40 GB.
        let s = scan_seconds(
            &cluster,
            &EngineProfile::blinkdb(),
            40_000.0,
            StorageTier::Memory,
            0,
        );
        assert!(s < 4.0, "sample scan should be ≈2 s, got {s:.2}");
        assert!(s > 0.5);
    }

    #[test]
    fn disk_slower_than_memory_for_caching_engines() {
        let cluster = no_jitter();
        let e = EngineProfile::shark_cached();
        let disk = scan_seconds(&cluster, &e, 1e6, StorageTier::Disk, 0);
        let mem = scan_seconds(&cluster, &e, 1e6, StorageTier::Memory, 0);
        assert!(disk > mem * 1.5);
    }

    #[test]
    fn latency_scales_linearly_in_bytes() {
        // §4.2's latency-profile assumption must hold in the simulator
        // (modulo the fixed launch overhead).
        let cluster = no_jitter();
        let e = EngineProfile::blinkdb();
        let t1 = scan_seconds(&cluster, &e, 10_000.0, StorageTier::Memory, 0);
        let t2 = scan_seconds(&cluster, &e, 20_000.0, StorageTier::Memory, 0);
        let marginal1 = t1 - e.launch_s;
        let marginal2 = t2 - e.launch_s;
        assert!(
            (marginal2 / marginal1 - 2.0).abs() < 0.3,
            "expected ~2x marginal: {marginal1} vs {marginal2}"
        );
    }

    #[test]
    fn random_order_pays_penalty_on_disk_only() {
        let cluster = no_jitter();
        let e = EngineProfile::shark_no_cache();
        let seq = SimJob::balanced(1e6, &cluster, StorageTier::Disk);
        let rnd = SimJob::balanced(1e6, &cluster, StorageTier::Disk).random_order();
        let t_seq = simulate_job(&cluster, &e, &seq, 0).total_s();
        let t_rnd = simulate_job(&cluster, &e, &rnd, 0).total_s();
        assert!(t_rnd > t_seq * 3.0);

        let e = EngineProfile::shark_cached();
        let mem = SimJob::balanced(1e6, &cluster, StorageTier::Memory).random_order();
        let seq_mem = SimJob::balanced(1e6, &cluster, StorageTier::Memory);
        let a = simulate_job(&cluster, &e, &mem, 0).total_s();
        let b = simulate_job(&cluster, &e, &seq_mem, 0).total_s();
        assert!((a - b).abs() < 1e-9, "no random penalty in RAM");
    }

    #[test]
    fn skewed_placement_is_straggler_bound() {
        let cluster = no_jitter();
        let e = EngineProfile::shark_cached();
        let balanced = SimJob::balanced(1000.0, &cluster, StorageTier::Memory);
        let mut skewed = balanced.clone();
        skewed.bytes_mb_per_node = vec![0.0; cluster.num_nodes];
        skewed.bytes_mb_per_node[0] = 1000.0;
        let t_b = simulate_job(&cluster, &e, &balanced, 0).total_s();
        let t_s = simulate_job(&cluster, &e, &skewed, 0).total_s();
        assert!(t_s > t_b, "all bytes on one node must be slower");
    }

    #[test]
    fn shuffle_adds_time() {
        let cluster = no_jitter();
        let e = EngineProfile::blinkdb();
        let plain = SimJob::balanced(1000.0, &cluster, StorageTier::Memory);
        let with_shuffle = plain.clone().with_shuffle(50_000.0);
        let t0 = simulate_job(&cluster, &e, &plain, 0).total_s();
        let t1 = simulate_job(&cluster, &e, &with_shuffle, 0).total_s();
        assert!(t1 > t0);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let cluster = ClusterConfig::default(); // jitter 0.08
        let e = EngineProfile::blinkdb();
        let job = SimJob::balanced(1000.0, &cluster, StorageTier::Memory);
        let a = simulate_job(&cluster, &e, &job, 7).total_s();
        let b = simulate_job(&cluster, &e, &job, 7).total_s();
        let c = simulate_job(&cluster, &e, &job, 8).total_s();
        assert_eq!(a, b, "same seed, same latency");
        assert_ne!(a, c, "different seed perturbs");
        let base = simulate_job(
            &ClusterConfig {
                jitter: 0.0,
                ..cluster
            },
            &e,
            &job,
            7,
        )
        .total_s();
        assert!((a / base - 1.0).abs() <= 0.08 + 1e-9);
    }

    #[test]
    fn fanout_one_partition_per_node_equals_balanced() {
        let cluster = no_jitter();
        let e = EngineProfile::blinkdb();
        let balanced = SimJob::balanced(1e5, &cluster, StorageTier::Memory);
        let fanned = SimJob::fanout(1e5, cluster.num_nodes, &cluster, StorageTier::Memory);
        assert_eq!(balanced.bytes_mb_per_node, fanned.bytes_mb_per_node);
        let a = simulate_job(&cluster, &e, &balanced, 0).total_s();
        let b = simulate_job(&cluster, &e, &fanned, 0).total_s();
        assert_eq!(a, b);
    }

    #[test]
    fn fanout_speedup_scales_with_partitions() {
        // The single-query parallel speedup story: the same bytes split
        // into more partitions finish faster, straggler-bound by the
        // per-partition share.
        let cluster = no_jitter();
        let e = EngineProfile::blinkdb();
        let t = |k: usize| {
            let job = SimJob::fanout(4e5, k, &cluster, StorageTier::Memory);
            simulate_job(&cluster, &e, &job, 0).total_s()
        };
        let (t1, t2, t8) = (t(1), t(2), t(8));
        assert!(t2 < t1);
        assert!(t8 < t2);
        assert!(t1 / t8 >= 3.0, "8 partitions {t8:.1}s vs 1 {t1:.1}s");
        // Zero partitions is treated as one.
        assert_eq!(t(0), t1);
    }

    #[test]
    fn more_nodes_scan_faster() {
        let mk = |n: usize| ClusterConfig {
            jitter: 0.0,
            num_nodes: n,
            ..ClusterConfig::default()
        };
        let e = EngineProfile::shark_cached();
        let t10 = scan_seconds(&mk(10), &e, 1e6, StorageTier::Memory, 0);
        let t100 = scan_seconds(&mk(100), &e, 1e6, StorageTier::Memory, 0);
        assert!(t10 > 5.0 * t100, "10x nodes ≈ up to 10x faster scan");
    }
}
