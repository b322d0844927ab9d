//! Cluster hardware description.

/// Hardware shape of the simulated cluster.
///
/// Defaults mirror the paper's evaluation setup (§6.1): 100 EC2 extra
/// large instances, 8 cores each, 800 GB of disk and 68.4 GB RAM per
/// node (6 TB distributed cache total).
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub num_nodes: usize,
    /// Task slots (cores) per node.
    pub cores_per_node: usize,
    /// Per-node aggregate RAM cache in MB (6 TB / 100 nodes by default).
    pub cache_mb_per_node: f64,
    /// Per-node network bandwidth in MB/s (1 GbE ≈ 120 MB/s).
    pub net_mbps: f64,
    /// Factor by which random-order access degrades disk bandwidth
    /// (online aggregation's streaming-in-random-order cost, §7).
    pub random_io_penalty: f64,
    /// Relative magnitude of per-run latency jitter (0 disables).
    pub jitter: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_nodes: 100,
            cores_per_node: 8,
            cache_mb_per_node: 61_440.0, // ~60 GB usable per node
            net_mbps: 120.0,
            random_io_penalty: 6.0,
            jitter: 0.08,
        }
    }
}

impl ClusterConfig {
    /// Total distributed cache in MB.
    pub fn total_cache_mb(&self) -> f64 {
        self.cache_mb_per_node * self.num_nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = ClusterConfig::default();
        assert_eq!(c.num_nodes, 100);
        assert_eq!(c.cores_per_node, 8);
        // ~6 TB distributed cache.
        assert!((c.total_cache_mb() - 6_144_000.0).abs() < 1.0);
    }
}
