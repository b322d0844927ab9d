//! Metric names and units (the contract `BENCHMARK.json` repeats), and
//! what a run prints.

use crate::json::{obj, Json};

/// End-to-end metrics, emitted by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p95", "ms"),
    ("qps", "1/s"),
    ("ingest_rows_per_s", "rows/s"),
    ("success_frac", "frac"),
    ("bound_met_frac", "frac"),
    ("ci_coverage", "frac"),
    ("rel_err_capped_mean", "frac"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_user_byte", "B/B"),
];

/// Per-layer metrics, emitted by every traced run of every workload.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("sql.canonical_us", "us"),
    ("core.plan_us", "us"),
    ("core.hinted_us", "us"),
    ("core.fanout_us", "us"),
    ("core.probes_per_query", "count"),
    ("core.probe_rows_per_query", "rows"),
    ("core.rows_read_per_query", "rows"),
    ("core.useful_row_frac", "frac"),
    ("core.sim_elapsed_s_p50", "s"),
    ("core.create_samples_s", "s"),
    ("core.append_rows_us_per_row", "us/row"),
    ("core.fold_ms_per_batch", "ms"),
    ("core.compaction_tick_us", "us"),
    ("core.clone_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("core.checkpoint_bytes", "bytes"),
    ("core.open_ms", "ms"),
    ("storage.partition_us", "us"),
    ("storage.push_rows_per_s", "rows/s"),
    ("storage.sample_bytes_per_fact_byte", "B/B"),
    ("exec.compile_us", "us"),
    ("exec.scan_mrows_s.filter_count", "Mrows/s"),
    ("exec.scan_mrows_s.grouped_avg", "Mrows/s"),
    ("exec.scan_mrows_s.compound_sum", "Mrows/s"),
    ("exec.scan_mrows_s.quantile_ratio", "Mrows/s"),
    ("exec.scan_gb_s.filter_count", "GB/s"),
    ("exec.merge_us", "us"),
    ("exec.finish_us", "us"),
    ("exec.scan_share", "frac"),
    ("estimator.fill_multipliers_ns_per_row", "ns/row"),
    ("estimator.observe_ns_per_row", "ns/row"),
    ("estimator.b100_overhead_x.grouped_avg", "x"),
    ("estimator.b100_overhead_x.compound_sum", "x"),
    ("cluster.simulate_job_us", "us"),
    ("cluster.sim_to_wall_x", "x"),
    ("service.submit_us", "us"),
    ("service.hit_us", "us"),
    ("service.miss_us", "us"),
    ("service.overhead_us", "us"),
    ("service.queue_wait_us_p50", "us"),
    ("service.queue_wait_us_p99", "us"),
    ("service.result_cache_hit_rate", "frac"),
    ("service.elp_cache_hit_rate", "frac"),
    ("service.rejected", "count"),
    ("service.degraded", "count"),
    ("service.deadline_misses", "count"),
    ("service.flush_ms_p50", "ms"),
    ("service.flush_ms_max", "ms"),
    ("service.stall_ms_max", "ms"),
    ("service.recover_ms", "ms"),
    ("persist.encode_batch_us_per_row", "us/row"),
    ("persist.wal_append_us", "us"),
    ("persist.wal_fsync_us", "us"),
    ("persist.wal_bytes_per_user_byte", "B/B"),
    ("persist.flushes", "count"),
    ("persist.replay_ms", "ms"),
    ("telemetry.trace_overhead_frac", "frac"),
    ("telemetry.bench_span_overhead_frac", "frac"),
    ("telemetry.observe_ns", "ns"),
    ("bench.unattributed_frac", "frac"),
];

/// One measured value. `n` is the sample count behind a timing.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub n: Option<usize>,
}

/// Collects a run's metrics and self-check failures.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed (failed, refused or check-failed).
    pub attempted: u64,
    pub failed: u64,
    /// Self-checks that did not hold; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Remarks a reader needs next to the numbers (fallback percentiles,
    /// input shapes, counts).
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            value,
            n: None,
        });
    }

    pub fn put_n(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name,
            value,
            n: Some(n),
        });
    }

    /// Records `what` as a failed self-check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Holds the run to its declared metric list: each name exactly
    /// once, each value finite.
    pub fn check_against(&mut self, declared: &[(&'static str, &'static str)]) {
        for &(name, _) in declared {
            let hits: Vec<f64> = self
                .metrics
                .iter()
                .filter(|m| m.name == name)
                .map(|m| m.value)
                .collect();
            self.check(hits.len() == 1 && hits[0].is_finite(), || {
                format!(
                    "metric {name} emitted {} times, values {hits:?}",
                    hits.len()
                )
            });
        }
        let extra = self.metrics.len() as i64 - declared.len() as i64;
        self.check(extra <= 0, || format!("{extra} undeclared metrics emitted"));
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The human-readable table.
    pub fn render_table(&self, declared: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let unit = unit_of(declared, m.name);
            let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
            out.push_str(&format!("{:<40} {:>16.6} {unit}{n}\n", m.name, m.value));
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        for v in &self.violations {
            out.push_str(&format!("CHECK FAILED: {v}\n"));
        }
        out
    }

    /// The contract's result object (the last line of standard output).
    pub fn result_json(&self, declared: &[(&'static str, &'static str)]) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(unit_of(declared, m.name).into())),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
    }
}

fn unit_of(declared: &[(&'static str, &'static str)], name: &str) -> &'static str {
    declared
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| u)
}
