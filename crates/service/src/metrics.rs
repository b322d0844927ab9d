//! Service-wide counters and latency distributions.
//!
//! Counters are lock-free telemetry [`Counter`]s bumped on the hot
//! path; latency/queue-wait distributions are log-bucketed telemetry
//! [`Histogram`]s (constant memory, ~9% worst-case quantile error).
//! Everything registers into one shared [`Registry`], so the same
//! numbers that back the plain-data [`ServiceMetrics`] snapshot are
//! exported verbatim by `render_prometheus`/`render_json`. The
//! historical `Reservoir` sampler lives on in this file's test module
//! as the reference implementation the histogram's nearest-rank
//! quantile semantics are pinned against.

use blinkdb_telemetry::{Counter, Histogram, Registry};

/// Internal registry owned by the service: pre-resolved handles into
/// the shared telemetry [`Registry`] so the hot path never takes the
/// registry lock.
#[derive(Debug)]
pub(crate) struct MetricsRegistry {
    /// The shared telemetry registry every handle below lives in (also
    /// fed by the maintainer, the WAL, and checkpoint timing).
    pub registry: Registry,
    pub submitted: Counter,
    pub admitted: Counter,
    /// `blinkdb_queries_rejected_total{reason="unsatisfiable"}`.
    pub rejected_unsatisfiable: Counter,
    /// `blinkdb_queries_rejected_total{reason="queue_full"}`.
    pub rejected_queue_full: Counter,
    /// `blinkdb_queries_rejected_total{reason="invalid"}`.
    pub rejected_invalid: Counter,
    pub degraded: Counter,
    pub completed: Counter,
    pub failed: Counter,
    pub deadline_misses: Counter,
    pub result_cache_hits: Counter,
    pub result_cache_misses: Counter,
    pub elp_cache_hits: Counter,
    pub elp_cache_misses: Counter,
    /// Cached [`blinkdb_core::PlanProfile`]s dropped because the
    /// workload profiler found their template's ELP calibration drifted
    /// past the configured ratio.
    pub elp_invalidations: Counter,
    pub rows_ingested: Counter,
    pub epochs_published: Counter,
    pub families_folded: Counter,
    pub families_refreshed: Counter,
    pub stale_results_purged: Counter,
    /// Batches appended to the write-ahead log (durable services only).
    pub wal_appends: Counter,
    /// Framed bytes appended to the write-ahead log.
    pub wal_bytes: Counter,
    /// Durable snapshots (checkpoint + WAL truncation) written.
    pub snapshots_written: Counter,
    /// WAL batches replayed over the latest snapshot at recovery.
    pub wal_batches_replayed: Counter,
    /// Completed queries whose error bars were closed-form throughout.
    pub closed_form_queries: Counter,
    /// Completed queries with at least one bootstrap-estimated error bar.
    pub bootstrap_queries: Counter,
    /// Simulated response times (seconds) of completed queries.
    pub sim_latencies: Histogram,
    /// Simulated response times of bootstrap-estimated queries only.
    pub bootstrap_latencies: Histogram,
    /// Simulated response times of closed-form queries only.
    pub closed_form_latencies: Histogram,
    /// Wall-clock queue waits (seconds) of every submission — completed,
    /// rejected (recorded as 0: they never queued), and degraded alike.
    pub queue_waits: Histogram,
    /// Simulated scan throughput (rows read / simulated second) of
    /// completed queries.
    pub scan_rows_per_s: Histogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new(Registry::default())
    }
}

impl MetricsRegistry {
    pub(crate) fn new(registry: Registry) -> Self {
        let c = |name: &str| registry.counter(name);
        let rejected = |reason: &str| {
            registry.counter_labeled("blinkdb_queries_rejected_total", &[("reason", reason)])
        };
        let h = |name: &str| registry.histogram(name);
        MetricsRegistry {
            submitted: c("blinkdb_queries_submitted_total"),
            admitted: c("blinkdb_queries_admitted_total"),
            rejected_unsatisfiable: rejected("unsatisfiable"),
            rejected_queue_full: rejected("queue_full"),
            rejected_invalid: rejected("invalid"),
            degraded: c("blinkdb_queries_degraded_total"),
            completed: c("blinkdb_queries_completed_total"),
            failed: c("blinkdb_queries_failed_total"),
            deadline_misses: c("blinkdb_deadline_misses_total"),
            result_cache_hits: c("blinkdb_result_cache_hits_total"),
            result_cache_misses: c("blinkdb_result_cache_misses_total"),
            elp_cache_hits: c("blinkdb_elp_cache_hits_total"),
            elp_cache_misses: c("blinkdb_elp_cache_misses_total"),
            elp_invalidations: c("blinkdb_elp_invalidations_total"),
            rows_ingested: c("blinkdb_rows_ingested_total"),
            epochs_published: c("blinkdb_epochs_published_total"),
            families_folded: c("blinkdb_families_folded_total"),
            families_refreshed: c("blinkdb_families_refreshed_total"),
            stale_results_purged: c("blinkdb_stale_results_purged_total"),
            wal_appends: c("blinkdb_wal_appends_total"),
            wal_bytes: c("blinkdb_wal_bytes_total"),
            snapshots_written: c("blinkdb_snapshots_written_total"),
            wal_batches_replayed: c("blinkdb_wal_batches_replayed_total"),
            closed_form_queries: c("blinkdb_closed_form_queries_total"),
            bootstrap_queries: c("blinkdb_bootstrap_queries_total"),
            sim_latencies: h("blinkdb_sim_latency_seconds"),
            bootstrap_latencies: h("blinkdb_bootstrap_sim_latency_seconds"),
            closed_form_latencies: h("blinkdb_closed_form_sim_latency_seconds"),
            queue_waits: h("blinkdb_queue_wait_seconds"),
            scan_rows_per_s: h("blinkdb_scan_rows_per_second"),
            registry,
        }
    }

    pub(crate) fn record_latency(&self, sim_s: f64, queue_wait_s: f64, bootstrap: bool) {
        self.sim_latencies.observe(sim_s);
        self.queue_waits.observe(queue_wait_s);
        if bootstrap {
            self.bootstrap_queries.inc();
            self.bootstrap_latencies.observe(sim_s);
        } else {
            self.closed_form_queries.inc();
            self.closed_form_latencies.observe(sim_s);
        }
    }

    /// Refreshes the derived gauges (hit rates, overheads, means) in the
    /// shared registry and returns the plain-data snapshot. Exports call
    /// this too, so a scrape always sees current derived values.
    pub(crate) fn snapshot(&self) -> ServiceMetrics {
        let result_hits = self.result_cache_hits.get();
        let result_misses = self.result_cache_misses.get();
        let elp_hits = self.elp_cache_hits.get();
        let elp_misses = self.elp_cache_misses.get();
        let result_cache_hit_rate = rate(result_hits, result_misses);
        let elp_cache_hit_rate = rate(elp_hits, elp_misses);
        let p95_boot = self.bootstrap_latencies.quantile(0.95);
        let p95_closed = self.closed_form_latencies.quantile(0.95);
        let bootstrap_p95_overhead_x = if p95_boot > 0.0 && p95_closed > 0.0 {
            p95_boot / p95_closed
        } else {
            0.0
        };
        let mean_queue_wait_s = self.queue_waits.mean();
        // Mirror the derived values as gauges so scrapes carry them.
        let g = |name: &str, v: f64| self.registry.set_gauge(name, v);
        g("blinkdb_result_cache_hit_rate", result_cache_hit_rate);
        g("blinkdb_elp_cache_hit_rate", elp_cache_hit_rate);
        g("blinkdb_bootstrap_p95_overhead_x", bootstrap_p95_overhead_x);
        g("blinkdb_mean_queue_wait_seconds", mean_queue_wait_s);
        ServiceMetrics {
            submitted: self.submitted.get(),
            admitted: self.admitted.get(),
            rejected_unsatisfiable: self.rejected_unsatisfiable.get(),
            rejected_queue_full: self.rejected_queue_full.get(),
            degraded: self.degraded.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            deadline_misses: self.deadline_misses.get(),
            result_cache_hits: result_hits,
            result_cache_misses: result_misses,
            elp_cache_hits: elp_hits,
            elp_cache_misses: elp_misses,
            elp_invalidations: self.elp_invalidations.get(),
            rows_ingested: self.rows_ingested.get(),
            epochs_published: self.epochs_published.get(),
            families_folded: self.families_folded.get(),
            families_refreshed: self.families_refreshed.get(),
            stale_results_purged: self.stale_results_purged.get(),
            wal_appends: self.wal_appends.get(),
            wal_bytes: self.wal_bytes.get(),
            snapshots_written: self.snapshots_written.get(),
            wal_batches_replayed: self.wal_batches_replayed.get(),
            closed_form_queries: self.closed_form_queries.get(),
            bootstrap_queries: self.bootstrap_queries.get(),
            result_cache_hit_rate,
            elp_cache_hit_rate,
            p50_sim_latency_s: self.sim_latencies.quantile(0.50),
            p95_sim_latency_s: self.sim_latencies.quantile(0.95),
            p99_sim_latency_s: self.sim_latencies.quantile(0.99),
            p95_bootstrap_sim_latency_s: p95_boot,
            p95_closed_form_sim_latency_s: p95_closed,
            bootstrap_p95_overhead_x,
            mean_queue_wait_s,
        }
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// A point-in-time snapshot of the service's health.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// Queries offered to `submit`.
    pub submitted: u64,
    /// Queries accepted into the run queue (includes degraded ones, and
    /// result-cache hits, which are admitted and completed instantly).
    pub admitted: u64,
    /// Rejected because no plan can meet the bound.
    pub rejected_unsatisfiable: u64,
    /// Rejected by backpressure (bounded queue full).
    pub rejected_queue_full: u64,
    /// Admitted with a relaxed error bound.
    pub degraded: u64,
    /// Queries answered successfully.
    pub completed: u64,
    /// Queries whose execution returned an error.
    pub failed: u64,
    /// Completed queries whose simulated response time exceeded their
    /// `WITHIN` bound.
    pub deadline_misses: u64,
    /// Result-cache hits.
    pub result_cache_hits: u64,
    /// Result-cache misses.
    pub result_cache_misses: u64,
    /// ELP-cache hits (a cached plan profile skipped the probe phase).
    pub elp_cache_hits: u64,
    /// ELP-cache misses (full pipeline ran and refreshed the profile).
    pub elp_cache_misses: u64,
    /// Cached plan profiles invalidated by ELP calibration drift (the
    /// workload profiler's per-template predicted-vs-actual tracking).
    pub elp_invalidations: u64,
    /// Fact rows accepted through the live-ingestion path.
    pub rows_ingested: u64,
    /// Snapshots published by the ingest/maintenance thread (each
    /// corresponds to ≥1 epoch advance: append + folds/refreshes).
    pub epochs_published: u64,
    /// Families updated by the incremental delta fold.
    pub families_folded: u64,
    /// Families fully resampled because drift crossed the threshold.
    pub families_refreshed: u64,
    /// Result-cache entries purged because their epoch was superseded.
    pub stale_results_purged: u64,
    /// Batches appended to the write-ahead log (0 on non-durable
    /// services).
    pub wal_appends: u64,
    /// Framed bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Durable snapshots (checkpoint + WAL truncation) written,
    /// including the one at construction/recovery.
    pub snapshots_written: u64,
    /// WAL batches replayed over the latest snapshot when this service
    /// was built by [`crate::QueryService::recover`].
    pub wal_batches_replayed: u64,
    /// Completed queries answered with closed-form error bars only.
    pub closed_form_queries: u64,
    /// Completed queries with ≥1 bootstrap-estimated error bar
    /// (`STDDEV`/`RATIO`, or a forced-bootstrap policy).
    pub bootstrap_queries: u64,
    /// `hits / (hits + misses)` for the result cache; 0 when unused.
    pub result_cache_hit_rate: f64,
    /// `hits / (hits + misses)` for the ELP cache; 0 when unused.
    pub elp_cache_hit_rate: f64,
    /// Median simulated response time (seconds; log-bucketed histogram
    /// estimate, ≤ ~9% relative error).
    pub p50_sim_latency_s: f64,
    /// 95th-percentile simulated response time (seconds).
    pub p95_sim_latency_s: f64,
    /// 99th-percentile simulated response time (seconds).
    pub p99_sim_latency_s: f64,
    /// p95 simulated latency over bootstrap-estimated queries only.
    pub p95_bootstrap_sim_latency_s: f64,
    /// p95 simulated latency over closed-form queries only.
    pub p95_closed_form_sim_latency_s: f64,
    /// `p95(bootstrap) / p95(closed-form)` — the observed bootstrap
    /// latency overhead; 0 until both populations have data.
    pub bootstrap_p95_overhead_x: f64,
    /// Mean wall-clock time queries spent queued (seconds), over every
    /// submission (rejections contribute 0 — they never queued).
    pub mean_queue_wait_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bounded sample of observations: fills to capacity, then replaces
    /// pseudo-randomly (deterministic in the observation count), so memory
    /// stays constant however long the service runs.
    ///
    /// Superseded on the service hot path by the telemetry histogram, but
    /// kept (with its pinning tests below) as the reference the histogram's
    /// nearest-rank quantile semantics were audited against.
    #[derive(Debug, Default)]
    struct Reservoir {
        samples: Vec<f64>,
        seen: u64,
    }

    /// 4096 f64s ≈ 32 KB per reservoir; plenty for p99 at snapshot time.
    const RESERVOIR_CAP: usize = 4096;

    impl Reservoir {
        fn push(&mut self, x: f64) {
            self.seen += 1;
            if self.samples.len() < RESERVOIR_CAP {
                self.samples.push(x);
            } else {
                // SplitMix64 of the observation count picks the slot
                // (shared stateless hash from `blinkdb_common::rng`).
                let z = blinkdb_common::rng::splitmix64(self.seen);
                let slot = (z % RESERVOIR_CAP as u64) as usize;
                self.samples[slot] = x;
            }
        }

        fn sorted(&self) -> Vec<f64> {
            let mut xs = self.samples.clone();
            xs.sort_by(|a, b| a.total_cmp(b));
            xs
        }

        fn percentile(&self, p: f64) -> f64 {
            percentile(&self.sorted(), p)
        }
    }

    /// Nearest-rank percentile over an already-sorted slice; 0.0 when empty.
    fn percentile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn percentiles_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    /// Satellite audit: pin the reservoir's quantile edge cases before
    /// porting the semantics onto log-bucketed histograms.
    #[test]
    fn reservoir_quantiles_edge_cases() {
        // Zero observations: every quantile is 0, not NaN or a panic.
        let empty = Reservoir::default();
        assert_eq!(empty.percentile(0.0), 0.0);
        assert_eq!(empty.percentile(0.5), 0.0);
        assert_eq!(empty.percentile(1.0), 0.0);

        // One observation: every quantile is that observation (rank
        // clamps to [1, n], so p→0 and p→1 both land on it).
        let mut one = Reservoir::default();
        one.push(42.0);
        assert_eq!(one.percentile(0.0), 42.0);
        assert_eq!(one.percentile(0.5), 42.0);
        assert_eq!(one.percentile(0.99), 42.0);

        // capacity+1 observations: the reservoir holds exactly CAP
        // samples, exactly one slot was replaced, and quantiles still
        // answer from the retained set.
        let mut over = Reservoir::default();
        for i in 0..=RESERVOIR_CAP {
            over.push(i as f64);
        }
        assert_eq!(over.samples.len(), RESERVOIR_CAP);
        assert_eq!(over.seen, (RESERVOIR_CAP + 1) as u64);
        let late = RESERVOIR_CAP as f64;
        assert!(
            over.samples.contains(&late),
            "the overflow observation must have replaced a slot"
        );
        let p100 = over.percentile(1.0);
        assert!(p100 >= (RESERVOIR_CAP - 1) as f64);
    }

    /// Satellite audit: p99 on small samples is the max (nearest rank
    /// rounds up), never an interpolation past the data.
    #[test]
    fn reservoir_p99_on_small_samples_is_the_max() {
        for n in [2usize, 3, 5, 10, 50] {
            let mut r = Reservoir::default();
            for i in 1..=n {
                r.push(i as f64);
            }
            assert_eq!(
                r.percentile(0.99),
                n as f64,
                "ceil(0.99·{n}) = {n} → the largest sample"
            );
        }
        // It takes ≥100 samples before p99 can sit below the max.
        let mut r = Reservoir::default();
        for i in 1..=100 {
            r.push(i as f64);
        }
        assert_eq!(r.percentile(0.99), 99.0);
    }

    /// The histogram port preserves nearest-rank semantics to within
    /// bucket resolution (~9% relative error).
    #[test]
    fn histogram_port_tracks_reservoir_quantiles() {
        let mut res = Reservoir::default();
        let hist = Histogram::new();
        for i in 1..=1000 {
            let x = i as f64 * 0.01;
            res.push(x);
            hist.observe(x);
        }
        for q in [0.5, 0.95, 0.99] {
            let want = res.percentile(q);
            let got = hist.quantile(q);
            assert!(
                (got - want).abs() / want < 0.1,
                "q={q}: histogram {got} vs reservoir {want}"
            );
        }
    }

    #[test]
    fn snapshot_rates() {
        let m = MetricsRegistry::default();
        m.result_cache_hits.add(3);
        m.result_cache_misses.add(1);
        m.record_latency(1.0, 0.1, false);
        m.record_latency(3.0, 0.3, false);
        let s = m.snapshot();
        assert!((s.result_cache_hit_rate - 0.75).abs() < 1e-12);
        assert_eq!(s.elp_cache_hit_rate, 0.0);
        // Histogram quantiles are bucket estimates: within ~9%.
        assert!((s.p50_sim_latency_s - 1.0).abs() < 0.1);
        assert!((s.p99_sim_latency_s - 3.0).abs() / 3.0 < 0.1);
        assert!((s.mean_queue_wait_s - 0.2).abs() < 1e-12);
    }

    #[test]
    fn per_method_latency_split() {
        let m = MetricsRegistry::default();
        m.record_latency(1.0, 0.0, false);
        m.record_latency(2.0, 0.0, true);
        m.record_latency(1.0, 0.0, false);
        let s = m.snapshot();
        assert_eq!(s.closed_form_queries, 2);
        assert_eq!(s.bootstrap_queries, 1);
        assert!((s.p95_closed_form_sim_latency_s - 1.0).abs() < 0.1);
        assert!((s.p95_bootstrap_sim_latency_s - 2.0).abs() < 0.2);
        assert!((s.bootstrap_p95_overhead_x - 2.0).abs() < 0.4);
        // One-sided populations report 0 overhead, not a division blowup.
        let empty = MetricsRegistry::default();
        empty.record_latency(1.0, 0.0, true);
        assert_eq!(empty.snapshot().bootstrap_p95_overhead_x, 0.0);
    }

    /// Rejection reasons share one labeled counter family in the
    /// exported registry.
    #[test]
    fn rejection_reasons_are_labeled_series() {
        let m = MetricsRegistry::default();
        m.rejected_queue_full.inc();
        m.rejected_queue_full.inc();
        m.rejected_unsatisfiable.inc();
        let text = blinkdb_telemetry::render_prometheus(&m.registry);
        assert!(text.contains("blinkdb_queries_rejected_total{reason=\"queue_full\"} 2"));
        assert!(text.contains("blinkdb_queries_rejected_total{reason=\"unsatisfiable\"} 1"));
        assert!(text.contains("blinkdb_queries_rejected_total{reason=\"invalid\"} 0"));
    }
}
