//! The `BlinkDb` facade: create samples offline, answer bounded queries
//! online.
//!
//! The facade owns the *maintenance-time* state (fact table, dimension
//! tables, sample families, optimizer plan). The *query-time* pipeline —
//! family selection, ELP probing, resolution choice, execution — lives in
//! [`crate::query`] and borrows all of it immutably, so a `BlinkDb`
//! behind an `Arc` can serve many concurrent queries (`BlinkDb` is
//! `Send + Sync`; only maintenance entry points take `&mut self`).

use crate::epoch::DataEpoch;
use crate::optimizer::{self, OptimizerConfig, SamplePlan};
use crate::query::PlanProfile;
use crate::sampling::{build_stratified, build_uniform, FamilyConfig, SampleFamily};
use blinkdb_cluster::{simulate_job, ClusterConfig, EngineProfile, SimJob};
use blinkdb_common::error::{BlinkError, Result};
use blinkdb_common::schema::Schema;
use blinkdb_exec::{execute, ExecOptions, QueryAnswer, RateSpec};
use blinkdb_sql::bind::{bind, BoundQuery};
use blinkdb_sql::template::{ColumnSet, WeightedTemplate};
use blinkdb_storage::{SegmentLog, SegmentMeta, StorageTier, Table, TableRef};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

/// How error bars are estimated for a query's aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorPolicy {
    /// Closed form where Table 2 has one; bootstrap for everything else
    /// (`STDDEV`, `RATIO`, future UDAFs). The default.
    #[default]
    Auto,
    /// Closed form only. Aggregates without one report
    /// [`blinkdb_exec::ErrorMethod::Unavailable`] — an *infinite* error
    /// bar, never a silent zero.
    ClosedFormOnly,
    /// Bootstrap every aggregate, even the closed-form ones — the
    /// calibration path, and the honest choice when the closed forms'
    /// independence assumptions are suspect.
    BootstrapAlways,
}

/// How a single query's final scan is executed and priced: the fan-out
/// width over the partitioned sample, the local merge concurrency, and
/// the error-estimation strategy.
///
/// Partition count feeds both sides of the Error–Latency Profile: the
/// cluster simulator fans the scan over `partitions` tasks
/// ([`blinkdb_cluster::SimJob::fanout`]), so the fitted latency model —
/// and with it every `WITHIN` resolution choice and admission decision —
/// accounts for the parallel speedup. The bootstrap replicate count
/// feeds the same surface through
/// [`bootstrap_cost_multiplier`](crate::query::bootstrap_cost_multiplier):
/// a B-replicate scan is priced `×(1 + B·c)`, so `WITHIN` deadlines stay
/// honest for bootstrapped queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Stratum-aligned partitions per resolution scan. `0` (default)
    /// means one partition per cluster node — the same layout the
    /// pre-partitioned engine priced, so defaults reproduce it exactly.
    pub partitions: usize,
    /// Worker threads scanning partitions concurrently on this host
    /// (`0` = all available cores). Purely local: it bounds real CPU
    /// use and the early-termination wave size, not the simulated
    /// cluster fan-out.
    pub parallelism: usize,
    /// When `true`, an `ERROR WITHIN` query stops launching partitions
    /// as soon as the running (extrapolated) confidence interval already
    /// meets its bound — the paper's time/error trade-off made
    /// incremental. Applies to *global* aggregates only: GROUP BY
    /// queries always complete all partitions, because a group whose
    /// rows live entirely in unscanned partitions would otherwise be
    /// silently dropped. Off by default: extrapolated answers trade a
    /// little accuracy for time, which callers must opt into.
    pub early_termination: bool,
    /// Error-estimation strategy (closed form vs bootstrap).
    pub estimator: EstimatorPolicy,
    /// Bootstrap replicate count `B`; `0` (default) means
    /// [`blinkdb_estimator::DEFAULT_REPLICATES`].
    pub bootstrap_replicates: u32,
    /// When `true`, the runtime attaches a [`blinkdb_telemetry::QueryTrace`]
    /// span tree to the answer recording where the simulated time went.
    /// Tracing only copies values the pipeline already computed — it
    /// never draws from the jitter seed stream — so the answer is
    /// bit-identical with tracing on or off. Runtime-only: the flag is
    /// not persisted with the snapshot config.
    pub trace: bool,
    /// When `true`, scans use the row-at-a-time scalar oracle instead of
    /// the vectorized columnar kernel (see
    /// [`blinkdb_exec::ExecOptions::vectorized`]). Off by default — the
    /// kernel is pinned bit-identical to the scalar path, so this flag
    /// only trades speed; it exists for differential testing.
    pub scalar_scan: bool,
}

impl ExecPolicy {
    /// The concrete fan-out width: `partitions`, defaulting to one per
    /// cluster node.
    pub fn effective_partitions(&self, cluster_nodes: usize) -> usize {
        if self.partitions == 0 {
            cluster_nodes.max(1)
        } else {
            self.partitions
        }
    }

    /// The concrete local scan concurrency, clamped to the partition
    /// count.
    pub fn effective_parallelism(&self, partitions: usize) -> usize {
        let host = if self.parallelism == 0 {
            // Asked once per process: on Linux every call re-reads the
            // cgroup files, and this runs on every final execution.
            static HOST_CORES: OnceLock<usize> = OnceLock::new();
            *HOST_CORES.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
        } else {
            self.parallelism
        };
        host.clamp(1, partitions.max(1))
    }

    /// The concrete replicate count `B`.
    pub fn effective_replicates(&self) -> u32 {
        if self.bootstrap_replicates == 0 {
            blinkdb_estimator::DEFAULT_REPLICATES
        } else {
            self.bootstrap_replicates
        }
    }

    /// The replicate count the given query will actually run with under
    /// this policy: `0` when nothing bootstraps (closed-form-only
    /// policy, or `Auto` with only closed-form aggregates).
    pub fn query_replicates(&self, query: &blinkdb_sql::ast::Query) -> u32 {
        let bootstraps = match self.estimator {
            EstimatorPolicy::ClosedFormOnly => false,
            EstimatorPolicy::BootstrapAlways => query
                .aggregates()
                .iter()
                .any(|a| !matches!(a.func, blinkdb_sql::ast::AggFunc::Quantile(_))),
            EstimatorPolicy::Auto => query.aggregates().iter().any(|a| !a.func.has_closed_form()),
        };
        if bootstraps {
            self.effective_replicates()
        } else {
            0
        }
    }
}

/// Top-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct BlinkDbConfig {
    /// Simulated cluster shape.
    pub cluster: ClusterConfig,
    /// Engine profile used for BlinkDB's own scans.
    pub engine: EngineProfile,
    /// Partitioned-execution policy for final query scans.
    pub exec: ExecPolicy,
    /// Template for stratified families (cap `K₁` in physical rows,
    /// shrink `c`, resolution count).
    pub stratified: FamilyConfig,
    /// Template for the uniform family (`cap` = largest fraction `p₁`).
    pub uniform: FamilyConfig,
    /// Optimizer settings.
    pub optimizer: OptimizerConfig,
    /// Confidence used when a query specifies none.
    pub default_confidence: f64,
    /// Base seed for sampling and jitter.
    pub seed: u64,
}

impl Default for BlinkDbConfig {
    fn default() -> Self {
        BlinkDbConfig {
            cluster: ClusterConfig::default(),
            engine: EngineProfile::blinkdb(),
            exec: ExecPolicy::default(),
            stratified: FamilyConfig::default(),
            uniform: FamilyConfig {
                cap: 0.1,
                shrink: 2.0,
                resolutions: 4,
                tier: StorageTier::Memory,
                seed: 0,
            },
            optimizer: OptimizerConfig::default(),
            default_confidence: 0.95,
            seed: 0,
        }
    }
}

/// A query answer annotated with how it was produced.
#[derive(Debug, Clone)]
pub struct ApproxAnswer {
    /// The estimates with error bars.
    pub answer: QueryAnswer,
    /// Simulated response time of the final execution (seconds).
    pub elapsed_s: f64,
    /// Simulated cost of ELP probes (seconds; §4.4 notes the probe's
    /// intermediate data is reused by the final pass, so probe cost is
    /// reported separately, not added to `elapsed_s`).
    pub probe_s: f64,
    /// Label of the family used (e.g. `uniform` or `[city]`).
    pub family: String,
    /// The query column set (GROUP BY + predicate columns, §2.1) the
    /// runtime matched against the families — the workload profiler
    /// aggregates observed mass per QCS.
    pub qcs: ColumnSet,
    /// The ELP's predicted scan seconds for the chosen resolution (the
    /// latency-model point the `WITHIN` decision was made on); `0` when
    /// no prediction backed the plan (full scans). Derived from values
    /// the pipeline already computed — never a new seed draw — so
    /// recording it cannot shift answers.
    pub predicted_s: f64,
    /// Cap / size of the chosen resolution.
    pub resolution_cap: f64,
    /// Physical rows read by the final execution.
    pub rows_read: u64,
    /// Fraction of the fact table's physical rows read.
    pub sample_fraction: f64,
    /// Partitions the final scan fanned out over (1 = monolithic scan).
    pub partitions_total: u32,
    /// Partitions actually scanned — fewer than `partitions_total` when
    /// early termination cancelled the remainder.
    pub partitions_scanned: u32,
    /// How the answer's error bars were estimated: closed form,
    /// bootstrap (with the replicate count `B` used), or unavailable.
    pub method: blinkdb_exec::ErrorMethod,
    /// Span tree recording where the simulated time went; present only
    /// when the effective [`ExecPolicy::trace`] flag was set.
    pub trace: Option<Box<blinkdb_telemetry::QueryTrace>>,
}

/// The BlinkDB instance.
///
/// # Examples
///
/// ```
/// use blinkdb_common::schema::{Field, Schema};
/// use blinkdb_common::value::{DataType, Value};
/// use blinkdb_core::blinkdb::{BlinkDb, BlinkDbConfig};
/// use blinkdb_storage::Table;
///
/// let schema = Schema::new(vec![
///     Field::new("city", DataType::Str),
///     Field::new("time", DataType::Float),
/// ]);
/// let mut t = Table::new("sessions", schema);
/// for i in 0..5000 {
///     let city = if i % 100 == 0 { "rare" } else { "common" };
///     t.push_row(&[Value::str(city), Value::Float((i % 97) as f64)]).unwrap();
/// }
/// let db = BlinkDb::new(t, BlinkDbConfig::default());
/// let ans = db
///     .query("SELECT COUNT(*) FROM sessions WHERE city = 'common' WITHIN 5 SECONDS")
///     .unwrap();
/// assert!(ans.answer.rows[0].aggs[0].estimate > 0.0);
/// ```
pub struct BlinkDb {
    pub(crate) fact: Table,
    pub(crate) dims: HashMap<String, Table>,
    pub(crate) families: Vec<SampleFamily>,
    pub(crate) plan: Option<SamplePlan>,
    pub(crate) config: BlinkDbConfig,
    pub(crate) runs: AtomicU64,
    pub(crate) epoch: DataEpoch,
    /// The arrival-time segment cover of `fact`: every applied ingest
    /// batch seals one immutable segment; compaction merges runs of
    /// them as pure metadata. The persist layer checkpoints per
    /// segment, so checkpoint cost tracks *new* data.
    pub(crate) segments: SegmentLog,
}

impl Clone for BlinkDb {
    /// Snapshot clone: everything is copied as-is; the run counter keeps
    /// its current value so simulated jitter streams do not restart.
    /// This is what the ingest/maintenance thread uses to publish a new
    /// immutable epoch while keeping its own mutable master copy.
    fn clone(&self) -> Self {
        BlinkDb {
            fact: self.fact.clone(),
            dims: self.dims.clone(),
            families: self.families.clone(),
            plan: self.plan.clone(),
            config: self.config,
            runs: AtomicU64::new(self.runs.load(std::sync::atomic::Ordering::Relaxed)),
            epoch: self.epoch,
            segments: self.segments.clone(),
        }
    }
}

impl BlinkDb {
    /// Creates an instance over a fact table. The uniform family is built
    /// immediately (it exists in every BlinkDB deployment, §2.2.1);
    /// stratified families come from [`BlinkDb::create_samples`].
    pub fn new(fact: Table, config: BlinkDbConfig) -> Self {
        let mut uniform_cfg = config.uniform;
        uniform_cfg.seed = blinkdb_common::rng::derive_seed(config.seed, 1);
        let uniform = build_uniform(&fact, uniform_cfg).expect("uniform family over fact table");
        let segments = SegmentLog::bootstrap(fact.num_rows());
        BlinkDb {
            fact,
            dims: HashMap::new(),
            families: vec![uniform],
            plan: None,
            config,
            runs: AtomicU64::new(0),
            epoch: DataEpoch::default(),
            segments,
        }
    }

    /// The current data epoch. Every mutation — appending rows, folding
    /// or refreshing a family, re-solving the sample plan — advances it,
    /// so anything derived from this instance (cached answers, fitted
    /// [`PlanProfile`]s) can be invalidated on mismatch.
    pub fn epoch(&self) -> DataEpoch {
        self.epoch
    }

    fn advance_epoch(&mut self) {
        self.epoch = self.epoch.next();
    }

    /// Registers a dimension table for JOIN queries (§2.1: dimension
    /// tables fit in memory and are never sampled).
    pub fn add_dimension(&mut self, table: Table) {
        self.dims.insert(table.name().to_ascii_lowercase(), table);
    }

    /// The fact table.
    pub fn fact(&self) -> &Table {
        &self.fact
    }

    /// Current sample families (index 0 is always the uniform family).
    pub fn families(&self) -> &[SampleFamily] {
        &self.families
    }

    /// The most recent optimizer plan, if samples were created.
    pub fn plan(&self) -> Option<&SamplePlan> {
        self.plan.as_ref()
    }

    /// Configuration access.
    pub fn config(&self) -> &BlinkDbConfig {
        &self.config
    }

    /// Replaces the configuration. Advances the epoch — the cost surface
    /// cached profiles were fitted on may no longer exist. (Maintenance
    /// no longer swaps the config to smuggle a churn budget in; see
    /// [`BlinkDb::create_samples_with_churn`].)
    pub fn set_config(&mut self, config: BlinkDbConfig) {
        self.config = config;
        self.advance_epoch();
    }

    /// Moves one family between storage tiers (cached ↔ disk), the knob
    /// behind Fig. 8(c)'s cached/no-cache comparison. Advances the epoch:
    /// cached profiles fitted the old tier's latency curve.
    pub fn set_family_tier(&mut self, idx: usize, tier: StorageTier) {
        self.families[idx].set_tier(tier);
        self.advance_epoch();
    }

    /// Swaps in a new fact table *without* rebuilding samples — models
    /// new data arriving while the existing (now possibly stale) samples
    /// keep serving queries. Maintenance (`crate::maintenance`) detects
    /// the drift and refreshes. The new table must share the old schema.
    pub fn replace_fact_for_test(&mut self, fact: Table) {
        assert_eq!(
            fact.schema(),
            self.fact.schema(),
            "replacement fact table must keep the schema"
        );
        self.fact = fact;
        self.segments = SegmentLog::bootstrap(self.fact.num_rows());
        self.advance_epoch();
    }

    /// Appends a batch of rows to the fact table (all-or-nothing, see
    /// [`Table::append_rows`]) and advances the data epoch. Samples are
    /// *not* touched: callers follow up with
    /// [`crate::maintenance::Maintainer::fold_or_refresh`] over the
    /// returned range (or [`BlinkDb::fold_family`] per family) to keep
    /// them representative — the paper's §4.5 background task, which the
    /// service tier runs off the query path.
    pub fn append_rows(
        &mut self,
        rows: &[Vec<blinkdb_common::Value>],
    ) -> Result<std::ops::Range<usize>> {
        let range = self.fact.append_rows(rows)?;
        // Seal the batch as one immutable segment. Sealing is metadata
        // over rows the epoch advance below already covers, so it
        // introduces no epoch of its own.
        self.segments.seal(range.end);
        self.advance_epoch();
        Ok(range)
    }

    /// Incrementally folds appended fact rows (`appended`, as returned
    /// by [`BlinkDb::append_rows`]) into family `idx` — per-stratum
    /// reservoir updates for stratified families, Bernoulli inclusion at
    /// the nominal rates for the uniform family
    /// ([`crate::sampling::delta`]). `O(batch + sample)` instead of the
    /// full-table resample of [`BlinkDb::refresh_family`].
    pub fn fold_family(
        &mut self,
        idx: usize,
        appended: std::ops::Range<usize>,
        seed: u64,
    ) -> Result<()> {
        if idx >= self.families.len() {
            return Err(BlinkError::internal(format!("no family {idx}")));
        }
        let family = &mut self.families[idx];
        if family.is_uniform() {
            crate::sampling::fold_uniform(family, &self.fact, appended, seed)?;
        } else {
            crate::sampling::fold_stratified(family, &self.fact, appended, seed)?;
        }
        self.advance_epoch();
        Ok(())
    }

    /// Runs the §3.2 optimizer for `templates` under
    /// `budget_fraction × logical fact bytes` of sample storage, builds
    /// the selected stratified families, and drops deselected ones.
    ///
    /// `churn` follows `config.optimizer.churn` (1.0 = unconstrained
    /// first solve).
    pub fn create_samples(
        &mut self,
        templates: &[WeightedTemplate],
        budget_fraction: f64,
    ) -> Result<SamplePlan> {
        let opt = self.config.optimizer;
        self.create_samples_inner(templates, budget_fraction, &opt)
    }

    /// [`BlinkDb::create_samples`] with an explicit churn budget `r`
    /// (eq. 5), overriding `config.optimizer.churn` for this solve only.
    /// The maintainer's workload-change path uses this so the shared
    /// configuration is never mutated — under concurrent serving, a
    /// temporary config swap would be a visible torn config.
    pub fn create_samples_with_churn(
        &mut self,
        templates: &[WeightedTemplate],
        budget_fraction: f64,
        churn: f64,
    ) -> Result<SamplePlan> {
        let mut opt = self.config.optimizer;
        opt.churn = churn.clamp(0.0, 1.0);
        self.create_samples_inner(templates, budget_fraction, &opt)
    }

    fn create_samples_inner(
        &mut self,
        templates: &[WeightedTemplate],
        budget_fraction: f64,
        opt: &OptimizerConfig,
    ) -> Result<SamplePlan> {
        let budget_bytes = budget_fraction * self.fact.logical_bytes();
        let existing: Vec<ColumnSet> = self
            .families
            .iter()
            .filter(|f| !f.is_uniform())
            .map(|f| f.columns().clone())
            .collect();
        let problem = optimizer::problem::Problem::build(
            &self.fact,
            templates,
            budget_bytes,
            &existing,
            opt,
        )?;
        let plan = optimizer::solve::solve(&problem, opt.node_limit)?;

        // Drop stratified families not in the plan; build new ones.
        self.families
            .retain(|f| f.is_uniform() || plan.selected.iter().any(|s| s == f.columns()));
        for (k, set) in plan.selected.iter().enumerate() {
            if self.families.iter().any(|f| f.columns() == set) {
                continue;
            }
            let names: Vec<String> = set.iter().map(|s| s.to_string()).collect();
            let mut cfg = self.config.stratified;
            cfg.seed = blinkdb_common::rng::derive_seed(self.config.seed, 100 + k as u64);
            let fam = build_stratified(&self.fact, &names, cfg)?;
            self.families.push(fam);
        }
        self.plan = Some(plan.clone());
        self.advance_epoch();
        Ok(plan)
    }

    /// Replaces a family's rows with a fresh resample (the §4.5
    /// background maintenance path). The family keeps its column set and
    /// configuration; only the random row choice changes.
    pub fn refresh_family(&mut self, idx: usize, seed: u64) -> Result<()> {
        if idx >= self.families.len() {
            return Err(BlinkError::internal(format!("no family {idx}")));
        }
        let old = &self.families[idx];
        let tier_override = old.tier_override;
        let mut new = if old.is_uniform() {
            let mut cfg = self.config.uniform;
            cfg.seed = seed;
            build_uniform(&self.fact, cfg)?
        } else {
            let names: Vec<String> = old.columns().iter().map(|s| s.to_string()).collect();
            let mut cfg = self.config.stratified;
            cfg.seed = seed;
            build_stratified(&self.fact, &names, cfg)?
        };
        // An explicit tier pin survives the refresh; the residency is
        // Resident by construction (the rows were just gathered in RAM).
        if let Some(t) = tier_override {
            new.set_tier(t);
        }
        self.families[idx] = new;
        self.advance_epoch();
        Ok(())
    }

    /// Promotes a loaded-from-disk family to RAM residency: its scans
    /// price at memory bandwidth from the next query on.
    ///
    /// Unlike [`BlinkDb::set_family_tier`] (an explicit *re-pricing* of
    /// the simulated cluster), page-in changes no data and rotates no
    /// seed stream, so it does **not** advance the epoch: an opened
    /// snapshot paged back into RAM reproduces the saved instance
    /// bit-for-bit — same epoch, same bootstrap replicate streams, same
    /// `WITHIN` resolution choices. Profiles fitted while the family was
    /// disk-priced merely over-estimate cost afterwards, which keeps
    /// `WITHIN` promises conservative, never broken.
    pub fn page_in_family(&mut self, idx: usize) -> Result<()> {
        if idx >= self.families.len() {
            return Err(BlinkError::internal(format!("no family {idx}")));
        }
        self.families[idx].page_in();
        Ok(())
    }

    /// [`BlinkDb::page_in_family`] for every family — the warm-up a
    /// recovered service runs when it has RAM to spare.
    pub fn page_in_all(&mut self) {
        for f in &mut self.families {
            f.page_in();
        }
    }

    /// Demotes a family to disk residency — the cold end of the
    /// [`BlinkDb::page_in_family`] pair, used by the background
    /// [`crate::maintenance::Compactor`] to shed RAM for generations
    /// the workload has gone cold on.
    ///
    /// Like page-in (and unlike [`BlinkDb::set_family_tier`]'s explicit
    /// re-pricing pin), demotion changes no data and rotates no seed
    /// stream, so it does **not** advance the epoch: answers stay
    /// bit-identical, only the simulated scan pricing shifts to disk
    /// bandwidth until the family is paged back in.
    pub fn demote_family(&mut self, idx: usize) -> Result<()> {
        if idx >= self.families.len() {
            return Err(BlinkError::internal(format!("no family {idx}")));
        }
        self.families[idx].demote();
        Ok(())
    }

    /// The arrival-time segment cover of the fact table.
    pub fn segments(&self) -> &SegmentLog {
        &self.segments
    }

    /// Merges the oldest qualifying run of at least `min_run` adjacent
    /// same-generation segments (capped at `max_rows` combined rows)
    /// into one next-generation segment. Returns the merged segment's
    /// metadata, or `None` when no run qualifies.
    ///
    /// Compaction is pure metadata — segments are contiguous
    /// arrival-order row ranges, so the merged segment covers exactly
    /// the same rows. No data changes, no seed stream rotates, and the
    /// epoch does **not** advance: readers of any published snapshot
    /// keep bit-identical answers.
    pub fn compact_segments(&mut self, min_run: usize, max_rows: usize) -> Option<SegmentMeta> {
        let plan = self.segments.compaction_plan(min_run, max_rows)?;
        Some(self.segments.apply_compaction(&plan))
    }

    /// The schema catalog (fact + dimensions) used for binding.
    pub fn catalog(&self) -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert(
            self.fact.name().to_ascii_lowercase(),
            self.fact.schema().clone(),
        );
        for (n, t) in &self.dims {
            m.insert(n.clone(), t.schema().clone());
        }
        m
    }

    pub(crate) fn dim_refs(&self) -> HashMap<String, &Table> {
        self.dims.iter().map(|(n, t)| (n.clone(), t)).collect()
    }

    /// Answers a query with BlinkDB's full pipeline (§4).
    pub fn query(&self, sql: &str) -> Result<ApproxAnswer> {
        let query = blinkdb_sql::parse(sql)?;
        self.query_parsed_with(&query, None, None)
            .map(|(answer, _)| answer)
    }

    /// Answers an already-parsed query, optionally reusing a cached
    /// [`PlanProfile`] (the Error–Latency Profile of a previous run of
    /// the same query template) to skip family selection and ELP
    /// probing, under a per-call [`ExecPolicy`] override (`None` uses
    /// `config.exec`).
    ///
    /// Returns the answer plus the profile observed on this run when the
    /// full pipeline ran (`None` when the hint was used or the query took
    /// the disjunctive path). `blinkdb-service` caches the profile per
    /// canonical query template, and pins partition fan-out and early
    /// termination per deployment without mutating the shared instance.
    pub fn query_parsed_with(
        &self,
        query: &blinkdb_sql::ast::Query,
        hint: Option<&PlanProfile>,
        policy: Option<ExecPolicy>,
    ) -> Result<(ApproxAnswer, Option<PlanProfile>)> {
        let bound = bind(query, &self.catalog())?;
        crate::query::answer_query(
            self,
            query,
            &bound,
            hint,
            policy.unwrap_or(self.config.exec),
        )
    }

    /// Parse → bind → exact vectorized execution over the full fact
    /// table: the one body behind [`BlinkDb::query_exact_audit`] and
    /// [`BlinkDb::query_full_scan`].
    fn execute_exact(&self, sql: &str) -> Result<(BoundQuery, QueryAnswer)> {
        let query = blinkdb_sql::parse(sql)?;
        let bq = bind(&query, &self.catalog())?;
        let answer = execute(
            &bq,
            TableRef::full(&self.fact),
            RateSpec::Exact,
            &self.dim_refs(),
            ExecOptions {
                confidence: self.config.default_confidence,
                bootstrap: None,
                vectorized: true,
            },
        )?;
        Ok((bq, answer))
    }

    /// Exact execution on the full fact table for the accuracy auditor:
    /// the same parse → bind → full-resolution vectorized execution as
    /// [`BlinkDb::query_full_scan`], but with *no* latency simulation —
    /// and therefore no draw from the shared run-seed stream. `&self`
    /// plus no seed means an audit can never advance the data epoch or
    /// shift the jitter seeds of subsequent queries: serving answers
    /// are bit-identical with auditing on or off. Bound clauses
    /// (`ERROR`/`WITHIN`) are ignored — ground truth is unconditional.
    pub fn query_exact_audit(&self, sql: &str) -> Result<QueryAnswer> {
        self.execute_exact(sql).map(|(_, answer)| answer)
    }

    /// Exact execution on the full fact table, priced with the given
    /// engine profile — the "no sampling" baselines of Fig. 6(c).
    pub fn query_full_scan(
        &self,
        sql: &str,
        engine: &EngineProfile,
        tier: StorageTier,
    ) -> Result<ApproxAnswer> {
        let (bq, answer) = self.execute_exact(sql)?;
        let mb = self.fact.logical_bytes() / 1e6;
        let job = SimJob::balanced(mb, &self.config.cluster, tier)
            .with_shuffle((answer.rows.len() as f64 * 128.0) / 1e6);
        let elapsed =
            simulate_job(&self.config.cluster, engine, &job, self.next_run_seed()).total_s();
        let rows = self.fact.num_rows() as u64;
        let nodes = self.config.cluster.num_nodes as u32;
        let method = answer.method();
        Ok(ApproxAnswer {
            answer,
            elapsed_s: elapsed,
            probe_s: 0.0,
            family: format!("full scan ({})", engine.name),
            qcs: bq.qcs(),
            predicted_s: 0.0,
            resolution_cap: f64::INFINITY,
            rows_read: rows,
            sample_fraction: 1.0,
            partitions_total: nodes,
            partitions_scanned: nodes,
            method,
            trace: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blinkdb_common::schema::Field;
    use blinkdb_common::value::{DataType, Value};

    /// A skewed sessions table: city zipf-ish, os uniform.
    fn sessions(n: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("os", DataType::Str),
            Field::new("time", DataType::Float),
        ]);
        let mut t = Table::new("sessions", schema);
        for i in 0..n {
            // City ranks with heavy skew: rank r gets ~n/2^r rows.
            let mut r = 1usize;
            let mut acc = n / 2;
            let mut x = i;
            while x >= acc && r < 12 {
                x -= acc;
                acc = (acc / 2).max(1);
                r += 1;
            }
            let city = format!("city{r}");
            let os = ["win", "mac", "linux"][i % 3];
            t.push_row(&[
                Value::str(&city),
                Value::str(os),
                Value::Float((i % 211) as f64),
            ])
            .unwrap();
        }
        t
    }

    fn db_with_samples(n: usize) -> BlinkDb {
        let mut cfg = BlinkDbConfig::default();
        cfg.cluster.jitter = 0.0;
        cfg.stratified.cap = 200.0;
        cfg.stratified.resolutions = 3;
        cfg.uniform.cap = 0.2;
        cfg.uniform.resolutions = 3;
        cfg.optimizer.cap = 200.0;
        let mut db = BlinkDb::new(sessions(n), cfg);
        let templates = vec![
            WeightedTemplate {
                columns: ColumnSet::from_names(["city"]),
                weight: 0.7,
            },
            WeightedTemplate {
                columns: ColumnSet::from_names(["os"]),
                weight: 0.3,
            },
        ];
        db.create_samples(&templates, 0.5).unwrap();
        db
    }

    #[test]
    fn create_samples_builds_stratified_families() {
        let db = db_with_samples(20_000);
        assert!(
            db.families().len() >= 2,
            "uniform + at least one stratified"
        );
        assert!(db.families()[0].is_uniform());
        let labels: Vec<String> = db.families().iter().map(|f| f.label()).collect();
        assert!(
            labels.iter().any(|l| l.contains("city")),
            "skewed city column should be selected: {labels:?}"
        );
        assert!(db.plan().is_some());
    }

    #[test]
    fn count_estimate_close_to_truth() {
        let db = db_with_samples(20_000);
        let exact = db
            .query_full_scan(
                "SELECT COUNT(*) FROM sessions WHERE city = 'city1'",
                &EngineProfile::shark_cached(),
                StorageTier::Memory,
            )
            .unwrap();
        let truth = exact.answer.rows[0].aggs[0].estimate;
        let approx = db
            .query("SELECT COUNT(*) FROM sessions WHERE city = 'city1' ERROR WITHIN 10% AT CONFIDENCE 95%")
            .unwrap();
        let est = approx.answer.rows[0].aggs[0].estimate;
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.15, "estimate {est} vs truth {truth} (rel {rel})");
        assert!(approx.rows_read < db.fact().num_rows() as u64);
    }

    #[test]
    fn rare_group_answered_by_stratified_family() {
        let db = db_with_samples(20_000);
        // city9 is very rare; the stratified family keeps it whole.
        let ans = db
            .query("SELECT COUNT(*) FROM sessions WHERE city = 'city9' ERROR WITHIN 10% AT CONFIDENCE 95%")
            .unwrap();
        assert!(ans.family.contains("city"), "used {}", ans.family);
        let est = ans.answer.rows[0].aggs[0].estimate;
        assert!(
            est > 0.0,
            "rare subgroup must not be missing (subset error)"
        );
    }

    #[test]
    fn time_bound_picks_resolution_within_budget() {
        let db = db_with_samples(20_000);
        let fast = db
            .query("SELECT AVG(time) FROM sessions WHERE os = 'win' WITHIN 1 SECONDS")
            .unwrap();
        assert!(
            fast.elapsed_s <= 1.6,
            "requested 1 s, simulated {:.2} s",
            fast.elapsed_s
        );
        let slow = db
            .query("SELECT AVG(time) FROM sessions WHERE os = 'win' WITHIN 10 SECONDS")
            .unwrap();
        assert!(slow.rows_read >= fast.rows_read);
    }

    #[test]
    fn tighter_error_bound_reads_more_rows() {
        let db = db_with_samples(50_000);
        let loose = db
            .query(
                "SELECT COUNT(*) FROM sessions WHERE os = 'win' ERROR WITHIN 32% AT CONFIDENCE 95%",
            )
            .unwrap();
        let tight = db
            .query(
                "SELECT COUNT(*) FROM sessions WHERE os = 'win' ERROR WITHIN 1% AT CONFIDENCE 95%",
            )
            .unwrap();
        assert!(
            tight.rows_read >= loose.rows_read,
            "tight {} vs loose {}",
            tight.rows_read,
            loose.rows_read
        );
    }

    #[test]
    fn unbounded_query_uses_largest_resolution() {
        let db = db_with_samples(20_000);
        let ans = db
            .query("SELECT COUNT(*) FROM sessions WHERE city = 'city2'")
            .unwrap();
        let fam = db
            .families()
            .iter()
            .find(|f| f.label() == ans.family)
            .unwrap();
        assert_eq!(ans.resolution_cap, fam.resolution(fam.largest()).cap);
    }

    #[test]
    fn disjunctive_query_merges_disjuncts() {
        let db = db_with_samples(20_000);
        let merged = db
            .query(
                "SELECT COUNT(*) FROM sessions WHERE city = 'city1' OR os = 'mac' WITHIN 5 SECONDS",
            )
            .unwrap();
        let exact = db
            .query_full_scan(
                "SELECT COUNT(*) FROM sessions WHERE city = 'city1' OR os = 'mac'",
                &EngineProfile::shark_cached(),
                StorageTier::Memory,
            )
            .unwrap();
        let truth = exact.answer.rows[0].aggs[0].estimate;
        let est = merged.answer.rows[0].aggs[0].estimate;
        assert!(
            (est - truth).abs() / truth < 0.2,
            "disjunctive estimate {est} vs truth {truth}"
        );
        assert!(merged.family.contains('∪') || !merged.family.is_empty());
    }

    #[test]
    fn full_scan_is_much_slower_than_sampled() {
        let db = db_with_samples(20_000);
        // Pretend the table is 1 TB.
        // (logical scale on the fixture is 1:1; compare relative times.)
        let approx = db
            .query("SELECT COUNT(*) FROM sessions WHERE os = 'win' WITHIN 2 SECONDS")
            .unwrap();
        let full = db
            .query_full_scan(
                "SELECT COUNT(*) FROM sessions WHERE os = 'win'",
                &EngineProfile::hive_on_hadoop(),
                StorageTier::Disk,
            )
            .unwrap();
        assert!(full.elapsed_s > approx.elapsed_s);
        assert_eq!(full.sample_fraction, 1.0);
    }

    #[test]
    fn refresh_family_changes_rows_not_shape() {
        let mut db = db_with_samples(20_000);
        let before_rows = db.families()[0].resolution(0).len();
        db.refresh_family(0, 999).unwrap();
        let after_rows = db.families()[0].resolution(0).len();
        assert_eq!(before_rows, after_rows);
        assert!(db.refresh_family(99, 1).is_err());
    }

    #[test]
    fn group_by_reports_per_group_errors() {
        let db = db_with_samples(20_000);
        let ans = db
            .query("SELECT os, COUNT(*), RELATIVE ERROR AT 95% CONFIDENCE FROM sessions GROUP BY os WITHIN 5 SECONDS")
            .unwrap();
        assert_eq!(ans.answer.rows.len(), 3);
        for row in &ans.answer.rows {
            assert!(row.aggs[0].estimate > 0.0);
        }
        assert_eq!(ans.answer.confidence, 0.95);
    }

    #[test]
    fn clustered_layout_prunes_phi_filtered_scans() {
        // §3.1: a stratified sample is sorted by φ, so an equality
        // predicate on φ reads only the matching stratum. The same
        // query over the uniform family must scan the whole resolution.
        let mut cfg = BlinkDbConfig::default();
        cfg.cluster.jitter = 0.0;
        cfg.stratified.cap = 200.0;
        cfg.stratified.resolutions = 1;
        cfg.uniform.cap = 0.5;
        cfg.uniform.resolutions = 1;
        cfg.optimizer.cap = 200.0;
        let fact = sessions(50_000);
        // Pretend 1 TB so scan times are macroscopic.
        let mut fact = fact;
        fact.set_logical_scale(20_000.0, 1_000);
        let mut db = BlinkDb::new(fact, cfg);
        db.create_samples(
            &[WeightedTemplate {
                columns: ColumnSet::from_names(["city"]),
                weight: 1.0,
            }],
            0.8,
        )
        .unwrap();
        let stratified = db
            .query("SELECT COUNT(*) FROM sessions WHERE city = 'city6'")
            .unwrap();
        assert!(stratified.family.contains("city"));
        // An unfiltered aggregate reads the full resolution.
        let full = db.query("SELECT COUNT(*) FROM sessions").unwrap();
        assert!(
            stratified.elapsed_s < full.elapsed_s / 2.0,
            "pruned {}s vs full {}s",
            stratified.elapsed_s,
            full.elapsed_s
        );
    }

    #[test]
    fn probe_cost_reported_separately() {
        let db = db_with_samples(20_000);
        // A query whose φ has no covering family probes all families.
        let ans = db
            .query("SELECT COUNT(*) FROM sessions WHERE time > 100 WITHIN 5 SECONDS")
            .unwrap();
        assert!(ans.probe_s > 0.0);
    }
}
