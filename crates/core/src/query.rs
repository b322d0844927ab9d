//! The query-time pipeline (§4): family selection, ELP probing,
//! resolution choice, execution, and disjunctive merging.
//!
//! Everything here borrows a [`BlinkDb`] immutably, so any number of
//! queries can run concurrently against one shared instance. The split
//! from `blinkdb.rs` exists precisely for that: maintenance mutates,
//! queries only read.
//!
//! # Plan profiles
//!
//! A [`PlanProfile`] captures what the pipeline learned about one query
//! template — which family §4.1 selected, the probe's selectivity and
//! error, the fitted §4.2 latency model, and the clustered-layout pruning
//! fraction. Callers that see the same template repeatedly (dashboards —
//! the workload `blinkdb-service` schedules) pass the profile back as a
//! *hint*: the pipeline then skips family probing and ELP probing
//! entirely and goes straight to resolution choice and one execution.

use crate::blinkdb::{ApproxAnswer, BlinkDb, EstimatorPolicy, ExecPolicy};
use crate::runtime::elp::{fit_latency_model, required_rows_for_error, LatencyModel, ProbeStats};
use crate::runtime::selection::pick_superset_family;
use crate::sampling::SampleFamily;
use blinkdb_cluster::{simulate_job, ClusterConfig, SimJob};
use blinkdb_common::error::{BlinkError, Result};
use blinkdb_common::value::Value;
use blinkdb_estimator::BootstrapSpec;
use blinkdb_exec::{
    execute, ErrorMethod, ExecOptions, PartialAggregates, QueryAnswer, QueryPlan, RateSpec,
};
use blinkdb_sql::ast::{AggFunc, Bound, Expr, Query};
use blinkdb_sql::bind::{bind, BoundQuery};
use blinkdb_sql::dnf::to_dnf;
use blinkdb_sql::template::{template_of, ColumnSet};
use blinkdb_storage::{RowSet, StorageTier};
use blinkdb_telemetry::{QueryTrace, SpanKind, TraceSpan};
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// The Error–Latency Profile of one query template, as observed by a
/// full pipeline run (§4.2). Reusable as a hint for later queries of the
/// same template via [`BlinkDb::query_parsed_with`].
#[derive(Debug, Clone)]
pub struct PlanProfile {
    /// Index of the family §4.1 selected.
    pub family_idx: usize,
    /// The family's label at profile time; a mismatch (family churn by
    /// maintenance) invalidates the profile.
    pub family_label: String,
    /// Resolution index the ELP probe ran on.
    pub probe_resolution: usize,
    /// Rows in the probed resolution.
    pub probe_rows: u64,
    /// Rows of the probed resolution that matched the predicates.
    pub matched_rows: u64,
    /// Worst relative error observed at the probe.
    pub max_rel_error: f64,
    /// Fitted latency model over *pruned* megabytes for this family/tier.
    pub latency: LatencyModel,
    /// Fraction of a resolution the query physically reads (§3.1
    /// clustered layout).
    pub pruned_fraction: f64,
    /// Partition fan-out width the latency model was fitted at. A hint
    /// replayed under a different [`ExecPolicy`] width is rejected —
    /// its cost surface no longer matches the execution.
    pub partitions: usize,
    /// Bootstrap replicate count the latency model was fitted at (`0` =
    /// closed-form only). The fitted model bakes in the B-replicate
    /// cost multiplier, so a hint replayed under an estimator policy
    /// with a different effective `B` is rejected like a fan-out-width
    /// mismatch — its cost surface prices the wrong replicate work.
    pub bootstrap_replicates: u32,
    /// Data epoch the profile was fitted at. Ingestion, family folds,
    /// refreshes, and re-solves all advance the epoch; a profile from an
    /// older epoch measured a table that no longer exists — its latency
    /// model and error curve are stale even when the family *layout*
    /// still matches — so it is rejected like a fan-out-width mismatch.
    pub epoch: crate::epoch::DataEpoch,
}

impl PlanProfile {
    /// Whether the profile still matches the instance's family layout
    /// (maintenance may have dropped or rebuilt families since). This is
    /// the *shape* check only; [`PlanProfile::fresh_for`] adds the data
    /// epoch.
    pub fn still_valid(&self, families: &[SampleFamily]) -> bool {
        families
            .get(self.family_idx)
            .map(|f| f.label() == self.family_label && self.probe_resolution < f.num_resolutions())
            .unwrap_or(false)
    }

    /// Whether the profile can be replayed against `db`: the family
    /// layout still matches *and* the data epoch it was fitted at is
    /// still current. The query pipeline applies the same rule
    /// internally; callers caching profiles (the service's ELP cache)
    /// use this to drop stale entries up front.
    pub fn fresh_for(&self, db: &BlinkDb) -> bool {
        self.epoch == db.epoch() && self.still_valid(&db.families)
    }

    /// The smallest resolution of the profiled `family` predicted to
    /// reach error `epsilon`, extrapolating the error `observed` at the
    /// probe by §4.2's `ε ∝ 1/√n` (the largest resolution when none is
    /// big enough). `None` when the probe gives no basis to extrapolate
    /// from.
    pub fn resolution_for_error(
        &self,
        family: &SampleFamily,
        observed: f64,
        epsilon: f64,
    ) -> Option<usize> {
        let stats = ProbeStats {
            probe_rows: self.probe_rows,
            matched_rows: self.matched_rows,
            max_rel_error: observed,
        };
        let n_req = required_rows_for_error(&stats, epsilon).ok()?;
        let scale = n_req / self.matched_rows.max(1) as f64;
        let required_size = family.resolution(self.probe_resolution).len() as f64 * scale;
        Some(
            (0..family.num_resolutions())
                .find(|&i| family.resolution(i).len() as f64 >= required_size)
                .unwrap_or(family.largest()),
        )
    }

    /// Predicted seconds to scan resolution `idx` of the profiled family.
    pub fn predict_seconds(&self, family: &SampleFamily, idx: usize) -> f64 {
        self.latency
            .predict(family.resolution_bytes(idx) * self.pruned_fraction / 1e6)
    }
}

impl BlinkDb {
    pub(crate) fn next_run_seed(&self) -> u64 {
        let n = self.runs.fetch_add(1, Ordering::Relaxed);
        blinkdb_common::rng::derive_seed(self.config.seed, 0xF00D ^ n)
    }

    /// Simulated seconds for scanning `bytes` at `tier` with BlinkDB's
    /// engine, fanned out over `partitions` parallel tasks, including a
    /// small GROUP BY shuffle.
    pub(crate) fn simulate_scan(
        &self,
        bytes: f64,
        tier: StorageTier,
        groups: usize,
        partitions: usize,
        seed: u64,
    ) -> f64 {
        let mb = bytes / 1e6;
        let shuffle_mb = (groups as f64 * 128.0) / 1e6; // ~128 B per partial aggregate
        let job =
            SimJob::fanout(mb, partitions, &self.config.cluster, tier).with_shuffle(shuffle_mb);
        simulate_job(&self.config.cluster, &self.config.engine, &job, seed).total_s()
    }

    /// Latency simulation without jitter, for model fitting.
    pub(crate) fn simulate_scan_quiet(
        &self,
        bytes: f64,
        tier: StorageTier,
        partitions: usize,
    ) -> f64 {
        let mb = bytes / 1e6;
        let cluster = ClusterConfig {
            jitter: 0.0,
            ..self.config.cluster
        };
        let job = SimJob::fanout(mb, partitions, &self.config.cluster, tier);
        simulate_job(&cluster, &self.config.engine, &job, 0).total_s()
    }

    /// Jitter-free predicted seconds to scan `pruned` of resolution
    /// `resolution` of family `family_idx` at `policy`'s fan-out — the
    /// prediction an admission controller needs before committing to
    /// run a query (a service tier predicts under the same per-deployment
    /// policy it will execute with).
    pub fn predict_scan_seconds_with(
        &self,
        family_idx: usize,
        resolution: usize,
        pruned: f64,
        policy: ExecPolicy,
    ) -> f64 {
        let fam = &self.families[family_idx];
        let partitions = policy.effective_partitions(self.config.cluster.num_nodes);
        self.simulate_scan_quiet(
            fam.resolution_bytes(resolution) * pruned,
            fam.tier(),
            partitions,
        )
    }

    /// The cheapest possible execution under `policy`: the smallest
    /// resolution of the uniform family, scanned in full. A deadline
    /// below this is unsatisfiable under any plan.
    pub fn min_feasible_seconds_with(&self, policy: ExecPolicy) -> f64 {
        let uniform = &self.families[0];
        self.predict_scan_seconds_with(0, uniform.smallest(), 1.0, policy)
    }
}

/// Simulated per-byte cost coefficient of one bootstrap replicate,
/// relative to the base scan. 100 replicates price a scan at `1.9×` —
/// within the ≤2.5× envelope the single-pass engine actually measures
/// (`crates/bench/benches/calibration.rs`), and the slack keeps `WITHIN`
/// promises honest on noisy hosts.
const BOOTSTRAP_COST_PER_REPLICATE: f64 = 0.009;

/// The simulated-latency multiplier of a `B`-replicate bootstrap scan:
/// `1 + B·c`. Every cost the pipeline simulates for a bootstrapped
/// query — probes, the fitted latency model, the final scan — carries
/// it, so `WITHIN` resolution choices and service admission price the
/// replicate work instead of discovering it after the deadline.
pub fn bootstrap_cost_multiplier(replicates: u32) -> f64 {
    1.0 + replicates as f64 * BOOTSTRAP_COST_PER_REPLICATE
}

/// The bootstrap parameters this query runs with under `policy`, or
/// `None` when nothing bootstraps. The seed is derived from the
/// instance seed *and the data epoch*: the same query at the same epoch
/// draws bit-identical replicate multiplicities (reproducible error
/// bars), while any ingest/fold/refresh rotates the stream with the
/// data it describes.
fn bootstrap_spec(db: &BlinkDb, query: &Query, policy: ExecPolicy) -> Option<BootstrapSpec> {
    let replicates = policy.query_replicates(query);
    if replicates == 0 {
        return None;
    }
    Some(BootstrapSpec {
        replicates,
        seed: blinkdb_common::rng::derive_seed(db.config.seed, 0xB007_5EED ^ db.epoch().get()),
        force: matches!(policy.estimator, EstimatorPolicy::BootstrapAlways),
    })
}

/// Entry point used by [`BlinkDb::query_parsed_with`].
pub(crate) fn answer_query(
    db: &BlinkDb,
    query: &Query,
    bound: &BoundQuery,
    hint: Option<&PlanProfile>,
    policy: ExecPolicy,
) -> Result<(ApproxAnswer, Option<PlanProfile>)> {
    // §4.1.2: disjunctive WHERE → union of conjunctive subqueries, when
    // the aggregates are mergeable (COUNT/SUM). The disjunctive path has
    // per-disjunct plans, so a single-template profile does not apply.
    if let Some(w) = &query.where_clause {
        if w.has_disjunction() && aggregates_mergeable(query) {
            return answer_disjunctive(db, query, w, policy).map(|a| (a, None));
        }
    }
    // A profile hint only short-circuits bounds it recorded enough state
    // for: unbounded, time bounds, and *relative* error bounds. (Absolute
    // error bounds compare against CI half-widths in the answer's units,
    // which the profile does not carry.)
    let absolute = matches!(
        query.bound,
        Some(Bound::Error {
            relative: false,
            ..
        })
    );
    let hint = hint.filter(|h| !absolute && h.fresh_for(db));
    answer_conjunctive(db, query, bound, None, hint, policy)
}

/// The error bound an incremental partitioned execution may terminate
/// against (`ERROR WITHIN ε`, relative or absolute).
struct ErrorTarget {
    epsilon: f64,
    relative: bool,
}

/// Outcome of one (possibly partitioned, possibly early-terminated)
/// final execution.
struct FinalRun {
    answer: QueryAnswer,
    /// Fan-out width of the scan.
    partitions_total: u32,
    /// Partitions actually scanned (`< total` after early termination).
    partitions_scanned: u32,
    /// Physical sample rows read.
    rows_scanned: u64,
    /// `rows_scanned / resolution rows` — scales the byte accounting.
    rows_fraction: f64,
    /// Per scanned partition `(rows_scanned, rows_matched)`, captured
    /// only under [`ExecPolicy::trace`] (None otherwise — the hot path
    /// allocates nothing for it).
    partition_stats: Option<Vec<(u64, u64)>>,
    /// Early-termination bound checks `(after_partitions, worst_rel,
    /// worst_abs, met)`, captured only under [`ExecPolicy::trace`].
    wave_checks: Vec<(u32, f64, f64, bool)>,
}

/// The data-parallel final execution (§4.2/§5): split the chosen
/// resolution into stratum-aligned partitions, scan them on a scoped
/// thread pool in waves of `policy.parallelism`, merge the partial
/// aggregates, and — for `ERROR`-bounded queries with
/// `policy.early_termination` — stop between waves once the running
/// confidence interval (extrapolated to the full resolution by the
/// proportional-allocation weight correction) already meets the bound.
/// Locally, remaining partitions are never launched; the cluster cost
/// model prices the same outcome as all-K-wide streaming aggregation
/// cancelled at the scanned fraction — each task stops after `m/K` of
/// its bytes, which is statistically the same proportional subsample —
/// so callers charge `simulate_scan(bytes × fraction, …, K)`.
///
/// Early termination applies only to *global* aggregates: a GROUP BY
/// query may have groups whose rows live entirely in unscanned
/// partitions, and an early answer would silently drop them while still
/// claiming its bound — so grouped queries always complete all
/// partitions.
///
/// A fully-completed run merges to exactly the serial scan's state, so
/// group keys are bit-identical and estimates/error bars agree to ~1e-9
/// with [`execute`] over the same view.
fn execute_final(
    db: &BlinkDb,
    family: &SampleFamily,
    chosen_idx: usize,
    bound: &BoundQuery,
    query: &Query,
    opts: ExecOptions,
    policy: ExecPolicy,
) -> Result<FinalRun> {
    let dims = db.dim_refs();
    let (view, rates) = family.view(chosen_idx);
    let total_rows = view.len();
    let k_cfg = policy.effective_partitions(db.config.cluster.num_nodes);
    if k_cfg <= 1 || total_rows == 0 {
        let answer = execute(bound, view, rates, &dims, opts)?;
        let partition_stats = policy
            .trace
            .then(|| vec![(total_rows as u64, answer.rows_matched)]);
        return Ok(FinalRun {
            answer,
            partitions_total: 1,
            partitions_scanned: 1,
            rows_scanned: total_rows as u64,
            rows_fraction: 1.0,
            partition_stats,
            wave_checks: Vec::new(),
        });
    }

    let parts = family.partitioned(chosen_idx, k_cfg);
    let k = parts.num_partitions();
    let plan = QueryPlan::compile(bound, family.table(), &dims, opts)?;
    let scan_exact = matches!(rates, RateSpec::Exact);
    let early = match &query.bound {
        Some(Bound::Error {
            epsilon, relative, ..
        }) if policy.early_termination && !scan_exact && query.group_by.is_empty() => {
            Some(ErrorTarget {
                epsilon: *epsilon,
                relative: *relative,
            })
        }
        _ => None,
    };
    // The bound check runs *between* waves, so an armed early
    // termination caps the wave size below the partition count —
    // otherwise a wide host (parallelism ≥ k) would scan everything in
    // one wave and the opted-in incremental exit could never fire.
    let wave = match &early {
        Some(_) => policy.effective_parallelism(k).min(k.div_ceil(4)),
        None => policy.effective_parallelism(k),
    }
    .max(1);

    let mut acc = PartialAggregates::default();
    let mut partition_stats: Option<Vec<(u64, u64)>> = policy.trace.then(Vec::new);
    let mut wave_checks: Vec<(u32, f64, f64, bool)> = Vec::new();
    let mut done = 0usize;
    while done < k {
        let end = (done + wave).min(k);
        let wave_parts = &parts.partitions()[done..end];
        if wave_parts.len() == 1 {
            let p = &wave_parts[0];
            let partial = plan.scan_set(RowSet::Rows(p.rows()), rates);
            if let Some(stats) = &mut partition_stats {
                stats.push((partial.rows_scanned, partial.rows_matched));
            }
            acc.merge(partial);
        } else {
            let partials: Vec<PartialAggregates> = std::thread::scope(|scope| {
                let handles: Vec<_> = wave_parts
                    .iter()
                    .map(|p| {
                        let plan = &plan;
                        scope.spawn(move || plan.scan_set(RowSet::Rows(p.rows()), rates))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("partition scan panicked"))
                    .collect()
            });
            for partial in partials {
                if let Some(stats) = &mut partition_stats {
                    stats.push((partial.rows_scanned, partial.rows_matched));
                }
                acc.merge(partial);
            }
        }
        done = end;
        if done >= k {
            break;
        }
        if let Some(target) = &early {
            if acc.rows_matched == 0 || acc.rows_scanned == 0 {
                continue; // No evidence yet; keep scanning.
            }
            // Extrapolate: the scanned prefix of a stratum-aligned
            // partitioning is a proportionally thinner sample, so every
            // weight scales by total/scanned. The bound check computes
            // scaled error bars state-by-state — no accumulator clone.
            let alpha = parts.total_rows() as f64 / acc.rows_scanned as f64;
            let (worst_rel, worst_abs) = acc.scaled_error_bounds(alpha, plan.confidence());
            let met = if target.relative {
                worst_rel <= target.epsilon
            } else {
                worst_abs <= target.epsilon
            };
            if policy.trace {
                wave_checks.push((done as u32, worst_rel, worst_abs, met));
            }
            if met {
                let rows_scanned = acc.rows_scanned;
                acc.scale_weights(alpha);
                return Ok(FinalRun {
                    answer: plan.finish(acc, false),
                    partitions_total: k as u32,
                    partitions_scanned: done as u32,
                    rows_scanned,
                    rows_fraction: rows_scanned as f64 / parts.total_rows().max(1) as f64,
                    partition_stats,
                    wave_checks,
                });
            }
        }
    }
    let rows_scanned = acc.rows_scanned;
    let answer = plan.finish(acc, scan_exact);
    Ok(FinalRun {
        answer,
        partitions_total: k as u32,
        partitions_scanned: k as u32,
        rows_scanned,
        rows_fraction: 1.0,
        partition_stats,
        wave_checks,
    })
}

/// Synthetic even split of `rows` over `k` partitions, used when the
/// probe run doubled as the final answer (the cluster still fanned that
/// scan out at width `k`, but no per-partition partials exist).
fn even_split(rows: u64, matched: u64, k: u32) -> Vec<(u64, u64)> {
    let k = k.max(1) as u64;
    (0..k)
        .map(|i| {
            (
                rows / k + u64::from(i < rows % k),
                matched / k + u64::from(i < matched % k),
            )
        })
        .collect()
}

/// Builds the `execute` stage span of a trace from a finished run.
///
/// The stage's simulated cost is `elapsed`: the base scan portion
/// (`elapsed / mult`) is attributed across the scanned partitions
/// proportionally to rows scanned — the last partition takes the exact
/// `f64` remainder so the shares sum to the base — and the bootstrap
/// surcharge (`elapsed − base`, present when `replicates > 0`) gets its
/// own span. Wave checks, merge, and finalize are zero-cost markers.
fn execute_stage_span(run: &FinalRun, elapsed: f64, mult: f64, replicates: u32) -> TraceSpan {
    let base = elapsed / mult;
    let stats = match &run.partition_stats {
        Some(s) if !s.is_empty() => s.clone(),
        _ => even_split(
            run.rows_scanned,
            run.answer.rows_matched,
            run.partitions_scanned,
        ),
    };
    let total_rows: u64 = stats.iter().map(|&(r, _)| r).sum();
    let mut exec = TraceSpan::new(SpanKind::Execute, "");
    let mut attributed = 0.0;
    let n = stats.len();
    for (i, &(rows, matched)) in stats.iter().enumerate() {
        let cost = if i + 1 == n {
            base - attributed
        } else if total_rows == 0 {
            base / n as f64
        } else {
            base * (rows as f64 / total_rows as f64)
        };
        attributed += cost;
        let sel = if rows == 0 {
            0.0
        } else {
            matched as f64 / rows as f64
        };
        exec.push(
            TraceSpan::new(SpanKind::Partition, format!("partition {i}"))
                .with_cost(cost)
                .attr("rows_scanned", rows)
                .attr("rows_matched", matched)
                .attr("selectivity", sel),
        );
    }
    for &(after, worst_rel, worst_abs, met) in &run.wave_checks {
        exec.push(
            TraceSpan::new(SpanKind::WaveCheck, "")
                .attr("after_partitions", after)
                .attr("worst_rel", worst_rel)
                .attr("worst_abs", worst_abs)
                .attr("met", met),
        );
    }
    if replicates > 0 {
        exec.push(
            TraceSpan::new(SpanKind::Bootstrap, "")
                .with_cost(elapsed - base)
                .attr("replicates", replicates),
        );
    }
    exec.push(TraceSpan::new(SpanKind::Merge, "").attr("partials", run.partitions_scanned));
    exec.push(
        TraceSpan::new(SpanKind::Finalize, "")
            .attr("groups", run.answer.rows.len())
            .attr("rows_matched", run.answer.rows_matched),
    );
    exec.roll_up_cost();
    exec
}

fn aggregates_mergeable(query: &Query) -> bool {
    query
        .aggregates()
        .iter()
        .all(|a| matches!(a.func, AggFunc::Count | AggFunc::Sum))
}

/// §4.1.2: split `a OR b` into disjoint conjunctive subqueries
/// (`a`, `b AND NOT a`, …), answer each in parallel with its own family,
/// and merge the partial aggregates.
fn answer_disjunctive(
    db: &BlinkDb,
    query: &Query,
    where_expr: &Expr,
    policy: ExecPolicy,
) -> Result<ApproxAnswer> {
    let disjuncts = to_dnf(where_expr)?;
    let mut partials: Vec<ApproxAnswer> = Vec::with_capacity(disjuncts.len());
    let mut prior: Option<Expr> = None;
    for clause in &disjuncts {
        // Disjointness: clause AND NOT (previous clauses).
        let exec_where = match &prior {
            None => clause.clone(),
            Some(p) => Expr::And(
                Box::new(clause.clone()),
                Box::new(Expr::Not(Box::new(p.clone()))),
            ),
        };
        prior = Some(match prior {
            None => clause.clone(),
            Some(p) => Expr::Or(Box::new(p), Box::new(clause.clone())),
        });
        let sub = Query {
            where_clause: Some(exec_where),
            ..query.clone()
        };
        let sub_bound = bind(&sub, &db.catalog())?;
        // Family selection sees only the clause's own columns (§4.1.2).
        let phi: ColumnSet = clause.columns().iter().map(|s| s.as_str()).collect();
        let phi = query.group_by.iter().fold(phi, |mut acc, g| {
            acc.insert(g);
            acc
        });
        let (partial, _) = answer_conjunctive(db, &sub, &sub_bound, Some(phi), None, policy)?;
        partials.push(partial);
    }
    // Lift the per-disjunct traces out before the merge consumes the
    // partials; the merged trace nests them under one root.
    let sub_traces: Vec<Option<Box<QueryTrace>>> =
        partials.iter_mut().map(|p| p.trace.take()).collect();
    let mut merged = merge_disjoint_partials(query, partials);
    if policy.trace {
        let mut root = TraceSpan::new(SpanKind::Query, "")
            .attr("disjuncts", sub_traces.len())
            .attr("family", merged.family.clone());
        for (i, sub) in sub_traces.into_iter().enumerate() {
            if let Some(t) = sub {
                let mut s = t.root;
                s.label = format!("disjunct {i}");
                root.push(s);
            }
        }
        // Disjuncts run in parallel: the query's response time is the
        // max disjunct plus the summed probes, not the children's sum,
        // so the root cost is set directly instead of rolled up.
        root.sim_cost_s = merged.probe_s + merged.elapsed_s;
        merged.trace = Some(Box::new(QueryTrace::new(root)));
    }
    Ok(merged)
}

/// What the plan stage hands the execute stage besides the
/// [`PlanProfile`]: the ELP probe's answer — reused as the final answer
/// when the chosen resolution is the one it ran on (§4.4) — and what the
/// probes cost. The hinted path skips the plan stage and starts from
/// `Probed::default()`.
#[derive(Default)]
struct Probed {
    answer: Option<QueryAnswer>,
    cost_s: f64,
    /// One span per probe in `cost_s` accumulation order, so the plan
    /// stage's rolled-up cost equals `cost_s` bit-exactly. Filled only
    /// under [`ExecPolicy::trace`].
    spans: Vec<TraceSpan>,
}

/// The per-query constants every stage of the conjunctive pipeline
/// prices and executes with.
struct Conjunctive<'a> {
    db: &'a BlinkDb,
    query: &'a Query,
    bound: &'a BoundQuery,
    opts: ExecOptions,
    policy: ExecPolicy,
    /// Bootstrap replicate count `B` (`0` = closed form only).
    replicates: u32,
    /// The B-replicate cost multiplier. It rides every simulated cost of
    /// the query — probes, the fitted latency model, the final scan — so
    /// the whole ELP surface prices the bootstrap work.
    mult: f64,
    /// The fan-out width every scan of this query is priced at: the ELP's
    /// latency model and the final execution must see the same cost
    /// surface, or a WITHIN bound chosen from the model would not hold.
    partitions: usize,
}

/// The conjunctive pipeline: *plan* (family selection §4.1.1 + ELP
/// §4.2, or a cached profile replayed as a hint), *choose* a resolution,
/// *run* it. Returns the answer plus the [`PlanProfile`] when the plan
/// stage ran.
fn answer_conjunctive(
    db: &BlinkDb,
    query: &Query,
    bound: &BoundQuery,
    phi_override: Option<ColumnSet>,
    hint: Option<&PlanProfile>,
    policy: ExecPolicy,
) -> Result<(ApproxAnswer, Option<PlanProfile>)> {
    let boot = bootstrap_spec(db, query, policy);
    let replicates = boot.map(|s| s.replicates).unwrap_or(0);
    let stage = Conjunctive {
        db,
        query,
        bound,
        opts: ExecOptions {
            confidence: db.config.default_confidence,
            bootstrap: boot,
            vectorized: !policy.scalar_scan,
        },
        policy,
        replicates,
        mult: bootstrap_cost_multiplier(replicates),
        partitions: policy.effective_partitions(db.config.cluster.num_nodes),
    };
    // A hint's latency model was fitted at one fan-out width and bakes in
    // one replicate multiplier; replayed under another its cost surface
    // is wrong (a WITHIN bound sized from it would not hold), so the full
    // pipeline re-fits instead.
    let hint =
        hint.filter(|h| h.partitions == stage.partitions && h.bootstrap_replicates == replicates);
    if let Some(h) = hint {
        // `None`: the cached plan can't meet the time budget; let the
        // full pipeline try other families.
        if let Some(idx) = stage.choose(h, None) {
            return stage.run(h, idx, Probed::default()).map(|a| (a, None));
        }
    }

    let phi = phi_override.unwrap_or_else(|| template_of(query));
    let (mut profile, mut probed) = stage.plan(&phi, None)?;
    let mut chosen = stage.choose(&profile, probed.answer.as_ref());
    if chosen.is_none() && profile.family_idx != 0 {
        // Even the smallest resolution of this family blows the time
        // budget. The uniform family's ladder reaches much smaller
        // sizes; retry there (the §4.2 "best answer within t" contract
        // beats §4.1.1's family preference).
        (profile, probed) = stage.plan(&phi, Some(0))?;
        chosen = stage.choose(&profile, probed.answer.as_ref());
    }
    let chosen_idx = chosen.unwrap_or(db.families[profile.family_idx].smallest());
    let answer = stage.run(&profile, chosen_idx, probed)?;
    Ok((answer, Some(profile)))
}

impl Conjunctive<'_> {
    /// One probe: runs the query on resolution `idx` of `fam`, prices
    /// the scan (one jitter-seed draw), and books cost and span on
    /// `probed`. `opts` is the query's own — or, for a selection probe,
    /// the same without replicates: the price and the span read only the
    /// answer's row and group counts, which no error estimator changes,
    /// so either way the query's probe is what gets booked.
    fn probe(
        &self,
        dims: &HashMap<String, &blinkdb_storage::Table>,
        fam: &SampleFamily,
        idx: usize,
        prune: f64,
        opts: ExecOptions,
        probed: &mut Probed,
    ) -> Result<QueryAnswer> {
        let (view, rates) = fam.view(idx);
        let ans = execute(self.bound, view, rates, dims, opts)?;
        let cost = self.mult
            * self.db.simulate_scan(
                fam.resolution_bytes(idx) * prune,
                fam.tier(),
                ans.rows.len(),
                self.partitions,
                self.db.next_run_seed(),
            );
        probed.cost_s += cost;
        if self.policy.trace {
            let mut span = TraceSpan::new(SpanKind::Probe, fam.label())
                .with_cost(cost)
                .attr("resolution", idx)
                .attr("rows_scanned", ans.rows_scanned)
                .attr("rows_matched", ans.rows_matched)
                .attr("selectivity", ans.selectivity());
            if idx > fam.smallest() {
                span = span.attr("escalated", true);
            }
            probed.spans.push(span);
        }
        Ok(ans)
    }

    /// The plan stage: family selection (§4.1.1), the ELP probe with
    /// escalation past empty probes, and the latency-model fit (§4.2).
    fn plan(&self, phi: &ColumnSet, forced_family: Option<usize>) -> Result<(PlanProfile, Probed)> {
        let db = self.db;
        let dims = db.dim_refs();
        let mut probed = Probed::default();

        let selected = forced_family.or_else(|| pick_superset_family(&db.families, phi));
        let (family_idx, selection_probe) = match selected {
            Some(idx) => (idx, None),
            None => {
                // Probe the smallest resolution of every family; pick the
                // highest selected/read ratio (§4.1.1). Ratios within 5%
                // of the best are statistical ties; among tied families
                // prefer the one whose (pruned) smallest resolution is
                // cheapest to scan — the response-time side of the ELP.
                //
                // Selection reads selectivities only, so these scans
                // carry no replicates. A bootstrapped query reruns the
                // winner's below with its own options — the same
                // simulated probe, already booked — because the ELP
                // reads that probe's bootstrap error.
                let closed_form = ExecOptions {
                    bootstrap: None,
                    ..self.opts
                };
                let mut probes: Vec<(usize, f64, f64, QueryAnswer)> = Vec::new();
                for (fi, fam) in db.families.iter().enumerate() {
                    let idx = fam.smallest();
                    let prune = pruned_fraction(fam, self.bound, self.query, idx);
                    let ans = self.probe(&dims, fam, idx, prune, closed_form, &mut probed)?;
                    let bytes = fam.resolution_bytes(idx) * prune;
                    probes.push((fi, ans.selectivity(), bytes, ans));
                }
                let best_ratio = probes.iter().map(|p| p.1).fold(0.0, f64::max);
                let (fi, _, _, ans) = probes
                    .into_iter()
                    .filter(|p| p.1 >= best_ratio - 0.05)
                    .min_by(|a, b| a.2.total_cmp(&b.2))
                    .ok_or_else(|| BlinkError::internal("no sample families available"))?;
                let ans = match self.opts.bootstrap {
                    None => ans,
                    Some(_) => {
                        let (view, rates) = db.families[fi].view(db.families[fi].smallest());
                        execute(self.bound, view, rates, &dims, self.opts)?
                    }
                };
                (fi, Some(ans))
            }
        };
        let family = &db.families[family_idx];
        // Clustered-layout pruning (§3.1): the fraction of each resolution a
        // φ-filtered query physically reads.
        let prune = pruned_fraction(family, self.bound, self.query, family.smallest());

        // ---- ELP probe on the smallest resolution (the selection probe
        // already ran there), escalating past empty probes (very
        // selective queries) ----
        let mut probe_idx = family.smallest();
        let mut probe_ans = match selection_probe {
            Some(a) => a,
            None => self.probe(&dims, family, probe_idx, prune, self.opts, &mut probed)?,
        };
        while probe_ans.rows_matched == 0 && probe_idx + 1 < family.num_resolutions() {
            probe_idx += 1;
            probe_ans = self.probe(&dims, family, probe_idx, prune, self.opts, &mut probed)?;
        }

        // ---- Latency model. Fitted at the policy's fan-out width, so
        // predictions include parallel speedup; fitted ×mult, so a
        // bootstrapped template's model prices its replicate work
        // everywhere it is consumed (including cached-profile replays
        // and service-side degradation) ----
        let latency = {
            let i0 = family.smallest();
            let i1 = (i0 + 1).min(family.largest());
            let b0 = family.resolution_bytes(i0) * prune;
            let b1 = family.resolution_bytes(i1) * prune;
            let t0 = self.mult * db.simulate_scan_quiet(b0, family.tier(), self.partitions);
            let t1 = self.mult * db.simulate_scan_quiet(b1, family.tier(), self.partitions);
            fit_latency_model(b0 / 1e6, t0, b1 / 1e6, t1)
        };

        let profile = PlanProfile {
            family_idx,
            family_label: family.label(),
            probe_resolution: probe_idx,
            probe_rows: probe_ans.rows_scanned,
            matched_rows: probe_ans.rows_matched,
            max_rel_error: probe_ans.max_relative_error(),
            latency,
            pruned_fraction: prune,
            partitions: self.partitions,
            bootstrap_replicates: self.replicates,
            epoch: db.epoch(),
        };
        probed.answer = Some(probe_ans);
        Ok((profile, probed))
    }

    /// Resolution choice (§4.2) from a profile — freshly planned (with
    /// its probe answer) or replayed as a hint (`probe` is `None`).
    /// `None` means no resolution of the profiled family fits a time
    /// budget.
    fn choose(&self, profile: &PlanProfile, probe: Option<&QueryAnswer>) -> Option<usize> {
        let family = &self.db.families[profile.family_idx];
        match &self.query.bound {
            None => Some(family.largest()),
            Some(Bound::Error {
                epsilon, relative, ..
            }) => {
                // An absolute bound extrapolates from the probe's widest
                // CI half-width (the answer's own units), which a profile
                // does not carry — absolute bounds are never hinted.
                let observed = match probe {
                    Some(p) if !*relative => p
                        .rows
                        .iter()
                        .flat_map(|r| r.aggs.iter())
                        .map(|a| a.ci_half_width(p.confidence))
                        .fold(0.0, f64::max),
                    _ => profile.max_rel_error,
                };
                Some(
                    profile
                        .resolution_for_error(family, observed, *epsilon)
                        .unwrap_or(family.largest()),
                )
            }
            Some(Bound::Time { seconds }) => {
                let mb_budget = profile.latency.mb_within(*seconds);
                (0..family.num_resolutions()).rev().find(|&i| {
                    family.resolution_bytes(i) * profile.pruned_fraction / 1e6 <= mb_budget
                })
            }
        }
    }

    /// The execute stage: run the chosen resolution (§4.4 reuses the
    /// probe when it already ran there; otherwise the partitioned
    /// parallel driver fans it out), price it, and assemble the answer.
    fn run(
        &self,
        profile: &PlanProfile,
        chosen_idx: usize,
        probed: Probed,
    ) -> Result<ApproxAnswer> {
        let db = self.db;
        let family = &db.families[profile.family_idx];
        let hinted = probed.answer.is_none();
        let probe_reused = !hinted && chosen_idx == profile.probe_resolution;
        let run = match probed.answer {
            Some(answer) if probe_reused => FinalRun {
                answer,
                // The probe already covered the whole resolution; the
                // cluster still fanned it out at the policy's width.
                partitions_total: self.partitions as u32,
                partitions_scanned: self.partitions as u32,
                rows_scanned: family.resolution(chosen_idx).len() as u64,
                rows_fraction: 1.0,
                // No per-partition partials exist; the trace builder
                // synthesizes an even split over the fan-out width.
                partition_stats: None,
                wave_checks: Vec::new(),
            },
            _ => execute_final(
                db,
                family,
                chosen_idx,
                self.bound,
                self.query,
                self.opts,
                self.policy,
            )?,
        };
        // Early termination cancels in-flight work: the fan-out width stays
        // `partitions_total`, only the scanned bytes shrink.
        let scanned_bytes =
            family.resolution_bytes(chosen_idx) * profile.pruned_fraction * run.rows_fraction;
        let elapsed = self.mult
            * db.simulate_scan(
                scanned_bytes,
                family.tier(),
                run.answer.rows.len(),
                run.partitions_total.max(1) as usize,
                db.next_run_seed(),
            );
        // The model's jitter-free prediction for the same bytes the final
        // scan covered — what calibration tracking compares `elapsed_s` to.
        let predicted_s = profile.latency.predict(scanned_bytes / 1e6);
        let rows_read = run.rows_scanned;
        let method = run.answer.method();
        let trace = self.policy.trace.then(|| {
            let mut plan_span = TraceSpan::new(SpanKind::Plan, "");
            for span in probed.spans {
                plan_span.push(span);
            }
            let scan_path = if self.policy.scalar_scan {
                "scalar"
            } else {
                "vectorized"
            };
            plan_span.push(
                TraceSpan::new(SpanKind::Compile, family.label())
                    .attr("hinted", hinted)
                    .attr("resolution", chosen_idx)
                    .attr("resolution_cap", family.resolution(chosen_idx).cap)
                    .attr("pruned_fraction", profile.pruned_fraction)
                    .attr("partitions", run.partitions_total)
                    .attr("replicates", self.replicates)
                    .attr("probe_reused", probe_reused)
                    .attr("scan_path", scan_path),
            );
            plan_span.roll_up_cost();
            let exec_span = execute_stage_span(&run, elapsed, self.mult, self.replicates);
            let mut root = TraceSpan::new(SpanKind::Query, "")
                .attr("family", family.label())
                .attr("epoch", db.epoch().get());
            root.push(plan_span);
            root.push(exec_span);
            root.roll_up_cost();
            Box::new(QueryTrace::new(root))
        });
        Ok(ApproxAnswer {
            answer: run.answer,
            elapsed_s: elapsed,
            probe_s: probed.cost_s,
            family: family.label(),
            qcs: self.bound.qcs(),
            predicted_s,
            resolution_cap: family.resolution(chosen_idx).cap,
            rows_read,
            sample_fraction: rows_read as f64 / db.fact.num_rows().max(1) as f64,
            partitions_total: run.partitions_total,
            partitions_scanned: run.partitions_scanned,
            method,
            trace,
        })
    }
}

/// Fraction of a stratified resolution a query must physically read.
///
/// §3.1: each stratified sample is stored sorted by φ, so rows of a
/// stratum are contiguous and a query whose predicates constrain φ reads
/// only the matching strata ("significantly improves the execution times
/// ... of the queries on the set of columns φ"). Uniform samples have no
/// clustering and always scan fully.
///
/// The readable set is the union over DNF disjuncts of the rows matching
/// each disjunct's φ-only conjuncts (a disjunct with no φ predicate
/// forces a full scan).
fn pruned_fraction(
    family: &SampleFamily,
    bound: &BoundQuery,
    query: &Query,
    resolution: usize,
) -> f64 {
    if family.is_uniform() {
        return 1.0;
    }
    let Some(where_expr) = &query.where_clause else {
        return 1.0;
    };
    let Ok(disjuncts) = to_dnf(where_expr) else {
        return 1.0;
    };
    // Per disjunct, the conjuncts that only reference φ columns.
    let mut phi_disjuncts: Vec<Vec<Expr>> = Vec::with_capacity(disjuncts.len());
    for d in &disjuncts {
        let conjuncts = flatten_conjuncts(d);
        let phi_only: Vec<Expr> = conjuncts
            .into_iter()
            .filter(|c| {
                let cols = c.columns();
                !cols.is_empty() && cols.iter().all(|col| family.columns().contains(col))
            })
            .cloned()
            .collect();
        if phi_only.is_empty() {
            return 1.0; // This disjunct can reach every stratum.
        }
        phi_disjuncts.push(phi_only);
    }
    // Build OR(AND(φ-conjuncts)) and evaluate over the resolution.
    let mut pruned: Option<Expr> = None;
    for conjs in phi_disjuncts {
        let conj = conjs
            .into_iter()
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
            .expect("non-empty by construction");
        pruned = Some(match pruned {
            None => conj,
            Some(p) => Expr::Or(Box::new(p), Box::new(conj)),
        });
    }
    let pruned = pruned.expect("at least one disjunct");
    let table_order = vec![query.from.to_ascii_lowercase()];
    let Ok(compiled) = blinkdb_exec::predicate::compile(&pruned, bound, &table_order) else {
        return 1.0;
    };
    let (view, _) = family.view(resolution);
    if view.is_empty() {
        return 1.0;
    }
    let tables = [family.table()];
    let mut readable = 0usize;
    for physical in view.iter_physical() {
        let rows = [physical];
        let ctx = blinkdb_exec::predicate::RowCtx {
            tables: &tables,
            rows: &rows,
        };
        if compiled.matches(&ctx) {
            readable += 1;
        }
    }
    (readable as f64 / view.len() as f64).max(1e-4)
}

/// Splits a conjunctive expression into its leaf conjuncts.
fn flatten_conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::And(a, b) => {
            let mut out = flatten_conjuncts(a);
            out.extend(flatten_conjuncts(b));
            out
        }
        leaf => vec![leaf],
    }
}

/// Merges disjoint-subquery partial answers (COUNT/SUM only): estimates
/// and variances add across disjuncts; latency is the max (subqueries run
/// in parallel, §4.1.2).
fn merge_disjoint_partials(query: &Query, partials: Vec<ApproxAnswer>) -> ApproxAnswer {
    use blinkdb_exec::{AggResult, AnswerRow};
    let confidence = partials
        .first()
        .map(|p| p.answer.confidence)
        .unwrap_or(0.95);
    let agg_labels = partials
        .first()
        .map(|p| p.answer.agg_labels.clone())
        .unwrap_or_default();
    let n_aggs = agg_labels.len();

    let mut merged: HashMap<Vec<Value>, Vec<AggResult>> = HashMap::new();
    let mut rows_scanned = 0;
    let mut rows_matched = 0;
    let mut elapsed: f64 = 0.0;
    let mut predicted_s: f64 = 0.0;
    let mut probe_s = 0.0;
    let mut rows_read = 0;
    let mut partitions_total = 0u32;
    let mut partitions_scanned = 0u32;
    let mut families: Vec<String> = Vec::new();
    let mut qcs = ColumnSet::empty();
    for p in &partials {
        rows_scanned += p.answer.rows_scanned;
        rows_matched += p.answer.rows_matched;
        elapsed = elapsed.max(p.elapsed_s);
        // Disjuncts run in parallel: the prediction mirrors `elapsed_s`
        // (max across disjuncts), and the union's QCS is the union of
        // the per-disjunct bound-plan column sets.
        predicted_s = predicted_s.max(p.predicted_s);
        qcs = qcs.union(&p.qcs);
        probe_s += p.probe_s;
        rows_read += p.rows_read;
        // Disjuncts run in parallel (elapsed is their max); report the
        // widest disjunct's fan-out, keeping its scanned count paired so
        // `scanned < total` still signals early termination.
        match p.partitions_total.cmp(&partitions_total) {
            std::cmp::Ordering::Greater => {
                partitions_total = p.partitions_total;
                partitions_scanned = p.partitions_scanned;
            }
            std::cmp::Ordering::Equal => {
                partitions_scanned = partitions_scanned.min(p.partitions_scanned);
            }
            std::cmp::Ordering::Less => {}
        }
        if !families.contains(&p.family) {
            families.push(p.family.clone());
        }
        for row in &p.answer.rows {
            let entry = merged.entry(row.group.clone()).or_insert_with(|| {
                vec![
                    AggResult {
                        estimate: 0.0,
                        variance: 0.0,
                        rows_used: 0,
                        exact: true,
                        method: ErrorMethod::ClosedForm,
                    };
                    n_aggs
                ]
            });
            for (acc, a) in entry.iter_mut().zip(&row.aggs) {
                acc.estimate += a.estimate;
                acc.variance += a.variance;
                acc.rows_used += a.rows_used;
                acc.exact &= a.exact;
                // Disjunct variances add, so the merged method is the
                // "strongest" constituent: bootstrap taints the union
                // (its spread is part of the sum), and a missing error
                // estimate anywhere leaves the union without one.
                acc.method = match (acc.method, a.method) {
                    (
                        ErrorMethod::Bootstrap { replicates: x },
                        ErrorMethod::Bootstrap { replicates: y },
                    ) => ErrorMethod::Bootstrap {
                        replicates: x.max(y),
                    },
                    (b @ ErrorMethod::Bootstrap { .. }, _)
                    | (_, b @ ErrorMethod::Bootstrap { .. }) => b,
                    (ErrorMethod::Unavailable, _) | (_, ErrorMethod::Unavailable) => {
                        ErrorMethod::Unavailable
                    }
                    _ => ErrorMethod::ClosedForm,
                };
            }
        }
    }
    let mut rows: Vec<AnswerRow> = merged
        .into_iter()
        .map(|(group, aggs)| AnswerRow { group, aggs })
        .collect();
    rows.sort_by(|a, b| {
        let ka: Vec<String> = a.group.iter().map(|v| v.to_string()).collect();
        let kb: Vec<String> = b.group.iter().map(|v| v.to_string()).collect();
        ka.cmp(&kb)
    });

    let sample_fraction = partials
        .iter()
        .map(|p| p.sample_fraction)
        .fold(0.0, f64::max);
    let answer = QueryAnswer {
        group_columns: query.group_by.clone(),
        agg_labels,
        rows,
        rows_scanned,
        rows_matched,
        confidence,
    };
    let method = answer.method();
    ApproxAnswer {
        answer,
        elapsed_s: elapsed,
        probe_s,
        family: families.join(" ∪ "),
        qcs,
        predicted_s,
        resolution_cap: f64::NAN,
        rows_read,
        sample_fraction,
        partitions_total,
        partitions_scanned,
        method,
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blinkdb::BlinkDbConfig;
    use blinkdb_common::schema::{Field, Schema};
    use blinkdb_common::value::DataType;
    use blinkdb_sql::template::WeightedTemplate;
    use blinkdb_storage::Table;

    fn profiled(
        db: &BlinkDb,
        sql: &str,
        hint: Option<&PlanProfile>,
    ) -> Result<(ApproxAnswer, Option<PlanProfile>)> {
        db.query_parsed_with(&blinkdb_sql::parse(sql)?, hint, None)
    }

    fn fixture_db() -> BlinkDb {
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("t", DataType::Float),
        ]);
        let mut t = Table::new("s", schema);
        for i in 0..20_000 {
            let city = format!("city{}", i % 40);
            t.push_row(&[Value::str(&city), Value::Float((i % 113) as f64)])
                .unwrap();
        }
        let mut cfg = BlinkDbConfig::default();
        cfg.cluster.jitter = 0.0;
        cfg.stratified.cap = 100.0;
        cfg.stratified.resolutions = 3;
        cfg.uniform.resolutions = 3;
        cfg.optimizer.cap = 100.0;
        let mut db = BlinkDb::new(t, cfg);
        db.create_samples(
            &[WeightedTemplate {
                columns: ColumnSet::from_names(["city"]),
                weight: 1.0,
            }],
            0.6,
        )
        .unwrap();
        db
    }

    /// A full run yields a profile; replaying it as a hint answers the
    /// same template without probing (probe_s == 0) and picks the same
    /// family.
    #[test]
    fn profile_roundtrip_skips_probes() {
        let db = fixture_db();
        let sql = "SELECT COUNT(*) FROM s WHERE city = 'city3' WITHIN 5 SECONDS";
        let (cold, profile) = profiled(&db, sql, None).unwrap();
        let profile = profile.expect("conjunctive run must yield a profile");
        assert!(profile.still_valid(db.families()));

        let sql2 = "SELECT COUNT(*) FROM s WHERE city = 'city7' WITHIN 5 SECONDS";
        let (warm, refreshed) = profiled(&db, sql2, Some(&profile)).unwrap();
        assert!(refreshed.is_none(), "hinted run returns no new profile");
        assert_eq!(warm.family, cold.family);
        assert_eq!(warm.probe_s, 0.0, "hint must skip ELP probes");
        assert!(warm.answer.rows[0].aggs[0].estimate > 0.0);
    }

    /// A stale profile (family index out of range / label mismatch) is
    /// rejected and the full pipeline runs.
    #[test]
    fn stale_profile_falls_back_to_full_pipeline() {
        let db = fixture_db();
        let sql = "SELECT COUNT(*) FROM s WHERE city = 'city3' WITHIN 5 SECONDS";
        let (_, profile) = profiled(&db, sql, None).unwrap();
        let mut stale = profile.unwrap();
        stale.family_label = "[somewhere-else]".into();
        let (ans, fresh) = profiled(&db, sql, Some(&stale)).unwrap();
        assert!(fresh.is_some(), "full pipeline must run on a stale hint");
        assert!(ans.answer.rows[0].aggs[0].estimate > 0.0);
    }

    /// A profile fitted before an ingest (epoch mismatch) is rejected
    /// even though the family layout looks unchanged — its latency model
    /// and error curve measured a table that no longer exists.
    #[test]
    fn profile_from_older_epoch_falls_back_to_full_pipeline() {
        let mut db = fixture_db();
        let sql = "SELECT COUNT(*) FROM s WHERE city = 'city3' WITHIN 5 SECONDS";
        let (_, profile) = profiled(&db, sql, None).unwrap();
        let profile = profile.unwrap();
        assert!(profile.fresh_for(&db));
        let batch: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::str("city3"), Value::Float(i as f64)])
            .collect();
        let range = db.append_rows(&batch).unwrap();
        db.fold_family(0, range, 1).unwrap();
        assert!(
            !profile.fresh_for(&db),
            "epoch advanced; the profile is stale"
        );
        assert!(
            profile.still_valid(db.families()),
            "shape check alone would wrongly accept it"
        );
        let (ans, fresh) = profiled(&db, sql, Some(&profile)).unwrap();
        assert!(
            fresh.is_some(),
            "full pipeline must re-run and re-fit on a stale-epoch hint"
        );
        assert_eq!(fresh.unwrap().epoch, db.epoch());
        assert!(ans.answer.rows[0].aggs[0].estimate > 0.0);
    }

    /// An unbounded hinted query uses the largest resolution, like the
    /// cold path.
    #[test]
    fn hinted_unbounded_uses_largest_resolution() {
        let db = fixture_db();
        let sql = "SELECT COUNT(*) FROM s WHERE city = 'city3'";
        let (cold, profile) = profiled(&db, sql, None).unwrap();
        let (warm, _) = profiled(&db, sql, profile.as_ref()).unwrap();
        assert_eq!(warm.resolution_cap, cold.resolution_cap);
        assert_eq!(warm.rows_read, cold.rows_read);
    }

    /// A macroscopic fixture: paper-scale logical bytes so simulated
    /// scan times dominate launch overheads.
    fn scaled_db() -> BlinkDb {
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("t", DataType::Float),
        ]);
        let mut t = Table::new("s", schema);
        for i in 0..40_000 {
            let city = format!("city{}", i % 40);
            t.push_row(&[Value::str(&city), Value::Float((i % 113) as f64)])
                .unwrap();
        }
        t.set_logical_scale(20_000.0, 1_000);
        let mut cfg = BlinkDbConfig::default();
        cfg.cluster.jitter = 0.0;
        cfg.stratified.cap = 400.0;
        cfg.stratified.resolutions = 5;
        cfg.uniform.resolutions = 3;
        cfg.optimizer.cap = 400.0;
        let mut db = BlinkDb::new(t, cfg);
        db.create_samples(
            &[WeightedTemplate {
                columns: ColumnSet::from_names(["city"]),
                weight: 1.0,
            }],
            0.6,
        )
        .unwrap();
        db
    }

    /// The partitioned merge path reproduces the serial path: identical
    /// group keys, estimates and error bars within 1e-9, for any K.
    #[test]
    fn partitioned_final_matches_serial() {
        let db = fixture_db();
        let sql = "SELECT city, COUNT(*), AVG(t) FROM s WHERE t < 60 GROUP BY city";
        let q = blinkdb_sql::parse(sql).unwrap();
        let serial = ExecPolicy {
            partitions: 1,
            parallelism: 1,
            early_termination: false,
            ..ExecPolicy::default()
        };
        let (base, _) = db.query_parsed_with(&q, None, Some(serial)).unwrap();
        assert_eq!(base.partitions_total, 1);
        for k in [2usize, 5, 8] {
            let policy = ExecPolicy {
                partitions: k,
                parallelism: 4,
                early_termination: false,
                ..ExecPolicy::default()
            };
            let (par, _) = db.query_parsed_with(&q, None, Some(policy)).unwrap();
            assert_eq!(par.partitions_total, k as u32);
            assert_eq!(par.partitions_scanned, k as u32);
            assert_eq!(par.rows_read, base.rows_read);
            assert_eq!(par.answer.rows.len(), base.answer.rows.len());
            for (a, b) in par.answer.rows.iter().zip(&base.answer.rows) {
                assert_eq!(a.group, b.group, "bit-identical group keys (k={k})");
                for (x, y) in a.aggs.iter().zip(&b.aggs) {
                    let tol = 1e-9 * y.estimate.abs().max(1.0);
                    assert!((x.estimate - y.estimate).abs() <= tol, "k={k}");
                    let hx = x.ci_half_width(par.answer.confidence);
                    let hy = y.ci_half_width(base.answer.confidence);
                    assert!((hx - hy).abs() <= 1e-9 * hy.abs().max(1.0), "k={k}");
                }
            }
        }
    }

    /// More partitions → faster simulated single-query latency (the
    /// partition count reaches the cost model through `SimJob::fanout`).
    #[test]
    fn partition_fanout_speeds_up_sim_clock() {
        let db = scaled_db();
        let q = blinkdb_sql::parse("SELECT COUNT(*) FROM s").unwrap();
        let elapsed = |k: usize| {
            let policy = ExecPolicy {
                partitions: k,
                parallelism: 2,
                early_termination: false,
                ..ExecPolicy::default()
            };
            let (ans, _) = db.query_parsed_with(&q, None, Some(policy)).unwrap();
            ans.elapsed_s
        };
        let (t1, t8) = (elapsed(1), elapsed(8));
        assert!(
            t1 / t8 >= 3.0,
            "8 partitions must be ≥3x faster: {t1:.2}s vs {t8:.2}s"
        );
    }

    /// With early termination enabled, an ERROR-bounded query whose
    /// chosen resolution overshoots the bound cancels remaining
    /// partitions — and the extrapolated answer still meets the bound
    /// and stays near the truth.
    #[test]
    fn early_termination_cancels_partitions_and_meets_bound() {
        let db = scaled_db();
        let truth = 40_000.0 / 113.0 * 60.0; // COUNT(t < 60) ≈ 21 240
        let mut fired = false;
        for eps_pct in [2.0f64, 3.0, 4.0, 6.0, 8.0, 12.0] {
            let sql = format!(
                "SELECT COUNT(*) FROM s WHERE t < 60 ERROR WITHIN {eps_pct}% AT CONFIDENCE 95%"
            );
            let q = blinkdb_sql::parse(&sql).unwrap();
            // Default parallelism (all host cores): the armed check must
            // still run between waves regardless of host width.
            let policy = ExecPolicy {
                partitions: 16,
                parallelism: 0,
                early_termination: true,
                ..ExecPolicy::default()
            };
            let (ans, _) = db.query_parsed_with(&q, None, Some(policy)).unwrap();
            let est = ans.answer.rows[0].aggs[0].estimate;
            assert!(
                (est - truth).abs() / truth < 0.2,
                "eps {eps_pct}%: estimate {est} vs truth {truth}"
            );
            if ans.partitions_scanned < ans.partitions_total {
                fired = true;
                assert!(
                    ans.answer.max_relative_error() <= eps_pct / 100.0 + 1e-12,
                    "terminated early but bound unmet at {eps_pct}%"
                );
                assert!(ans.rows_read > 0);
            }
        }
        assert!(
            fired,
            "no epsilon in the sweep triggered early termination — \
             the incremental path never exercised"
        );
    }

    /// A profile fitted at one fan-out width is rejected when replayed
    /// under another — its latency model prices the wrong cost surface.
    #[test]
    fn hint_fitted_at_other_fanout_falls_back_to_full_pipeline() {
        let db = fixture_db();
        let sql = "SELECT COUNT(*) FROM s WHERE city = 'city3' WITHIN 5 SECONDS";
        let q = blinkdb_sql::parse(sql).unwrap();
        let eight = ExecPolicy {
            partitions: 8,
            parallelism: 2,
            early_termination: false,
            ..ExecPolicy::default()
        };
        let (_, profile) = db.query_parsed_with(&q, None, Some(eight)).unwrap();
        let profile = profile.unwrap();
        assert_eq!(profile.partitions, 8);
        // Same width: the hint short-circuits (no fresh profile).
        let (_, refreshed) = db
            .query_parsed_with(&q, Some(&profile), Some(eight))
            .unwrap();
        assert!(refreshed.is_none());
        // Different width: full pipeline re-runs and re-fits.
        let one = ExecPolicy {
            partitions: 1,
            parallelism: 1,
            early_termination: false,
            ..ExecPolicy::default()
        };
        let (_, refit) = db.query_parsed_with(&q, Some(&profile), Some(one)).unwrap();
        assert_eq!(refit.expect("must re-profile").partitions, 1);
    }

    /// GROUP BY queries never early-terminate — a group whose rows live
    /// entirely in unscanned partitions would be silently dropped.
    #[test]
    fn grouped_queries_always_complete_all_partitions() {
        let db = scaled_db();
        let sql = "SELECT city, COUNT(*) FROM s GROUP BY city \
                   ERROR WITHIN 50% AT CONFIDENCE 95%";
        let q = blinkdb_sql::parse(sql).unwrap();
        let policy = ExecPolicy {
            partitions: 8,
            parallelism: 2,
            early_termination: true,
            ..ExecPolicy::default()
        };
        let (ans, _) = db.query_parsed_with(&q, None, Some(policy)).unwrap();
        assert_eq!(ans.partitions_scanned, ans.partitions_total);
        assert_eq!(ans.answer.rows.len(), 40, "every city group present");
    }

    /// The estimator policy routes error bars: Auto bootstraps only the
    /// closed-form-less aggregates, ClosedFormOnly leaves them honestly
    /// unbounded, BootstrapAlways bootstraps everything.
    #[test]
    fn estimator_policy_selects_error_method() {
        let db = fixture_db();
        let q = blinkdb_sql::parse(
            "SELECT COUNT(*), STDDEV(t), RATIO(t, t) FROM s WHERE city = 'city3'",
        )
        .unwrap();
        // Auto (default): mixed — COUNT closed-form, STDDEV/RATIO boot.
        let (auto, _) = db.query_parsed_with(&q, None, None).unwrap();
        let aggs = &auto.answer.rows[0].aggs;
        assert_eq!(aggs[0].method, blinkdb_exec::ErrorMethod::ClosedForm);
        assert!(aggs[1].method.is_bootstrap(), "{:?}", aggs[1].method);
        assert!(aggs[2].method.is_bootstrap());
        assert!(auto.method.is_bootstrap(), "answer-level method");
        assert!((aggs[2].estimate - 1.0).abs() < 1e-9, "RATIO(t,t) = 1");
        assert!(aggs[1].variance.is_finite() && aggs[1].variance > 0.0);

        // ClosedFormOnly: STDDEV/RATIO report Unavailable (infinite CI).
        let closed_only = ExecPolicy {
            estimator: EstimatorPolicy::ClosedFormOnly,
            ..ExecPolicy::default()
        };
        let (cf, _) = db.query_parsed_with(&q, None, Some(closed_only)).unwrap();
        let aggs = &cf.answer.rows[0].aggs;
        assert_eq!(aggs[1].method, blinkdb_exec::ErrorMethod::Unavailable);
        assert!(aggs[1].ci_half_width(0.95).is_infinite());
        assert_eq!(cf.method, blinkdb_exec::ErrorMethod::Unavailable);

        // BootstrapAlways: COUNT bootstraps too, with the configured B.
        let always = ExecPolicy {
            estimator: EstimatorPolicy::BootstrapAlways,
            bootstrap_replicates: 64,
            ..ExecPolicy::default()
        };
        let (ba, _) = db.query_parsed_with(&q, None, Some(always)).unwrap();
        let aggs = &ba.answer.rows[0].aggs;
        assert_eq!(
            aggs[0].method,
            blinkdb_exec::ErrorMethod::Bootstrap { replicates: 64 }
        );
        // Point estimates never change with the estimator policy.
        assert_eq!(
            ba.answer.rows[0].aggs[0].estimate,
            auto.answer.rows[0].aggs[0].estimate
        );
    }

    /// The B-replicate multiplier prices bootstrap scans into simulated
    /// latency, and `WITHIN` budgets react by choosing smaller
    /// resolutions — deadlines stay honest for bootstrapped queries.
    #[test]
    fn bootstrap_cost_rides_the_latency_surface() {
        assert_eq!(bootstrap_cost_multiplier(0), 1.0);
        assert!(bootstrap_cost_multiplier(100) <= 2.5);

        let db = scaled_db();
        let count = blinkdb_sql::parse("SELECT COUNT(*) FROM s").unwrap();
        let sd = blinkdb_sql::parse("SELECT STDDEV(t) FROM s").unwrap();
        let (base, _) = db.query_parsed_with(&count, None, None).unwrap();
        let (boot, _) = db.query_parsed_with(&sd, None, None).unwrap();
        // Same (largest) resolution, same fan-out; the bootstrap run
        // must cost more in simulated seconds — by the multiplier.
        assert_eq!(base.rows_read, boot.rows_read);
        let mult = bootstrap_cost_multiplier(ExecPolicy::default().query_replicates(&sd));
        assert!(mult > 1.0);
        assert!(
            (boot.elapsed_s / base.elapsed_s - mult).abs() < 0.2,
            "bootstrap elapsed {} vs base {} (mult {mult})",
            boot.elapsed_s,
            base.elapsed_s
        );

        // Same WITHIN budget: the bootstrapped query reads fewer rows
        // (its latency model includes the replicate work).
        let b_count = blinkdb_sql::parse("SELECT COUNT(*) FROM s WITHIN 4 SECONDS").unwrap();
        let b_sd = blinkdb_sql::parse("SELECT STDDEV(t) FROM s WITHIN 4 SECONDS").unwrap();
        let (fast, _) = db.query_parsed_with(&b_count, None, None).unwrap();
        let (fast_sd, _) = db.query_parsed_with(&b_sd, None, None).unwrap();
        assert!(
            fast_sd.rows_read <= fast.rows_read,
            "bootstrap WITHIN picks ≤ resolution: {} vs {}",
            fast_sd.rows_read,
            fast.rows_read
        );
        assert!(
            fast_sd.elapsed_s <= 4.0 * 1.5,
            "budget holds (+jitter slack)"
        );
    }

    /// A profile fitted at one effective replicate count is rejected
    /// when replayed under a policy with another — its latency model
    /// bakes in the wrong bootstrap cost multiplier.
    #[test]
    fn hint_fitted_at_other_bootstrap_width_falls_back_to_full_pipeline() {
        let db = fixture_db();
        let q = blinkdb_sql::parse("SELECT STDDEV(t) FROM s WHERE city = 'city3' WITHIN 9 SECONDS")
            .unwrap();
        let closed_only = ExecPolicy {
            estimator: EstimatorPolicy::ClosedFormOnly,
            ..ExecPolicy::default()
        };
        let (_, profile) = db.query_parsed_with(&q, None, Some(closed_only)).unwrap();
        let profile = profile.unwrap();
        assert_eq!(profile.bootstrap_replicates, 0, "fitted without bootstrap");
        // Same policy: the hint short-circuits.
        let (_, refreshed) = db
            .query_parsed_with(&q, Some(&profile), Some(closed_only))
            .unwrap();
        assert!(refreshed.is_none());
        // Auto policy bootstraps STDDEV (B=100): the cost surface no
        // longer matches; the full pipeline must re-fit.
        let (_, refit) = db.query_parsed_with(&q, Some(&profile), None).unwrap();
        let refit = refit.expect("must re-profile at the new bootstrap width");
        assert_eq!(
            refit.bootstrap_replicates,
            ExecPolicy::default().effective_replicates()
        );
    }

    /// Same (query, epoch, policy) ⇒ bit-identical bootstrap error bars;
    /// an epoch advance rotates the multiplicity stream with the data.
    #[test]
    fn bootstrap_error_bars_are_reproducible_per_epoch() {
        let mut db = fixture_db();
        let q = blinkdb_sql::parse("SELECT STDDEV(t) FROM s WHERE city = 'city3'").unwrap();
        let (a, _) = db.query_parsed_with(&q, None, None).unwrap();
        let (b, _) = db.query_parsed_with(&q, None, None).unwrap();
        assert_eq!(
            a.answer.rows[0].aggs[0].variance.to_bits(),
            b.answer.rows[0].aggs[0].variance.to_bits(),
            "same epoch, same seed stream, bit-identical CI"
        );
        let batch: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::str("city3"), Value::Float(i as f64)])
            .collect();
        let range = db.append_rows(&batch).unwrap();
        db.fold_family(0, range, 1).unwrap();
        let (c, _) = db.query_parsed_with(&q, None, None).unwrap();
        let (d, _) = db.query_parsed_with(&q, None, None).unwrap();
        assert_eq!(
            c.answer.rows[0].aggs[0].variance.to_bits(),
            d.answer.rows[0].aggs[0].variance.to_bits(),
            "deterministic at the new epoch too"
        );
    }

    /// BlinkDb can be shared across threads (compile-time check).
    #[test]
    fn blinkdb_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BlinkDb>();
        assert_send_sync::<PlanProfile>();
    }
}
