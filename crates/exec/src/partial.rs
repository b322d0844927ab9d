//! Partial-aggregate execution over partitions.
//!
//! Partitioned execution (paper §4.2/§5: samples are spread over the
//! cluster; a query fans out and merges partial results) splits the old
//! monolithic scan into three mergeable phases, the shape VerdictDB
//! calls "mergeable per-partition partials":
//!
//! 1. [`QueryPlan::compile`] — resolve joins, compile the predicate
//!    (and lower it for the vectorized kernel), bind group-by and
//!    aggregate slots *once* per query.
//! 2. [`QueryPlan::scan`] — evaluate predicates and feed per-group
//!    [`AggState`] accumulators over any subset of the fact rows (one
//!    partition per task). A `QueryPlan` is `Sync`, so partitions scan
//!    concurrently from scoped threads against one shared plan.
//! 3. [`PartialAggregates::merge`] + [`QueryPlan::finish`] — combine
//!    count/sum/M2 moments and groups across partitions (slot-wise when
//!    the kernel routed them through dense slots: group keys are then
//!    materialised once per query, in `finish`), then compute the
//!    closed-form error bars from the merged moments.
//!
//! Merging is exact: the merged state equals the single-pass state up to
//! floating-point summation order, so the partitioned path reproduces
//! the serial path's group keys bit-identically and its estimates and
//! error bars to ~1e-9.

use crate::aggregate::AggState;
use crate::answer::{AnswerRow, QueryAnswer};
use crate::engine::RateSpec;
use crate::groups::{Groups, KeyedGroups, States};
use crate::join::{match_combinations, DimIndex};
use crate::kernel::{lower, scan_kernel, KPred};
use crate::predicate::{compile, Compiled, RowCtx, Slot};
use blinkdb_common::error::{BlinkError, Result};
use blinkdb_common::value::Value;
use blinkdb_estimator::{fill_multipliers, rescale_for_weight, BootstrapSpec};
use blinkdb_sql::ast::SelectItem;
use blinkdb_sql::bind::BoundQuery;
use blinkdb_storage::{RowSet, Table};
use std::cmp::Ordering;
use std::collections::HashMap;

/// One aggregate of the SELECT list, resolved to its argument slot(s).
#[derive(Debug)]
pub(crate) struct AggSpec {
    pub(crate) func: blinkdb_sql::ast::AggFunc,
    pub(crate) arg: Option<Slot>,
    /// Second argument (`RATIO`'s denominator).
    pub(crate) arg2: Option<Slot>,
    label: String,
}

/// One join, resolved to the fact-side probe column and a hash index
/// over the dimension table.
#[derive(Debug)]
struct JoinPlan {
    probe: Slot,
    index: DimIndex,
}

/// A bound query compiled against its tables, ready to scan any subset
/// of the fact rows.
///
/// Borrows the fact and dimension tables immutably and is `Sync`:
/// partitions of one query share a single plan across worker threads.
#[derive(Debug)]
pub struct QueryPlan<'a> {
    pub(crate) tables: Vec<&'a Table>,
    join_plans: Vec<JoinPlan>,
    pub(crate) predicate: Compiled,
    pub(crate) group_slots: Vec<Slot>,
    pub(crate) agg_specs: Vec<AggSpec>,
    group_columns: Vec<String>,
    confidence: f64,
    /// Bootstrap parameters, when the execution options attached them.
    pub(crate) bootstrap: Option<BootstrapSpec>,
    /// Whether any aggregate of this plan actually carries replicate
    /// state (so the scan knows to generate per-row multiplicities).
    pub(crate) any_bootstrap: bool,
    /// The predicate lowered for the vectorized kernel, shared by every
    /// scan of the plan. `Some` iff the kernel path is taken:
    /// [`crate::engine::ExecOptions::vectorized`] is on and the plan
    /// carries no joins (the kernel scans fact columns directly).
    kernel_pred: Option<KPred>,
}

impl<'a> QueryPlan<'a> {
    /// Compiles `bound` against a fact table and its dimension tables:
    /// join resolution, predicate compilation, group/aggregate slot
    /// binding. Done once per query regardless of partition count.
    ///
    /// Everything a scan needs that does not depend on *which* rows it
    /// scans is worked out here. In particular, when the plan takes the
    /// vectorized kernel path ([`QueryPlan::uses_kernel`]) the compiled
    /// predicate is lowered here to the kernel's columnar form — typed
    /// comparison leaves and one truth table per string leaf, indexed by
    /// dictionary code — and every [`QueryPlan::scan_set`] of the plan
    /// evaluates that one tree. A scan never looks at the dictionary.
    pub fn compile(
        bound: &BoundQuery,
        fact_table: &'a Table,
        dims: &HashMap<String, &'a Table>,
        opts: crate::engine::ExecOptions,
    ) -> Result<Self> {
        let query = &bound.ast;

        // Table order by slot: fact first, then joins.
        let mut table_order: Vec<String> = vec![query.from.to_ascii_lowercase()];
        let mut tables: Vec<&Table> = vec![fact_table];
        for j in &query.joins {
            let name = j.table.to_ascii_lowercase();
            let dim = dims.get(&name).copied().ok_or_else(|| {
                BlinkError::plan(format!("dimension table `{}` not provided", j.table))
            })?;
            table_order.push(name);
            tables.push(dim);
        }

        // Join plans: (probe slot/column on the fact side, index on the dim).
        let mut join_plans: Vec<JoinPlan> = Vec::with_capacity(query.joins.len());
        for (ji, j) in query.joins.iter().enumerate() {
            let dim_slot = ji + 1;
            let l = bound.resolve(&j.left_col)?;
            let r = bound.resolve(&j.right_col)?;
            let (probe_ref, dim_ref) = if l.table == table_order[dim_slot] {
                (r, l)
            } else if r.table == table_order[dim_slot] {
                (l, r)
            } else {
                return Err(BlinkError::plan(format!(
                    "join ON clause must reference `{}`",
                    j.table
                )));
            };
            if probe_ref.table != table_order[0] {
                return Err(BlinkError::plan(
                    "join probe key must come from the fact table",
                ));
            }
            let probe = Slot {
                table_slot: 0,
                col: probe_ref.index,
            };
            let index = DimIndex::build(tables[dim_slot], dim_ref.index);
            join_plans.push(JoinPlan { probe, index });
        }

        // Compile the predicate.
        let predicate = match &query.where_clause {
            Some(w) => compile(w, bound, &table_order)?,
            None => Compiled::True,
        };

        // Group-by slots.
        let group_slots: Vec<Slot> = query
            .group_by
            .iter()
            .map(|g| {
                let r = bound.resolve(g)?;
                let slot = table_order
                    .iter()
                    .position(|t| *t == r.table)
                    .expect("bound tables are in order");
                Ok(Slot {
                    table_slot: slot,
                    col: r.index,
                })
            })
            .collect::<Result<_>>()?;

        // Aggregate specs.
        let mut agg_specs: Vec<AggSpec> = Vec::new();
        for item in &query.select {
            if let SelectItem::Agg(a) = item {
                let resolve_slot = |name: &Option<String>| -> Result<Option<Slot>> {
                    match name {
                        Some(name) => {
                            let r = bound.resolve(name)?;
                            let slot = table_order
                                .iter()
                                .position(|t| *t == r.table)
                                .expect("bound tables are in order");
                            Ok(Some(Slot {
                                table_slot: slot,
                                col: r.index,
                            }))
                        }
                        None => Ok(None),
                    }
                };
                let arg = resolve_slot(&a.arg)?;
                let arg2 = resolve_slot(&a.arg2)?;
                let label = match (&a.arg, &a.arg2) {
                    (Some(n), Some(n2)) => format!("{}({n},{n2})", a.func),
                    (Some(n), None) => format!("{}({n})", a.func),
                    _ => format!("{}(*)", a.func),
                };
                agg_specs.push(AggSpec {
                    func: a.func.clone(),
                    arg,
                    arg2,
                    label,
                });
            }
        }

        let confidence = match &query.bound {
            Some(blinkdb_sql::ast::Bound::Error { confidence, .. }) => *confidence,
            _ => query.reported_error_confidence().unwrap_or(opts.confidence),
        };

        // Whether any aggregate will actually hold replicate state under
        // these options: closed-form-less aggregates always do, the
        // standard ones only when the spec forces them. QUANTILE never
        // bootstraps.
        let any_bootstrap = opts.bootstrap.is_some_and(|s| {
            agg_specs.iter().any(|a| {
                !matches!(a.func, blinkdb_sql::ast::AggFunc::Quantile(_))
                    && (s.force || !a.func.has_closed_form())
            })
        });

        let kernel_pred =
            (opts.vectorized && join_plans.is_empty()).then(|| lower(&predicate, fact_table));

        Ok(QueryPlan {
            tables,
            join_plans,
            predicate,
            group_slots,
            agg_specs,
            group_columns: query.group_by.clone(),
            confidence,
            bootstrap: opts.bootstrap,
            any_bootstrap,
            kernel_pred,
        })
    }

    /// The confidence level answers rendered from this plan will use.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Whether [`QueryPlan::scan_set`] will take the vectorized kernel
    /// path: the plan must have it enabled (see
    /// [`crate::engine::ExecOptions::vectorized`]) and carry no joins
    /// (the kernel scans fact columns directly).
    pub fn uses_kernel(&self) -> bool {
        self.kernel_pred.is_some()
    }

    /// Scans a [`RowSet`] of fact rows, dispatching to the vectorized
    /// columnar kernel when [`QueryPlan::uses_kernel`] holds and to the
    /// row-at-a-time [`QueryPlan::scan`] oracle otherwise. Both paths
    /// produce bit-identical [`PartialAggregates`] (pinned by
    /// `tests/kernel_differential.rs`).
    pub fn scan_set(&self, rows: RowSet<'_>, rates: RateSpec<'_>) -> PartialAggregates<'a> {
        match &self.kernel_pred {
            Some(pred) => scan_kernel(self, pred, &rows, rates),
            None => self.scan(rows.iter(), rates),
        }
    }

    /// Creates one group's accumulator vector (one [`AggState`] per
    /// SELECT aggregate, bootstrap attached per the plan's spec).
    pub(crate) fn new_states(&self) -> States {
        self.agg_specs
            .iter()
            .map(|s| AggState::with_bootstrap(&s.func, self.bootstrap))
            .collect()
    }

    /// Replicate count the scan must generate per sampled row (0 when
    /// no aggregate of the plan carries replicate state).
    pub(crate) fn scan_replicates(&self) -> usize {
        if self.any_bootstrap {
            self.bootstrap
                .map(|s| s.replicates.max(2) as usize)
                .unwrap_or(0)
        } else {
            0
        }
    }

    /// Folds one matching joined row into a group's accumulators — the
    /// canonical per-row arithmetic. The scalar scan and the vectorized
    /// kernel both call this, so the two paths perform the same f64
    /// operations in the same order and stay bit-identical.
    ///
    /// `rows` holds the row index per table slot (`[fact]` on the
    /// kernel's join-free path).
    #[inline]
    pub(crate) fn accumulate_row(
        &self,
        states: &mut [AggState],
        rows: &[usize],
        weight: f64,
        row_mults: &[f64],
    ) {
        for (state, spec) in states.iter_mut().zip(&self.agg_specs) {
            match spec.arg {
                None => state.add_row(1.0, 0.0, weight, row_mults),
                Some(slot) => {
                    let col = self.tables[slot.table_slot].column(slot.col);
                    let row = rows[slot.table_slot];
                    if !col.is_valid(row) {
                        continue; // SQL skips NULL aggregate inputs.
                    }
                    match spec.func {
                        blinkdb_sql::ast::AggFunc::Count => {
                            state.add_row(1.0, 0.0, weight, row_mults)
                        }
                        blinkdb_sql::ast::AggFunc::Ratio => {
                            // Both arguments must be non-NULL for
                            // the row to count toward the ratio.
                            let slot2 = spec.arg2.expect("RATIO binds two arguments");
                            let col2 = self.tables[slot2.table_slot].column(slot2.col);
                            let row2 = rows[slot2.table_slot];
                            if !col2.is_valid(row2) {
                                continue;
                            }
                            if let (Some(x), Some(y)) = (col.f64_at(row), col2.f64_at(row2)) {
                                state.add_row(x, y, weight, row_mults);
                            }
                        }
                        _ => {
                            if let Some(x) = col.f64_at(row) {
                                state.add_row(x, 0.0, weight, row_mults);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Scans the fact rows in `physical_rows` (one partition, or a whole
    /// view) and accumulates partial aggregates.
    ///
    /// `rates` supplies the Horvitz–Thompson weight of each *physical*
    /// fact row; partitioning never changes weights — a partition
    /// inherits the parent sample's per-stratum scale factors.
    ///
    /// When the plan bootstraps, each matching sampled row additionally
    /// derives its `B` replicate multipliers — deterministically from
    /// `(bootstrap seed, physical row id, replicate)`, so every
    /// partitioning of the same resolution draws identical resamples —
    /// and feeds them to every aggregate of the row in the same pass.
    pub fn scan(
        &self,
        physical_rows: impl IntoIterator<Item = usize>,
        rates: RateSpec<'_>,
    ) -> PartialAggregates<'a> {
        let fact_table = self.tables[0];
        let mut groups = KeyedGroups::new();
        let mut rows_scanned = 0u64;
        let mut rows_matched = 0u64;
        let mut row_buf = vec![0usize; self.tables.len()];
        let boot_seed = self.bootstrap.map(|s| s.seed).unwrap_or(0);
        let boot_b = self.scan_replicates();
        let mut mults = vec![0.0f64; boot_b];

        for physical in physical_rows {
            rows_scanned += 1;
            let weight = rates.weight(physical);
            // Multiplicities are per fact row: filled lazily on the first
            // matching join combination, shared by all of them.
            let mut mults_ready = false;
            let mut mults_len = 0usize;

            // Resolve join matches for this fact row.
            let mut match_lists: Vec<&[u32]> = Vec::with_capacity(self.join_plans.len());
            let mut dead = false;
            for plan in &self.join_plans {
                let key = fact_table.column(plan.probe.col).value(physical);
                let matches = plan.index.probe(&key);
                if matches.is_empty() {
                    dead = true;
                    break;
                }
                match_lists.push(matches);
            }
            if dead {
                continue;
            }
            let combos = match_combinations(&match_lists);

            for combo in &combos {
                row_buf[0] = physical;
                for (i, &dim_row) in combo.iter().enumerate() {
                    row_buf[i + 1] = dim_row;
                }
                let ctx = RowCtx {
                    tables: &self.tables,
                    rows: &row_buf,
                };
                if !self.predicate.matches(&ctx) {
                    continue;
                }
                rows_matched += 1;
                if boot_b > 0 && !mults_ready {
                    mults_ready = true;
                    let rescale = rescale_for_weight(weight);
                    if rescale > 0.0 {
                        fill_multipliers(boot_seed, physical as u64, rescale, &mut mults);
                        mults_len = boot_b;
                    } else {
                        mults_len = 0; // Fully observed: deterministic row.
                    }
                }
                let row_mults = &mults[..mults_len];
                let key: Vec<Value> = self
                    .group_slots
                    .iter()
                    .map(|s| {
                        self.tables[s.table_slot]
                            .column(s.col)
                            .value(row_buf[s.table_slot])
                    })
                    .collect();
                let states = groups.entry(key).or_insert_with(|| self.new_states());
                self.accumulate_row(states, &row_buf, weight, row_mults);
            }
        }

        PartialAggregates {
            groups: Groups::Keyed(groups),
            rows_scanned,
            rows_matched,
        }
    }

    /// Finalizes merged partials into a [`QueryAnswer`]: closed-form
    /// error bars per group/aggregate, the zero-row for empty global
    /// aggregates, sampled-absence exactness fixups, and deterministic
    /// group ordering.
    ///
    /// `scan_exact` says the scan covered full data at rate 1 (the
    /// `RateSpec::Exact` case), in which case empty groups are genuine
    /// zeros rather than subset error.
    pub fn finish(&self, partial: PartialAggregates<'_>, scan_exact: bool) -> QueryAnswer {
        let PartialAggregates {
            groups,
            rows_scanned,
            rows_matched,
        } = partial;

        let answer_row = |(group, states): (Vec<Value>, States)| AnswerRow {
            group,
            aggs: states
                .into_iter()
                .map(|s| {
                    let mut a = s.finish();
                    // Zero matching rows in a *sampled* scan is absence of
                    // evidence, not an exact zero: the sample may simply
                    // have missed the group (§3.1's subset error).
                    if !scan_exact && a.rows_used == 0 {
                        a.exact = false;
                    }
                    a
                })
                .collect(),
        };
        let mut rows: Vec<AnswerRow> = match groups {
            // Global aggregates always produce one row.
            Groups::Keyed(groups) if self.group_slots.is_empty() && groups.is_empty() => {
                vec![answer_row((Vec::new(), self.new_states()))]
            }
            Groups::Keyed(groups) => groups.into_iter().map(answer_row).collect(),
            // Dense slots get their keys here, once per query.
            Groups::Dense(dense) => dense.into_keyed().map(answer_row).collect(),
        };
        rows.sort_by(|a, b| cmp_keys(&a.group, &b.group));

        QueryAnswer {
            group_columns: self.group_columns.clone(),
            agg_labels: self.agg_specs.iter().map(|s| s.label.clone()).collect(),
            rows,
            rows_scanned,
            rows_matched,
            confidence: self.confidence,
        }
    }
}

/// The mergeable result of scanning one partition: per-group aggregate
/// accumulators plus scan statistics.
///
/// Groups stay in whichever container the scan routed them through.
/// When the kernel grouped by dictionary code, flag or integer offset,
/// that is a flat slot vector: partials of one plan then merge slot by
/// slot and no `Vec<Value>` group key exists until
/// [`QueryPlan::finish`] builds each once. Otherwise it is a map keyed
/// by group key. [`PartialAggregates::merge`] accepts any mix of the two
/// (it keys the dense side when they meet); the lifetime is that of the
/// fact table, whose dictionary a dense partial decodes its keys from.
///
/// Accumulator merges are not commutative in their floating-point bits:
/// merge partials in partition order to reproduce an answer bit for bit.
#[derive(Debug, Clone, Default)]
pub struct PartialAggregates<'t> {
    pub(crate) groups: Groups<'t>,
    /// Physical fact rows scanned by this partial.
    pub rows_scanned: u64,
    /// Joined rows that survived the predicate.
    pub rows_matched: u64,
}

impl<'t> PartialAggregates<'t> {
    /// Merges another partial into this one: groups union, matching
    /// groups merge their accumulators pairwise, scan statistics add.
    pub fn merge(&mut self, other: PartialAggregates<'t>) {
        self.rows_scanned += other.rows_scanned;
        self.rows_matched += other.rows_matched;
        self.groups.merge(other.groups);
    }

    /// Applies the partial-scan extrapolation: every accumulated weight
    /// scales by `alpha = total_rows / scanned_rows` (see
    /// [`AggState::scale_weights`]). Exact when the scanned partitions
    /// are a proportional (stratum-aligned) share of the sample.
    pub fn scale_weights(&mut self, alpha: f64) {
        self.groups.for_each_state(|s| s.scale_weights(alpha));
    }

    /// Worst-case `(relative error, absolute CI half-width)` across all
    /// groups and aggregates if every weight were rescaled by `alpha`,
    /// at `confidence` — the per-partition bound check of incremental
    /// execution. Computed state-by-state via
    /// [`AggState::scaled_result`], so no accumulator clone is needed
    /// (quantile reservoirs stay in place).
    pub fn scaled_error_bounds(&mut self, alpha: f64, confidence: f64) -> (f64, f64) {
        let mut worst_rel = 0.0f64;
        let mut worst_abs = 0.0f64;
        self.groups.for_each_state(|state| {
            let r = state.scaled_result(alpha);
            worst_abs = worst_abs.max(r.ci_half_width(confidence));
            worst_rel = worst_rel.max(r.relative_error(confidence));
        });
        (worst_rel, worst_abs)
    }
}

/// Deterministic total order on group keys (NULLs first).
pub(crate) fn cmp_keys(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = match x.sql_cmp(y) {
            Some(o) => o,
            None => match (x.is_null(), y.is_null()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                // Incomparable same-arity keys: order by display form.
                (false, false) => x.to_string().cmp(&y.to_string()),
            },
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecOptions;
    use blinkdb_common::schema::{Field, Schema};
    use blinkdb_common::value::DataType;
    use blinkdb_sql::bind::bind;
    use blinkdb_sql::parser::parse;
    use blinkdb_storage::{PartitionedTable, TableRef};

    fn fixture() -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new("t", schema);
        for i in 0..200 {
            let g = ["a", "b", "c"][i % 3];
            t.push_row(&[Value::str(g), Value::Float((i % 13) as f64)])
                .unwrap();
        }
        t
    }

    fn plan_for<'a>(sql: &str, t: &'a Table) -> (blinkdb_sql::ast::Query, QueryPlan<'a>) {
        let q = parse(sql).unwrap();
        let mut catalog = HashMap::new();
        catalog.insert("t".to_string(), t.schema().clone());
        let b = bind(&q, &catalog).unwrap();
        let plan = QueryPlan::compile(&b, t, &HashMap::new(), ExecOptions::default()).unwrap();
        (q, plan)
    }

    #[test]
    fn partitioned_scan_merges_to_serial_answer() {
        let t = fixture();
        let (_, plan) = plan_for(
            "SELECT g, COUNT(*), SUM(x), AVG(x), MEDIAN(x) FROM t WHERE x < 9 GROUP BY g",
            &t,
        );
        let serial = plan.finish(
            plan.scan(TableRef::full(&t).iter_physical(), RateSpec::Uniform(0.5)),
            false,
        );

        let rows: Vec<u32> = (0..t.num_rows() as u32).collect();
        for k in [1usize, 2, 3, 7] {
            let pt = PartitionedTable::round_robin(&rows, k);
            let mut acc = PartialAggregates::default();
            for p in pt.partitions() {
                acc.merge(plan.scan(p.rows().iter().map(|&r| r as usize), RateSpec::Uniform(0.5)));
            }
            let merged = plan.finish(acc, false);
            assert_eq!(merged.rows.len(), serial.rows.len());
            assert_eq!(merged.rows_scanned, serial.rows_scanned);
            assert_eq!(merged.rows_matched, serial.rows_matched);
            for (m, s) in merged.rows.iter().zip(&serial.rows) {
                assert_eq!(m.group, s.group, "bit-identical group keys");
                for (ma, sa) in m.aggs.iter().zip(&s.aggs) {
                    assert!((ma.estimate - sa.estimate).abs() < 1e-9, "k={k}");
                    assert!((ma.variance - sa.variance).abs() < 1e-9, "k={k}");
                }
            }
        }
    }

    #[test]
    fn plan_is_sync_for_scoped_threads() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<QueryPlan<'_>>();
        assert_sync::<PartialAggregates>();
    }

    #[test]
    fn empty_partial_finishes_like_empty_scan() {
        let t = fixture();
        let (_, plan) = plan_for("SELECT COUNT(*) FROM t WHERE x > 1000", &t);
        let ans = plan.finish(PartialAggregates::default(), true);
        assert_eq!(ans.rows.len(), 1, "global aggregate yields a zero row");
        assert_eq!(ans.rows[0].aggs[0].estimate, 0.0);
    }
}
