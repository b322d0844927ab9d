//! Vectorized columnar scan kernel.
//!
//! The kernel replaces the row-at-a-time scan for join-free queries with
//! batch-at-a-time execution over fixed-size column chunks:
//!
//! 1. The compiled predicate is *lowered* once per plan
//!    ([`QueryPlan::compile`]) into a `KPred` tree whose leaves run typed
//!    loops over raw column payloads — f64 `total_cmp` against numeric
//!    literals, per-dictionary-code truth tables for string predicates —
//!    instead of boxing a [`Value`] per row. Every partition scan of the
//!    plan shares the one lowered tree.
//! 2. Each [`RowChunk`] of up to 1024 rows evaluates into a `SelMask`
//!    selection bitmap (null-aware: validity vectors are ANDed in at the
//!    leaves).
//! 3. Selected rows are visited in run-length order over the bitmap and
//!    folded into per-group accumulators via the *same*
//!    `QueryPlan::accumulate_row` helper the scalar path uses, so both
//!    paths perform identical f64 operations in identical order and stay
//!    bit-for-bit interchangeable (pinned by `tests/kernel_differential.rs`).
//!
//! Bootstrap replicate multipliers keep their scalar derivation —
//! `(bootstrap seed, physical row id)` — and are generated run-at-a-time
//! for contiguous constant-weight selections. Scratch buffers live in a
//! thread-local pool, so steady-state per-partition scans allocate only
//! their output groups.

use crate::engine::RateSpec;
use crate::groups::{DenseGroups, Groups, States};
use crate::partial::{PartialAggregates, QueryPlan};
use crate::predicate::{Compiled, RowCtx};
use blinkdb_common::column::{Column, ColumnData, StrColumn};
use blinkdb_common::value::Value;
use blinkdb_estimator::{fill_multipliers, fill_multipliers_run, rescale_for_weight};
use blinkdb_sql::ast::CmpOp;
use blinkdb_storage::{RowChunk, RowSet, Table};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Rows per selection chunk. One [`SelMask`] covers one chunk.
pub(crate) const CHUNK: usize = 1024;
/// 64-bit words per [`SelMask`].
const WORDS: usize = CHUNK / 64;
/// Longest run segment filled by one [`fill_multipliers_run`] call.
const RUN_SEG: usize = 64;

// ---------------------------------------------------------------------------
// Selection bitmap
// ---------------------------------------------------------------------------

/// Selection bitmap over one chunk of up to [`CHUNK`] rows.
///
/// Invariant: bits at positions `>= len` of the chunk being evaluated are
/// zero (leaves only set in-range bits, [`SelMask::not`] masks the tail),
/// so popcounts and run iteration never see ghost rows.
pub(crate) struct SelMask {
    bits: [u64; WORDS],
}

impl SelMask {
    pub(crate) fn new() -> Self {
        SelMask { bits: [0; WORDS] }
    }

    pub(crate) fn clear(&mut self) {
        self.bits = [0; WORDS];
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.bits[i >> 6] |= 1u64 << (i & 63);
    }

    #[cfg(test)]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.bits[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Sets every bit below `len`, clears the rest.
    pub(crate) fn fill(&mut self, len: usize) {
        self.clear();
        let full = len >> 6;
        for w in &mut self.bits[..full] {
            *w = !0;
        }
        let rem = len & 63;
        if rem > 0 {
            self.bits[full] = (1u64 << rem) - 1;
        }
    }

    pub(crate) fn and(&mut self, other: &SelMask) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    pub(crate) fn or(&mut self, other: &SelMask) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Flips every bit below `len` and zeroes the tail, preserving the
    /// ghost-row invariant.
    pub(crate) fn not(&mut self, len: usize) {
        let full = len >> 6;
        for w in &mut self.bits[..full] {
            *w = !*w;
        }
        let rem = len & 63;
        if rem > 0 {
            self.bits[full] = !self.bits[full] & ((1u64 << rem) - 1);
        }
        for w in &mut self.bits[full + usize::from(rem > 0)..] {
            *w = 0;
        }
    }

    /// Number of selected rows among the first `len`.
    pub(crate) fn count(&self, len: usize) -> u64 {
        let full = len >> 6;
        let mut n: u64 = self.bits[..full]
            .iter()
            .map(|w| w.count_ones() as u64)
            .sum();
        let rem = len & 63;
        if rem > 0 {
            n += (self.bits[full] & ((1u64 << rem) - 1)).count_ones() as u64;
        }
        n
    }

    /// Calls `f(start, run_len)` for each maximal run of selected rows
    /// below `len`, in ascending order. Runs never cross 64-bit word
    /// boundaries (a longer selection arrives as adjacent calls), which
    /// keeps iteration branch-cheap; callers only rely on ascending
    /// per-row order.
    pub(crate) fn for_each_run(&self, len: usize, mut f: impl FnMut(usize, usize)) {
        for wi in 0..WORDS {
            let base = wi << 6;
            if base >= len {
                break;
            }
            let mut w = self.bits[wi];
            let avail = len - base;
            if avail < 64 {
                w &= (1u64 << avail) - 1;
            }
            while w != 0 {
                let start = w.trailing_zeros() as usize;
                let run = (w >> start).trailing_ones() as usize;
                f(base + start, run);
                if start + run >= 64 {
                    break;
                }
                w &= !(((1u64 << run) - 1) << start);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Predicate lowering
// ---------------------------------------------------------------------------

/// A predicate lowered for columnar evaluation over the fact table.
///
/// Every variant reproduces the scalar [`Compiled::matches`] semantics
/// exactly — including the collapsed three-valued logic where NULL
/// comparisons evaluate to false at the leaf — it only changes *how* the
/// per-row boolean is computed. It holds column indices and owned truth
/// tables, no borrow of the fact table, so a plan keeps one for all its
/// scans.
#[derive(Debug)]
pub(crate) enum KPred {
    /// Constant predicate (folded literals, cross-type comparisons that
    /// can never match, NULL-literal comparisons).
    Const(bool),
    /// Bitwise AND of two sub-masks (scalar `&&` is side-effect free).
    And(Box<KPred>, Box<KPred>),
    /// Bitwise OR of two sub-masks.
    Or(Box<KPred>, Box<KPred>),
    /// Masked complement: inverts the *collapsed* sub-result, matching
    /// the scalar leaf-collapse NOT.
    Not(Box<KPred>),
    /// Bare boolean column: selected iff valid and true.
    BoolCol(usize),
    /// Boolean column compared against a boolean literal.
    CmpBool { col: usize, op: CmpOp, lit: bool },
    /// Int/float column compared against a numeric literal. Ints widen
    /// to f64 and compare via `total_cmp`, exactly like `Value::sql_cmp`.
    CmpNum { col: usize, op: CmpOp, lit: f64 },
    /// Int/float column `[NOT] BETWEEN` two numeric literals.
    BetweenNum {
        col: usize,
        lo: f64,
        hi: f64,
        negated: bool,
    },
    /// Int/float column `[NOT] IN` a literal list. `set` keeps only the
    /// numeric candidates (others can never compare equal); `has_null`
    /// records whether the original list held a NULL literal, which
    /// blocks `NOT IN` from proving absence.
    InNum {
        col: usize,
        set: Vec<f64>,
        has_null: bool,
        negated: bool,
    },
    /// Any leaf over a dictionary-encoded string column: truth table
    /// indexed by dictionary code, computed once per plan with the
    /// scalar `Value` semantics. Codes absent from the scanned rows
    /// simply never index in; NULL rows fail the validity check.
    CodeLut { col: usize, lut: Vec<bool> },
    /// Fallback: evaluate the scalar predicate per row (shapes the
    /// lowering does not specialize, e.g. column-vs-column compares).
    Scalar(Compiled),
}

/// Flips a comparison so `lit op col` becomes `col flip(op) lit`.
/// Sound because `sql_cmp` is antisymmetric for every type pair.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Scalar semantics of `v [NOT] IN (list)` for a known `v`, mirroring
/// the `Compiled::In` arm of [`Compiled::matches`].
fn in_value(v: &Value, list: &[Value], negated: bool) -> bool {
    if v.is_null() {
        return false;
    }
    let found = list.iter().any(|cand| v.sql_eq(cand));
    if !found && list.iter().any(|cand| cand.is_null()) {
        return false;
    }
    found != negated
}

/// Scalar semantics of `v [NOT] BETWEEN lo AND hi` for a known `v`,
/// mirroring the `Compiled::Between` arm of [`Compiled::matches`].
fn between_value(v: &Value, lo: &Value, hi: &Value, negated: bool) -> bool {
    let in_range = match (v.sql_cmp(lo), v.sql_cmp(hi)) {
        (Some(a), Some(b)) => a != Ordering::Less && b != Ordering::Greater,
        _ => return false,
    };
    in_range != negated
}

/// Builds a per-dictionary-code truth table for a string-column leaf by
/// running `leaf` once per distinct string, borrowed from the dictionary.
/// `leaf` must agree with the scalar semantics for a non-NULL
/// `Value::Str` row value (NULL rows never index in).
fn str_lut(strs: &StrColumn, mut leaf: impl FnMut(&str) -> bool) -> Vec<bool> {
    (0..strs.dict_len())
        .map(|c| leaf(strs.decode(c as u32).expect("code in dict")))
        .collect()
}

/// A truth table that is `hit` at the dictionary codes of `lits` and
/// `!hit` everywhere else: equality leaves look their literals up
/// instead of comparing every dictionary entry.
fn code_lut<'l>(strs: &StrColumn, lits: impl IntoIterator<Item = &'l str>, hit: bool) -> Vec<bool> {
    let mut lut = vec![!hit; strs.dict_len()];
    for code in lits.into_iter().filter_map(|lit| strs.code_of(lit)) {
        lut[code as usize] = hit;
    }
    lut
}

fn fold_and(a: KPred, b: KPred) -> KPred {
    match (a, b) {
        (KPred::Const(false), _) | (_, KPred::Const(false)) => KPred::Const(false),
        (KPred::Const(true), p) | (p, KPred::Const(true)) => p,
        (a, b) => KPred::And(Box::new(a), Box::new(b)),
    }
}

fn fold_or(a: KPred, b: KPred) -> KPred {
    match (a, b) {
        (KPred::Const(true), _) | (_, KPred::Const(true)) => KPred::Const(true),
        (KPred::Const(false), p) | (p, KPred::Const(false)) => p,
        (a, b) => KPred::Or(Box::new(a), Box::new(b)),
    }
}

#[cfg(test)]
thread_local! {
    /// Predicates lowered on this thread (see `lowers_once_per_plan`).
    static LOWERINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Lowers a compiled predicate against the fact table's column types.
/// Only called on join-free plans, so every slot targets table 0.
pub(crate) fn lower(c: &Compiled, fact: &Table) -> KPred {
    #[cfg(test)]
    LOWERINGS.with(|n| n.set(n.get() + 1));
    lower_node(c, fact)
}

fn lower_node(c: &Compiled, fact: &Table) -> KPred {
    match c {
        Compiled::True => KPred::Const(true),
        Compiled::Lit(v) => KPred::Const(v.as_bool().unwrap_or(false)),
        Compiled::Col(slot) => {
            debug_assert_eq!(slot.table_slot, 0, "kernel plans are join-free");
            match fact.column(slot.col).data() {
                ColumnData::Bool(_) => KPred::BoolCol(slot.col),
                // `as_bool` of any non-bool (or NULL) is None → false.
                _ => KPred::Const(false),
            }
        }
        Compiled::And(a, b) => fold_and(lower_node(a, fact), lower_node(b, fact)),
        Compiled::Or(a, b) => fold_or(lower_node(a, fact), lower_node(b, fact)),
        Compiled::Not(e) => match lower_node(e, fact) {
            KPred::Const(v) => KPred::Const(!v),
            p => KPred::Not(Box::new(p)),
        },
        Compiled::Cmp { op, lhs, rhs } => lower_cmp(*op, lhs, rhs, fact, c),
        Compiled::In {
            expr,
            list,
            negated,
        } => lower_in(expr, list, *negated, fact, c),
        Compiled::Between {
            expr,
            lo,
            hi,
            negated,
        } => lower_between(expr, lo, hi, *negated, fact, c),
    }
}

fn lower_cmp(op: CmpOp, lhs: &Compiled, rhs: &Compiled, fact: &Table, orig: &Compiled) -> KPred {
    let (slot, lit, op) = match (lhs, rhs) {
        (Compiled::Col(s), Compiled::Lit(v)) => (s, v, op),
        (Compiled::Lit(v), Compiled::Col(s)) => (s, v, flip(op)),
        (Compiled::Lit(a), Compiled::Lit(b)) => {
            return KPred::Const(match a.sql_cmp(b) {
                Some(o) => op.eval(o),
                None => false,
            });
        }
        _ => return KPred::Scalar(orig.clone()),
    };
    debug_assert_eq!(slot.table_slot, 0, "kernel plans are join-free");
    let col = fact.column(slot.col);
    match (col.data(), lit) {
        (ColumnData::Bool(_), Value::Bool(b)) => KPred::CmpBool {
            col: slot.col,
            op,
            lit: *b,
        },
        (ColumnData::Int(_) | ColumnData::Float(_), Value::Int(_) | Value::Float(_)) => {
            KPred::CmpNum {
                col: slot.col,
                op,
                lit: lit.as_f64().expect("numeric literal"),
            }
        }
        (ColumnData::Str(s), Value::Str(lit)) => KPred::CodeLut {
            col: slot.col,
            lut: match op {
                CmpOp::Eq => code_lut(s, [lit.as_ref()], true),
                CmpOp::Ne => code_lut(s, [lit.as_ref()], false),
                _ => str_lut(s, |v| op.eval(v.cmp(lit.as_ref()))),
            },
        },
        // Cross-type or NULL-literal comparison: `sql_cmp` is None for
        // every possible row value, so no row ever matches.
        _ => KPred::Const(false),
    }
}

fn lower_in(
    expr: &Compiled,
    list: &[Value],
    negated: bool,
    fact: &Table,
    orig: &Compiled,
) -> KPred {
    let slot = match expr {
        Compiled::Col(s) => s,
        Compiled::Lit(v) => return KPred::Const(in_value(v, list, negated)),
        _ => return KPred::Scalar(orig.clone()),
    };
    debug_assert_eq!(slot.table_slot, 0, "kernel plans are join-free");
    let col = fact.column(slot.col);
    match col.data() {
        ColumnData::Int(_) | ColumnData::Float(_) => KPred::InNum {
            col: slot.col,
            set: list.iter().filter_map(|v| v.as_f64()).collect(),
            has_null: list.iter().any(|v| v.is_null()),
            negated,
        },
        // Only string candidates can equal a string row, and a NULL in
        // the list blocks `NOT IN` from proving absence for any row.
        ColumnData::Str(_) if negated && list.iter().any(|v| v.is_null()) => KPred::Const(false),
        ColumnData::Str(s) => {
            let lits = list.iter().filter_map(|v| match v {
                Value::Str(lit) => Some(lit.as_ref()),
                _ => None,
            });
            KPred::CodeLut {
                col: slot.col,
                lut: code_lut(s, lits, !negated),
            }
        }
        ColumnData::Bool(_) => KPred::Scalar(orig.clone()),
    }
}

fn lower_between(
    expr: &Compiled,
    lo: &Value,
    hi: &Value,
    negated: bool,
    fact: &Table,
    orig: &Compiled,
) -> KPred {
    let slot = match expr {
        Compiled::Col(s) => s,
        Compiled::Lit(v) => return KPred::Const(between_value(v, lo, hi, negated)),
        _ => return KPred::Scalar(orig.clone()),
    };
    debug_assert_eq!(slot.table_slot, 0, "kernel plans are join-free");
    let col = fact.column(slot.col);
    match col.data() {
        ColumnData::Int(_) | ColumnData::Float(_) => match (lo.as_f64(), hi.as_f64()) {
            (Some(lo), Some(hi)) => KPred::BetweenNum {
                col: slot.col,
                lo,
                hi,
                negated,
            },
            // A non-numeric bound is incomparable with every row; the
            // scalar path returns false before applying NOT.
            _ => KPred::Const(false),
        },
        ColumnData::Str(s) => match (lo, hi) {
            (Value::Str(lo), Value::Str(hi)) => KPred::CodeLut {
                col: slot.col,
                lut: str_lut(s, |v| (v >= lo.as_ref() && v <= hi.as_ref()) != negated),
            },
            // As above: a non-string bound is incomparable with every row.
            _ => KPred::Const(false),
        },
        ColumnData::Bool(_) => KPred::Scalar(orig.clone()),
    }
}

// ---------------------------------------------------------------------------
// Chunk evaluation
// ---------------------------------------------------------------------------

/// Overwrites `mask` with `validity(row) && f(row)` for each chunk row.
fn fill_leaf(
    chunk: &RowChunk<'_>,
    mask: &mut SelMask,
    validity: Option<&[bool]>,
    mut f: impl FnMut(usize) -> bool,
) {
    mask.clear();
    match chunk {
        RowChunk::Range { start, len } => {
            for i in 0..*len {
                let row = start + i;
                if validity.is_none_or(|v| v[row]) && f(row) {
                    mask.set(i);
                }
            }
        }
        RowChunk::Rows(rows) => {
            for (i, &r) in rows.iter().enumerate() {
                let row = r as usize;
                if validity.is_none_or(|v| v[row]) && f(row) {
                    mask.set(i);
                }
            }
        }
    }
}

impl KPred {
    /// Evaluates the predicate over one chunk, overwriting `mask`.
    fn eval(&self, fact: &Table, chunk: &RowChunk<'_>, mask: &mut SelMask) {
        let len = chunk.len();
        match self {
            KPred::Const(true) => mask.fill(len),
            KPred::Const(false) => mask.clear(),
            KPred::And(a, b) => {
                a.eval(fact, chunk, mask);
                let mut rhs = SelMask::new();
                b.eval(fact, chunk, &mut rhs);
                mask.and(&rhs);
            }
            KPred::Or(a, b) => {
                a.eval(fact, chunk, mask);
                let mut rhs = SelMask::new();
                b.eval(fact, chunk, &mut rhs);
                mask.or(&rhs);
            }
            KPred::Not(e) => {
                e.eval(fact, chunk, mask);
                mask.not(len);
            }
            KPred::BoolCol(col) => {
                let c = fact.column(*col);
                let vals = c.bools().expect("bool column");
                fill_leaf(chunk, mask, c.validity(), |row| vals[row]);
            }
            KPred::CmpBool { col, op, lit } => {
                let c = fact.column(*col);
                let vals = c.bools().expect("bool column");
                fill_leaf(chunk, mask, c.validity(), |row| op.eval(vals[row].cmp(lit)));
            }
            KPred::CmpNum { col, op, lit } => {
                let c = fact.column(*col);
                match c.data() {
                    ColumnData::Float(vals) => {
                        fill_leaf(chunk, mask, c.validity(), |row| {
                            op.eval(vals[row].total_cmp(lit))
                        });
                    }
                    ColumnData::Int(vals) => {
                        fill_leaf(chunk, mask, c.validity(), |row| {
                            op.eval((vals[row] as f64).total_cmp(lit))
                        });
                    }
                    _ => unreachable!("CmpNum is lowered over numeric columns"),
                }
            }
            KPred::BetweenNum {
                col,
                lo,
                hi,
                negated,
            } => {
                let c = fact.column(*col);
                let test = |x: f64| {
                    let in_range =
                        x.total_cmp(lo) != Ordering::Less && x.total_cmp(hi) != Ordering::Greater;
                    in_range != *negated
                };
                match c.data() {
                    ColumnData::Float(vals) => {
                        fill_leaf(chunk, mask, c.validity(), |row| test(vals[row]));
                    }
                    ColumnData::Int(vals) => {
                        fill_leaf(chunk, mask, c.validity(), |row| test(vals[row] as f64));
                    }
                    _ => unreachable!("BetweenNum is lowered over numeric columns"),
                }
            }
            KPred::InNum {
                col,
                set,
                has_null,
                negated,
            } => {
                let c = fact.column(*col);
                let test = |x: f64| {
                    let found = set.iter().any(|s| x.total_cmp(s) == Ordering::Equal);
                    if !found && *has_null {
                        return false;
                    }
                    found != *negated
                };
                match c.data() {
                    ColumnData::Float(vals) => {
                        fill_leaf(chunk, mask, c.validity(), |row| test(vals[row]));
                    }
                    ColumnData::Int(vals) => {
                        fill_leaf(chunk, mask, c.validity(), |row| test(vals[row] as f64));
                    }
                    _ => unreachable!("InNum is lowered over numeric columns"),
                }
            }
            KPred::CodeLut { col, lut } => {
                let c = fact.column(*col);
                let codes = c.strs().expect("string column").codes();
                fill_leaf(chunk, mask, c.validity(), |row| lut[codes[row] as usize]);
            }
            KPred::Scalar(p) => {
                let tables = [fact];
                fill_leaf(chunk, mask, None, |row| {
                    let rows = [row];
                    p.matches(&RowCtx {
                        tables: &tables,
                        rows: &rows,
                    })
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Grouping
// ---------------------------------------------------------------------------

/// Per-scan group-state router.
///
/// Ungrouped queries keep one accumulator vector and never touch a map.
/// A GROUP BY on one string, boolean or integer column whose domain is
/// small next to the scan routes through [`DenseGroups`] slots; every
/// other GROUP BY — and an integer column whose values outgrow the dense
/// window mid-scan — goes through the hash map with a reusable key
/// buffer, so the per-row lookup allocates only on first sight of a
/// group. Moving from slots to the map mid-scan keeps every group's
/// accumulators, so the switch never shows in the result's bits.
struct Grouper<'t> {
    /// The GROUP BY columns (empty = one global group).
    cols: Vec<&'t Column>,
    global: Option<States>,
    groups: Groups<'t>,
    key_buf: Vec<Value>,
}

impl<'t> Grouper<'t> {
    fn new(plan: &QueryPlan<'t>, fact: &'t Table, rows: usize) -> Self {
        let cols: Vec<&Column> = plan
            .group_slots
            .iter()
            .map(|s| fact.column(s.col))
            .collect();
        let dense = match cols[..] {
            [col] => DenseGroups::for_scan(col, rows),
            _ => None,
        };
        Grouper {
            key_buf: Vec::with_capacity(cols.len()),
            cols,
            global: None,
            groups: dense.map_or_else(Groups::default, Groups::Dense),
        }
    }

    /// The accumulator vector for `physical`'s group, created on first
    /// use.
    #[inline]
    fn states(&mut self, plan: &QueryPlan<'_>, physical: usize) -> &mut States {
        if self.cols.is_empty() {
            return self.global.get_or_insert_with(|| plan.new_states());
        }
        if let Groups::Dense(dense) = &mut self.groups {
            if !dense.admit(physical) {
                self.groups.make_keyed();
            }
        }
        match &mut self.groups {
            Groups::Dense(dense) => dense
                .slot(physical)
                .get_or_insert_with(|| plan.new_states()),
            Groups::Keyed(groups) => {
                self.key_buf.clear();
                for c in &self.cols {
                    self.key_buf.push(c.value(physical));
                }
                if !groups.contains_key(self.key_buf.as_slice()) {
                    groups.insert(self.key_buf.clone(), plan.new_states());
                }
                groups
                    .get_mut(self.key_buf.as_slice())
                    .expect("just inserted")
            }
        }
    }

    /// The accumulated groups, in the container they were routed
    /// through: dense slots stay dense (no key is materialised per
    /// partition — that happens once per query, in
    /// [`QueryPlan::finish`]).
    fn into_groups(self) -> Groups<'t> {
        match self.global {
            Some(states) => Groups::Keyed(HashMap::from([(Vec::new(), states)])),
            None => self.groups,
        }
    }
}

// ---------------------------------------------------------------------------
// Scratch pool
// ---------------------------------------------------------------------------

/// Reusable per-scan buffers, pooled per thread so steady-state scans
/// allocate nothing for them.
struct Scratch {
    /// One row's replicate multipliers.
    mults: Vec<f64>,
    /// [`RUN_SEG`] rows' worth of multipliers for run-at-a-time fills.
    run_mults: Vec<f64>,
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

fn take_scratch(b: usize) -> Scratch {
    let mut s = SCRATCH_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or(Scratch {
            mults: Vec::new(),
            run_mults: Vec::new(),
        });
    s.mults.resize(b, 0.0);
    s.run_mults.resize(RUN_SEG * b, 0.0);
    s
}

fn return_scratch(s: Scratch) {
    SCRATCH_POOL.with(|p| p.borrow_mut().push(s));
}

// ---------------------------------------------------------------------------
// The kernel scan
// ---------------------------------------------------------------------------

/// Vectorized scan over a [`RowSet`] of fact rows: chunked predicate
/// bitmaps, run-length selected-row iteration, shared per-row
/// accumulation. Produces the same [`PartialAggregates`] as
/// [`QueryPlan::scan`] bit for bit.
pub(crate) fn scan_kernel<'t>(
    plan: &QueryPlan<'t>,
    pred: &KPred,
    rows: &RowSet<'_>,
    rates: RateSpec<'_>,
) -> PartialAggregates<'t> {
    let fact = plan.tables[0];
    let boot_seed = plan.bootstrap.map(|s| s.seed).unwrap_or(0);
    let boot_b = plan.scan_replicates();
    // Exact and Uniform rates give every row the same weight, enabling
    // run-at-a-time multiplier fills over contiguous selections.
    let const_weight = matches!(rates, RateSpec::Exact | RateSpec::Uniform(_));
    let mut grouper = Grouper::new(plan, fact, rows.len());
    let mut scratch = take_scratch(boot_b);
    let mut mask = SelMask::new();
    let mut rows_scanned = 0u64;
    let mut rows_matched = 0u64;

    for chunk in rows.chunks(CHUNK) {
        let len = chunk.len();
        rows_scanned += len as u64;
        pred.eval(fact, &chunk, &mut mask);
        let matched = mask.count(len);
        if matched == 0 {
            continue;
        }
        rows_matched += matched;

        mask.for_each_run(len, |run_start, run_len| match chunk {
            RowChunk::Range { start, .. } if boot_b > 0 && const_weight => {
                // Contiguous physical rows with one shared weight:
                // batch the multiplier derivation per ≤RUN_SEG segment.
                let weight = rates.weight(start + run_start);
                let rescale = rescale_for_weight(weight);
                if rescale > 0.0 {
                    let mut off = 0;
                    while off < run_len {
                        let seg = RUN_SEG.min(run_len - off);
                        let first = start + run_start + off;
                        fill_multipliers_run(
                            boot_seed,
                            first as u64,
                            rescale,
                            boot_b,
                            &mut scratch.run_mults[..seg * boot_b],
                        );
                        for r in 0..seg {
                            let physical = first + r;
                            let row_mults = &scratch.run_mults[r * boot_b..(r + 1) * boot_b];
                            let states = grouper.states(plan, physical);
                            plan.accumulate_row(states, &[physical], weight, row_mults);
                        }
                        off += seg;
                    }
                } else {
                    // Fully observed rows: deterministic, no replicates.
                    for r in 0..run_len {
                        let physical = start + run_start + r;
                        let states = grouper.states(plan, physical);
                        plan.accumulate_row(states, &[physical], weight, &[]);
                    }
                }
            }
            _ => {
                for i in run_start..run_start + run_len {
                    let physical = chunk.row(i);
                    let weight = rates.weight(physical);
                    let mut mults_len = 0;
                    if boot_b > 0 {
                        let rescale = rescale_for_weight(weight);
                        if rescale > 0.0 {
                            fill_multipliers(
                                boot_seed,
                                physical as u64,
                                rescale,
                                &mut scratch.mults,
                            );
                            mults_len = boot_b;
                        }
                    }
                    let states = grouper.states(plan, physical);
                    plan.accumulate_row(states, &[physical], weight, &scratch.mults[..mults_len]);
                }
            }
        });
    }

    return_scratch(scratch);
    PartialAggregates {
        groups: grouper.into_groups(),
        rows_scanned,
        rows_matched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecOptions;
    use blinkdb_common::schema::{Field, Schema};
    use blinkdb_common::value::DataType;
    use blinkdb_estimator::BootstrapSpec;
    use blinkdb_sql::bind::bind;
    use blinkdb_sql::parser::parse;
    use blinkdb_storage::TableRef;

    // ---- SelMask -----------------------------------------------------

    #[test]
    fn mask_fill_not_count_respect_len() {
        let mut m = SelMask::new();
        m.fill(70);
        assert_eq!(m.count(70), 70);
        assert!(m.get(69) && !m.get(70));
        m.not(70);
        assert_eq!(m.count(70), 0);
        m.not(70);
        assert_eq!(m.count(70), 70);
        // Tail bits beyond len stay zero after every op.
        assert_eq!(m.count(CHUNK), 70);
    }

    #[test]
    fn mask_empty_all_and_single() {
        let mut m = SelMask::new();
        assert_eq!(m.count(CHUNK), 0);
        m.for_each_run(CHUNK, |_, _| panic!("no runs in an empty mask"));
        m.fill(CHUNK);
        let mut runs = Vec::new();
        m.for_each_run(CHUNK, |s, l| runs.push((s, l)));
        // Full selection arrives as one run per 64-bit word.
        assert_eq!(runs.len(), WORDS);
        assert_eq!(runs[0], (0, 64));
        assert_eq!(runs[WORDS - 1], (CHUNK - 64, 64));
        assert_eq!(runs.iter().map(|r| r.1).sum::<usize>(), CHUNK);
    }

    #[test]
    fn mask_run_iteration_crosses_word_boundary() {
        let mut m = SelMask::new();
        for i in 60..70 {
            m.set(i);
        }
        m.set(5);
        let mut runs = Vec::new();
        m.for_each_run(128, |s, l| runs.push((s, l)));
        // The 60..70 selection splits at the word boundary; per-row
        // coverage and order are what callers rely on.
        assert_eq!(runs, vec![(5, 1), (60, 4), (64, 6)]);
    }

    #[test]
    fn mask_runs_clip_to_len() {
        let mut m = SelMask::new();
        m.fill(CHUNK);
        let mut total = 0;
        m.for_each_run(100, |_, l| total += l);
        assert_eq!(total, 100);
    }

    // ---- kernel vs scalar oracle ------------------------------------

    /// Conviva-flavoured fixture: dict strings with skew, NULLs in both
    /// the group and aggregate columns, ints, bools.
    fn fixture(rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("x", DataType::Float),
            Field::new("n", DataType::Int),
            Field::new("ended", DataType::Bool),
        ]);
        let mut t = Table::new("t", schema);
        for i in 0..rows {
            let city = match i % 7 {
                0..=2 => Value::str("NY"),
                3 | 4 => Value::str("SF"),
                5 => Value::Null,
                _ => Value::str("LA"),
            };
            let x = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Float((i % 97) as f64)
            };
            t.push_row(&[city, x, Value::Int(i as i64), Value::Bool(i % 3 == 0)])
                .unwrap();
        }
        t
    }

    /// [`fixture`]`(rows)` behind one extra first row whose city, 'RARE',
    /// appears nowhere else.
    fn fixture_after_rare(rows: usize) -> Table {
        let base = fixture(rows);
        let mut t = fixture(0);
        t.push_row(&[
            Value::str("RARE"),
            Value::Float(1.0),
            Value::Int(-1),
            Value::Bool(false),
        ])
        .unwrap();
        for i in 0..base.num_rows() {
            let row: Vec<Value> = (0..4).map(|c| base.value(i, c)).collect();
            t.push_row(&row).unwrap();
        }
        t
    }

    fn plan_for<'a>(sql: &str, t: &'a Table, opts: ExecOptions) -> QueryPlan<'a> {
        let q = parse(sql).unwrap();
        let mut catalog = HashMap::new();
        catalog.insert("t".to_string(), t.schema().clone());
        let b = bind(&q, &catalog).unwrap();
        QueryPlan::compile(&b, t, &HashMap::new(), opts).unwrap()
    }

    fn fingerprint(plan: &QueryPlan<'_>, partial: PartialAggregates) -> Vec<(String, Vec<u64>)> {
        plan.finish(partial, false)
            .rows
            .iter()
            .map(|r| {
                let key = format!("{:?}", r.group);
                let bits = r
                    .aggs
                    .iter()
                    .flat_map(|a| [a.estimate.to_bits(), a.variance.to_bits(), a.rows_used])
                    .collect();
                (key, bits)
            })
            .collect()
    }

    /// Asserts the kernel and the scalar oracle produce bit-identical
    /// partials over `rows` — with and without bootstrap replicates —
    /// and returns the matched count.
    fn assert_bit_identical(sql: &str, t: &Table, rows: RowSet<'_>, rates: RateSpec<'_>) -> u64 {
        let boot = Some(BootstrapSpec {
            replicates: 20,
            seed: 0x5EED,
            force: true,
        });
        let mut matched = 0;
        for bootstrap in [None, boot] {
            let opts = ExecOptions {
                confidence: 0.95,
                bootstrap,
                vectorized: true,
            };
            let plan = plan_for(sql, t, opts);
            assert!(plan.uses_kernel(), "join-free plan takes the kernel");
            let kernel = plan.scan_set(rows.clone(), rates);
            let scalar = plan.scan(rows.iter(), rates);
            assert_eq!(kernel.rows_scanned, scalar.rows_scanned, "{sql}");
            assert_eq!(kernel.rows_matched, scalar.rows_matched, "{sql}");
            matched = kernel.rows_matched;
            assert_eq!(
                fingerprint(&plan, kernel),
                fingerprint(&plan, scalar),
                "{sql} (bootstrap={})",
                bootstrap.is_some()
            );
        }
        matched
    }

    #[test]
    fn empty_row_set_produces_empty_partial() {
        let t = fixture(50);
        let matched = assert_bit_identical(
            "SELECT COUNT(*) FROM t",
            &t,
            RowSet::Rows(&[]),
            RateSpec::Exact,
        );
        assert_eq!(matched, 0);
    }

    #[test]
    fn all_rows_selected() {
        let t = fixture(2500);
        let matched = assert_bit_identical(
            "SELECT COUNT(*), SUM(x), AVG(x) FROM t",
            &t,
            TableRef::full(&t).row_set(),
            RateSpec::Uniform(0.5),
        );
        assert_eq!(matched, 2500);
    }

    #[test]
    fn no_rows_selected() {
        let t = fixture(2500);
        let matched = assert_bit_identical(
            "SELECT COUNT(*) FROM t WHERE city = 'Nowhere'",
            &t,
            TableRef::full(&t).row_set(),
            RateSpec::Uniform(0.5),
        );
        assert_eq!(matched, 0, "string absent from the dictionary");
    }

    #[test]
    fn selection_run_crosses_chunk_boundary() {
        let t = fixture(3000);
        // Rows 1000..=1050 straddle the first CHUNK boundary at 1024.
        let matched = assert_bit_identical(
            "SELECT COUNT(*), SUM(x) FROM t WHERE n BETWEEN 1000 AND 1050",
            &t,
            TableRef::full(&t).row_set(),
            RateSpec::Uniform(0.25),
        );
        assert_eq!(matched, 51);
    }

    #[test]
    fn trailing_partial_chunk() {
        let t = fixture(CHUNK + 123);
        let matched = assert_bit_identical(
            "SELECT COUNT(*), MEDIAN(x) FROM t",
            &t,
            TableRef::full(&t).row_set(),
            RateSpec::Exact,
        );
        assert_eq!(matched as usize, CHUNK + 123);
    }

    #[test]
    fn all_null_column_predicate_and_aggregate() {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new("t", schema);
        for i in 0..200 {
            t.push_row(&[Value::str(["a", "b"][i % 2]), Value::Null])
                .unwrap();
        }
        let matched = assert_bit_identical(
            "SELECT COUNT(*) FROM t WHERE x < 5",
            &t,
            TableRef::full(&t).row_set(),
            RateSpec::Exact,
        );
        assert_eq!(matched, 0, "NULL never matches a comparison");
        // Aggregating the all-NULL column still counts the rows.
        let matched = assert_bit_identical(
            "SELECT g, COUNT(*), AVG(x) FROM t GROUP BY g",
            &t,
            TableRef::full(&t).row_set(),
            RateSpec::Uniform(0.5),
        );
        assert_eq!(matched, 200);
    }

    #[test]
    fn dictionary_code_absent_from_scanned_partition() {
        let with_rare = fixture_after_rare(300);
        // 'RARE' lives only at physical row 0; scan a partition that
        // excludes it. The LUT entry exists but no scanned code hits it.
        let rest: Vec<u32> = (1..with_rare.num_rows() as u32).collect();
        let matched = assert_bit_identical(
            "SELECT COUNT(*) FROM t WHERE city = 'RARE'",
            &with_rare,
            RowSet::Rows(&rest),
            RateSpec::Uniform(0.5),
        );
        assert_eq!(matched, 0);
    }

    #[test]
    fn grouped_and_predicated_paths_match_scalar() {
        let t = fixture(4000);
        for sql in [
            // DenseStr grouper incl. a NULL group.
            "SELECT city, COUNT(*), SUM(x), STDDEV(x) FROM t GROUP BY city",
            // Hash grouper (two group columns).
            "SELECT city, ended, COUNT(*), AVG(x) FROM t GROUP BY city, ended",
            // Compound predicate: numeric cmp, string LUT, IN list, NOT.
            "SELECT COUNT(*), SUM(x) FROM t \
             WHERE (x >= 10 AND city != 'LA') OR n IN (3, 5, 7)",
            "SELECT COUNT(*) FROM t WHERE NOT x < 50",
            "SELECT COUNT(*) FROM t WHERE ended = true AND x != NULL",
            "SELECT RATIO(x, n) FROM t WHERE n NOT IN (1, NULL)",
            // String leaves: =/!=/IN through dictionary look-ups, ordered
            // compares and BETWEEN through truth tables, NULL in a list.
            "SELECT COUNT(*) FROM t WHERE city != 'Nowhere' AND NOT city = 'SF'",
            "SELECT COUNT(*) FROM t WHERE city > 'LA' OR 'NY' >= city",
            "SELECT COUNT(*) FROM t WHERE city IN ('NY', 'LA')",
            "SELECT COUNT(*) FROM t WHERE city NOT IN ('NY', 'Nowhere')",
            "SELECT COUNT(*) FROM t WHERE NOT city NOT IN ('NY', NULL)",
            "SELECT COUNT(*) FROM t WHERE city BETWEEN 'LA' AND 'NY'",
            "SELECT COUNT(*) FROM t WHERE city NOT BETWEEN 'M' AND 'Z'",
            "SELECT COUNT(*) FROM t WHERE NOT city BETWEEN 'LA' AND NULL",
            // Dense routers beyond strings: a bool column, an int column
            // whose window starts anywhere and grows both ways.
            "SELECT ended, COUNT(*), AVG(x) FROM t WHERE n != 5 GROUP BY ended",
            "SELECT n, COUNT(*), SUM(x) FROM t WHERE n BETWEEN 900 AND 1100 GROUP BY n",
        ] {
            assert_bit_identical(
                sql,
                &t,
                TableRef::full(&t).row_set(),
                RateSpec::Uniform(0.5),
            );
        }
    }

    /// Dense partials merge slot-wise and `finish` to the same rows, in
    /// the same order, as the scalar path's hash-merged partials — NULL
    /// group included, with codes ('RARE', 'LA') absent from some
    /// partitions and one partition empty — closed form and bootstrap.
    #[test]
    fn dense_merge_finishes_like_hash_merge() {
        let t = fixture_after_rare(900);
        let all: Vec<u32> = (0..t.num_rows() as u32).collect();
        // Partition 0 holds 'RARE'; partition 1 holds no 'LA' row
        // (`i % 7 == 6` in the fixture, shifted by the prepended row).
        let no_la: Vec<u32> = (300..600u32).filter(|r| (r - 1) % 7 != 6).collect();
        let parts: [&[u32]; 4] = [&all[..300], &no_la, &[], &all[600..]];
        let boot = Some(BootstrapSpec {
            replicates: 20,
            seed: 0x5EED,
            force: true,
        });
        for (sql, groups) in [
            (
                "SELECT city, COUNT(*), AVG(x), MEDIAN(x) FROM t WHERE n != 5 GROUP BY city",
                5, // NY, SF, LA, RARE and NULL
            ),
            ("SELECT ended, COUNT(*), STDDEV(x) FROM t GROUP BY ended", 2),
        ] {
            for bootstrap in [None, boot] {
                let opts = ExecOptions {
                    bootstrap,
                    ..ExecOptions::default()
                };
                let plan = plan_for(sql, &t, opts);
                let rates = RateSpec::Uniform(0.5);
                let mut dense = PartialAggregates::default();
                let mut hashed = PartialAggregates::default();
                for part in parts {
                    dense.merge(plan.scan_set(RowSet::Rows(part), rates));
                    hashed.merge(plan.scan(part.iter().map(|&r| r as usize), rates));
                }
                assert!(matches!(dense.groups, Groups::Dense(_)), "{sql}");
                let Groups::Keyed(keyed) = &hashed.groups else {
                    panic!("the scalar scan keys its groups");
                };
                assert_eq!(keyed.len(), groups, "{sql}");
                assert_eq!(fingerprint(&plan, dense), fingerprint(&plan, hashed));
            }
        }
    }

    /// An integer GROUP BY stays dense while its values fit one window —
    /// negative keys, NULL keys, partitions whose windows differ — and
    /// moves to the hash router, mid-scan or mid-merge, when they do not;
    /// the answer's bits never show which.
    #[test]
    fn int_group_window_grows_merges_and_overflows() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new("t", schema);
        for i in 0..3000i64 {
            let k = match i {
                // Far outside any window the first 2000 rows open.
                2500 => Value::Int(1_000_000),
                _ if i % 17 == 0 => Value::Null,
                // Descending, crossing zero: the window grows downward.
                _ => Value::Int(40 - (i % 90)),
            };
            t.push_row(&[k, Value::Float((i % 31) as f64)]).unwrap();
        }
        let plan = plan_for(
            "SELECT k, COUNT(*), AVG(x) FROM t GROUP BY k",
            &t,
            ExecOptions::default(),
        );
        let rates = RateSpec::Uniform(0.25);
        let all: Vec<u32> = (0..3000).collect();
        let scan = |part: &[u32]| plan.scan_set(RowSet::Rows(part), rates);

        let narrow = scan(&all[..1000]);
        assert!(matches!(narrow.groups, Groups::Dense(_)));
        // The outlier arrives 500 rows into this scan.
        let overflowed = scan(&all[2000..]);
        assert!(matches!(overflowed.groups, Groups::Keyed(_)));
        // Two dense windows too far apart to share one.
        let far = scan(&all[2500..2501]);
        assert!(matches!(far.groups, Groups::Dense(_)));
        let mut apart = scan(&all[..1000]);
        apart.merge(far);
        assert!(matches!(apart.groups, Groups::Keyed(_)));

        for parts in [
            vec![&all[..1000], &all[1000..2000], &all[2000..]],
            vec![&all[..2500], &all[2500..2501], &all[2501..]],
            vec![&all[2000..], &all[..10], &all[10..2000]],
        ] {
            let mut kernel = PartialAggregates::default();
            let mut scalar = PartialAggregates::default();
            for part in parts {
                kernel.merge(scan(part));
                scalar.merge(plan.scan(part.iter().map(|&r| r as usize), rates));
            }
            assert_eq!(fingerprint(&plan, kernel), fingerprint(&plan, scalar));
        }
    }

    /// A dense router is chosen only when its domain is small next to
    /// the rows being scanned.
    #[test]
    fn few_rows_over_a_large_dictionary_take_the_hash_router() {
        let schema = Schema::new(vec![Field::new("g", DataType::Str)]);
        let mut t = Table::new("t", schema);
        for i in 0..2000 {
            t.push_row(&[Value::str(format!("g{}", i % 500))]).unwrap();
        }
        let plan = plan_for(
            "SELECT g, COUNT(*) FROM t GROUP BY g",
            &t,
            ExecOptions::default(),
        );
        let few = plan.scan_set(RowSet::Range(0..3), RateSpec::Exact);
        assert!(matches!(few.groups, Groups::Keyed(_)));
        let many = plan.scan_set(RowSet::Range(0..2000), RateSpec::Exact);
        assert!(matches!(many.groups, Groups::Dense(_)));
    }

    /// The predicate is lowered when the plan is compiled, and never
    /// again however many partitions the plan scans.
    #[test]
    fn lowers_once_per_plan() {
        let t = fixture(500);
        let before = LOWERINGS.with(|n| n.get());
        let plan = plan_for(
            "SELECT city, COUNT(*) FROM t WHERE city IN ('NY', 'SF') AND x < 50 GROUP BY city",
            &t,
            ExecOptions::default(),
        );
        assert_eq!(LOWERINGS.with(|n| n.get()), before + 1);
        let ids: Vec<u32> = (0..500).collect();
        for part in ids.chunks(50) {
            plan.scan_set(RowSet::Rows(part), RateSpec::Uniform(0.5));
        }
        assert_eq!(LOWERINGS.with(|n| n.get()), before + 1);
        // The scalar oracle's plan lowers nothing.
        let opts = ExecOptions {
            vectorized: false,
            ..ExecOptions::default()
        };
        plan_for("SELECT COUNT(*) FROM t WHERE x < 50", &t, opts);
        assert_eq!(LOWERINGS.with(|n| n.get()), before + 1);
    }

    #[test]
    fn subset_scan_per_row_rates_match_scalar() {
        let t = fixture(2000);
        let subset: Vec<u32> = (0..2000u32).filter(|i| i % 3 != 1).collect();
        let rates: Vec<f64> = (0..2000)
            .map(|i| if i % 5 == 0 { 1.0 } else { 0.5 })
            .collect();
        assert_bit_identical(
            "SELECT city, COUNT(*), SUM(x), STDDEV(x) FROM t GROUP BY city",
            &t,
            RowSet::Rows(&subset),
            RateSpec::PerRow(&rates),
        );
        assert_bit_identical(
            "SELECT COUNT(*), SUM(x) FROM t WHERE x BETWEEN 10 AND 60",
            &t,
            RowSet::Rows(&subset),
            RateSpec::StratifiedCap {
                freqs: &rates,
                cap: 0.75,
            },
        );
    }

    #[test]
    fn scalar_escape_hatches_disable_kernel() {
        let t = fixture(10);
        let opts = ExecOptions {
            vectorized: false,
            ..ExecOptions::default()
        };
        assert!(!plan_for("SELECT COUNT(*) FROM t", &t, opts).uses_kernel());
        assert!(plan_for("SELECT COUNT(*) FROM t", &t, ExecOptions::default()).uses_kernel());
    }
}
