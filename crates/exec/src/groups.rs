//! Group containers of a scan: how per-group accumulators are held
//! between the per-row router and [`crate::partial::QueryPlan::finish`].
//!
//! A GROUP BY on one dictionary-string, boolean or small-domain integer
//! column routes rows through [`DenseGroups`] — a flat slot vector
//! indexed by dictionary code / flag / offset into a value window — and
//! the partial keeps that vector: partitions merge slot-wise and the
//! `Vec<Value>` group keys are built once per query, when the answer is
//! finished. Everything else (several columns, wide integer ranges,
//! joins, the scalar oracle) holds [`Groups::Keyed`], a map from
//! materialised key to accumulators.
//!
//! Both shapes can meet in one merge (the router is chosen per scan, and
//! an integer window can overflow mid-scan); the merged state of every
//! group is the same sequence of [`AggState::merge`] calls either way,
//! so which container a partial used never shows in an answer's bits.

use crate::aggregate::AggState;
use blinkdb_common::column::{Column, ColumnData, StrColumn};
use blinkdb_common::value::Value;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Most consecutive integer values one dense window spans.
pub(crate) const DENSE_INT_WINDOW: usize = 4096;
/// Dictionary size above which a string column is never routed densely.
const DENSE_DICT_CAP: usize = 1 << 20;
/// A dense router is chosen only while its domain stays within this many
/// slots per scanned row: every slot is allocated per scan and walked
/// again per merge, so a partition of a few rows grouped by a
/// thousand-entry dictionary is cheaper through the hash router.
const DENSE_SLOTS_PER_ROW: usize = 8;

/// Accumulators of one group: one [`AggState`] per SELECT aggregate.
pub(crate) type States = Vec<AggState>;
/// Groups by materialised key.
pub(crate) type KeyedGroups = HashMap<Vec<Value>, States>;

/// Merges `theirs` into `mine` aggregate by aggregate.
fn merge_states(mine: &mut [AggState], theirs: States) {
    for (m, t) in mine.iter_mut().zip(theirs) {
        m.merge(t);
    }
}

/// Merges one optional slot into another.
fn merge_slot(mine: &mut Option<States>, theirs: Option<States>) {
    match (mine.as_mut(), theirs) {
        (_, None) => {}
        (Some(mine), Some(theirs)) => merge_states(mine, theirs),
        (None, theirs) => *mine = theirs,
    }
}

/// Adds one keyed group to `groups`, merging on collision.
fn merge_keyed(groups: &mut KeyedGroups, key: Vec<Value>, states: States) {
    match groups.entry(key) {
        Entry::Vacant(e) => {
            e.insert(states);
        }
        Entry::Occupied(mut e) => merge_states(e.get_mut(), states),
    }
}

/// The payload a dense router reads its slot index from.
#[derive(Debug, Clone, Copy)]
enum DenseCol<'t> {
    /// Slot = dictionary code.
    Str(&'t StrColumn),
    /// Slot = `false`, `true`.
    Bool(&'t [bool]),
    /// Slot = value − `base`, over a window grown on demand.
    Int(&'t [i64]),
}

/// Groups of one GROUP BY column held as a flat slot vector.
#[derive(Debug, Clone)]
pub(crate) struct DenseGroups<'t> {
    col: DenseCol<'t>,
    validity: Option<&'t [bool]>,
    /// The integer value of slot 0 (integer windows with at least one
    /// slot; unused otherwise).
    base: i64,
    /// A deque so an integer window grows at either end in amortised
    /// constant time.
    slots: VecDeque<Option<States>>,
    /// The NULL group.
    null: Option<States>,
    /// Most slots the scan that routes rows here may grow `slots` to.
    scan_max_slots: usize,
}

impl<'t> DenseGroups<'t> {
    /// A dense router over `col` for a scan of `rows` rows, when the
    /// column's type has one and its domain is small next to the scan.
    pub(crate) fn for_scan(col: &'t Column, rows: usize) -> Option<Self> {
        let budget = rows.saturating_mul(DENSE_SLOTS_PER_ROW);
        // (payload, slots allocated up front, slots the scan may grow to)
        let (col_ref, slots, scan_max_slots) = match col.data() {
            ColumnData::Str(s) if s.dict_len() <= DENSE_DICT_CAP => {
                (DenseCol::Str(s), s.dict_len(), s.dict_len())
            }
            ColumnData::Bool(v) => (DenseCol::Bool(v), 2, 2),
            ColumnData::Int(v) => (DenseCol::Int(v), 0, budget.min(DENSE_INT_WINDOW)),
            _ => return None,
        };
        if slots > budget {
            return None;
        }
        Some(DenseGroups {
            col: col_ref,
            validity: col.validity(),
            base: 0,
            slots: (0..slots).map(|_| None).collect(),
            null: None,
            scan_max_slots,
        })
    }

    /// Makes sure `physical`'s group has a slot, growing an integer
    /// window if the scan's slot budget allows. `false` means the value
    /// does not fit: the caller moves the groups to the hash router.
    #[inline]
    pub(crate) fn admit(&mut self, physical: usize) -> bool {
        let DenseCol::Int(vals) = self.col else {
            return true;
        };
        if self.validity.is_some_and(|v| !v[physical]) {
            return true;
        }
        let v = vals[physical];
        if (v.wrapping_sub(self.base) as u64) < self.slots.len() as u64 {
            return true;
        }
        self.grow_to_cover(v, v, self.scan_max_slots)
    }

    /// Grows an integer window to cover `lo..=hi` as well, if the result
    /// spans at most `max_slots` values.
    fn grow_to_cover(&mut self, lo: i64, hi: i64, max_slots: usize) -> bool {
        if self.slots.is_empty() {
            self.base = lo;
        }
        let end = self.base as i128 + self.slots.len() as i128;
        let new_lo = (self.base as i128).min(lo as i128);
        let new_end = end.max(hi as i128 + 1);
        if new_end - new_lo > max_slots as i128 {
            return false;
        }
        for _ in 0..(self.base as i128 - new_lo) {
            self.slots.push_front(None);
        }
        self.base = new_lo as i64;
        self.slots.resize_with((new_end - new_lo) as usize, || None);
        true
    }

    /// The slot of `physical`'s group. Integer rows must have been
    /// [`DenseGroups::admit`]ted.
    #[inline]
    pub(crate) fn slot(&mut self, physical: usize) -> &mut Option<States> {
        if self.validity.is_some_and(|v| !v[physical]) {
            return &mut self.null;
        }
        let idx = match self.col {
            DenseCol::Str(s) => s.codes()[physical] as usize,
            DenseCol::Bool(v) => v[physical] as usize,
            DenseCol::Int(v) => v[physical].wrapping_sub(self.base) as usize,
        };
        &mut self.slots[idx]
    }

    /// Merges `other` (same plan, so same column) slot by slot. Gives
    /// `other` back when the two integer windows together span more than
    /// [`DENSE_INT_WINDOW`] values.
    fn merge(&mut self, other: DenseGroups<'t>) -> Result<(), DenseGroups<'t>> {
        let mut offset = 0;
        if matches!(self.col, DenseCol::Int(_)) && !other.slots.is_empty() {
            let other_hi = other.base + (other.slots.len() as i64 - 1);
            if !self.grow_to_cover(other.base, other_hi, DENSE_INT_WINDOW) {
                return Err(other);
            }
            offset = (other.base - self.base) as usize;
        }
        debug_assert!(
            offset + other.slots.len() <= self.slots.len(),
            "partials of one plan share one domain"
        );
        for (mine, theirs) in self.slots.iter_mut().skip(offset).zip(other.slots) {
            merge_slot(mine, theirs);
        }
        merge_slot(&mut self.null, other.null);
        Ok(())
    }

    /// The groups with their keys materialised, in slot order (NULL
    /// last).
    pub(crate) fn into_keyed(self) -> impl Iterator<Item = (Vec<Value>, States)> + 't {
        let (col, base) = (self.col, self.base);
        let key = move |i: usize| match col {
            DenseCol::Str(s) => Value::Str(s.decode(i as u32).expect("code in dict").clone()),
            DenseCol::Bool(_) => Value::Bool(i == 1),
            DenseCol::Int(_) => Value::Int(base + i as i64),
        };
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(move |(i, states)| Some((vec![key(i)], states?)))
            .chain(self.null.map(|states| (vec![Value::Null], states)))
    }

    fn states_mut(&mut self) -> impl Iterator<Item = &mut States> {
        self.slots.iter_mut().chain([&mut self.null]).flatten()
    }
}

/// The groups of a partial, in whichever container its router used.
#[derive(Debug, Clone)]
pub(crate) enum Groups<'t> {
    /// By materialised key.
    Keyed(KeyedGroups),
    /// By slot of the plan's single GROUP BY column.
    Dense(DenseGroups<'t>),
}

impl Default for Groups<'_> {
    fn default() -> Self {
        Groups::Keyed(HashMap::new())
    }
}

impl<'t> Groups<'t> {
    /// Merges `other`'s groups into this container; matching groups
    /// merge their accumulators pairwise. Two dense containers merge
    /// slot-wise; a dense one meeting a keyed one (or an integer window
    /// that cannot hold both) is keyed first, once, and stays keyed.
    pub(crate) fn merge(&mut self, other: Groups<'t>) {
        let other = match (&mut *self, other) {
            (_, Groups::Keyed(theirs)) if theirs.is_empty() => return,
            (Groups::Keyed(mine), theirs) if mine.is_empty() => {
                *self = theirs;
                return;
            }
            (Groups::Dense(mine), Groups::Dense(theirs)) => match mine.merge(theirs) {
                Ok(()) => return,
                Err(theirs) => Groups::Dense(theirs),
            },
            (_, other) => other,
        };
        let mine = self.make_keyed();
        let add = |(key, states)| merge_keyed(mine, key, states);
        match other {
            Groups::Keyed(theirs) => theirs.into_iter().for_each(add),
            Groups::Dense(theirs) => theirs.into_keyed().for_each(add),
        }
    }

    /// Turns a dense container into a keyed one in place.
    pub(crate) fn make_keyed(&mut self) -> &mut KeyedGroups {
        if matches!(self, Groups::Dense(_)) {
            if let Groups::Dense(dense) = std::mem::take(self) {
                *self = Groups::Keyed(dense.into_keyed().collect());
            }
        }
        match self {
            Groups::Keyed(keyed) => keyed,
            Groups::Dense(_) => unreachable!("just keyed"),
        }
    }

    /// Every group's accumulators.
    pub(crate) fn for_each_state(&mut self, mut f: impl FnMut(&mut AggState)) {
        match self {
            Groups::Keyed(keyed) => keyed.values_mut().flatten().for_each(&mut f),
            Groups::Dense(dense) => dense.states_mut().flatten().for_each(&mut f),
        }
    }
}
