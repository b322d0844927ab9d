//! Hash joins against dimension tables.
//!
//! §2.1 of the paper: warehouses have one large fact table joined to
//! small dimension tables by foreign key; BlinkDB samples only the fact
//! table, and dimension tables ("small enough to fit in the aggregate
//! memory of cluster nodes") are joined in full. We build a hash index
//! per dimension table on its join key and probe it per fact row.

use blinkdb_common::value::Value;
use blinkdb_storage::Table;
use std::collections::HashMap;

/// A hash index from join-key value to the dimension rows holding it.
#[derive(Debug)]
pub struct DimIndex {
    map: HashMap<Value, Vec<u32>>,
}

impl DimIndex {
    /// Builds the index over `key_col` of `dim`.
    ///
    /// NULL keys never participate in an inner join and are skipped.
    pub fn build(dim: &Table, key_col: usize) -> Self {
        let col = dim.column(key_col);
        let mut map: HashMap<Value, Vec<u32>> = HashMap::with_capacity(dim.num_rows());
        for row in 0..dim.num_rows() {
            let v = col.value(row);
            if v.is_null() {
                continue;
            }
            map.entry(v).or_default().push(row as u32);
        }
        DimIndex { map }
    }

    /// Dimension rows matching `key` (empty slice if none).
    pub fn probe(&self, key: &Value) -> &[u32] {
        if key.is_null() {
            return &[];
        }
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Enumerates the cross product of per-dimension match lists.
///
/// For the common FK case every list has length 1 and this yields exactly
/// one combination. Yields nothing if any dimension has no match (inner
/// join semantics).
pub fn match_combinations(matches: &[&[u32]]) -> Vec<Vec<usize>> {
    if matches.iter().any(|m| m.is_empty()) {
        return Vec::new();
    }
    let mut combos: Vec<Vec<usize>> = vec![Vec::new()];
    for m in matches {
        let mut next = Vec::with_capacity(combos.len() * m.len());
        for combo in &combos {
            for &row in *m {
                let mut c = combo.clone();
                c.push(row as usize);
                next.push(c);
            }
        }
        combos = next;
    }
    combos
}

#[cfg(test)]
mod tests {
    use super::*;
    use blinkdb_common::schema::{Field, Schema};
    use blinkdb_common::value::DataType;

    fn dim() -> Table {
        let schema = Schema::new(vec![
            Field::new("name", DataType::Str),
            Field::new("region", DataType::Str),
        ]);
        let mut t = Table::new("cities", schema);
        for (n, r) in [("NY", "east"), ("SF", "west"), ("LA", "west")] {
            t.push_row(&[Value::str(n), Value::str(r)]).unwrap();
        }
        t
    }

    #[test]
    fn probe_finds_unique_rows() {
        let d = dim();
        let idx = DimIndex::build(&d, 0);
        assert_eq!(idx.probe(&Value::str("SF")), &[1]);
        assert_eq!(idx.probe(&Value::str("Boston")), &[] as &[u32]);
    }

    #[test]
    fn duplicate_keys_collect_all_rows() {
        let d = dim();
        let idx = DimIndex::build(&d, 1); // region column has dup "west"
        assert_eq!(idx.probe(&Value::str("west")), &[1, 2]);
    }

    #[test]
    fn null_keys_do_not_join() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let mut t = Table::new("d", schema);
        t.push_row(&[Value::Int(1)]).unwrap();
        t.push_row(&[Value::Null]).unwrap();
        let idx = DimIndex::build(&t, 0);
        assert_eq!(idx.probe(&Value::Null), &[] as &[u32]);
    }

    #[test]
    fn combinations_cross_product() {
        let a = [1u32, 2u32];
        let b = [7u32];
        let combos = match_combinations(&[&a, &b]);
        assert_eq!(combos, vec![vec![1, 7], vec![2, 7]]);
    }

    #[test]
    fn empty_match_kills_row() {
        let a = [1u32];
        let empty: [u32; 0] = [];
        assert!(match_combinations(&[&a, &empty]).is_empty());
    }

    #[test]
    fn no_dimensions_is_one_empty_combo() {
        let combos = match_combinations(&[]);
        assert_eq!(combos, vec![Vec::<usize>::new()]);
    }
}
