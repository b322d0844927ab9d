//! The columnar table.

use blinkdb_common::column::Column;
use blinkdb_common::error::{BlinkError, Result};
use blinkdb_common::schema::Schema;
use blinkdb_common::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable-after-build, column-oriented table.
///
/// Physical rows may represent many *logical* rows: the pair
/// (`logical_rows_per_row`, `row_bytes`) scales byte accounting up to the
/// paper's data volumes while all statistics run on the physical rows.
/// A freshly built table has scale 1 and a `row_bytes` derived from the
/// schema's simulated column widths.
///
/// # Examples
///
/// ```
/// use blinkdb_common::schema::{Field, Schema};
/// use blinkdb_common::value::{DataType, Value};
/// use blinkdb_storage::table::Table;
///
/// let schema = Schema::new(vec![
///     Field::new("city", DataType::Str),
///     Field::new("session_time", DataType::Float),
/// ]);
/// let mut t = Table::new("sessions", schema);
/// t.push_row(&[Value::str("NY"), Value::Float(15.0)]).unwrap();
/// t.push_row(&[Value::str("SF"), Value::Float(20.0)]).unwrap();
/// assert_eq!(t.num_rows(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
    logical_rows_per_row: f64,
    row_bytes: u64,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        let row_bytes = schema
            .fields()
            .iter()
            .map(|f| f.dtype.sim_width_bytes())
            .sum();
        Table {
            name: name.into(),
            schema,
            columns,
            num_rows: 0,
            logical_rows_per_row: 1.0,
            row_bytes,
        }
    }

    /// Builds a table directly from pre-constructed columns.
    ///
    /// All columns must match the schema's types and share one length.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
    ) -> Result<Self> {
        if columns.len() != schema.len() {
            return Err(BlinkError::schema(format!(
                "{} columns provided for {}-column schema",
                columns.len(),
                schema.len()
            )));
        }
        let mut num_rows = None;
        for (col, field) in columns.iter().zip(schema.fields()) {
            if col.dtype() != field.dtype {
                return Err(BlinkError::schema(format!(
                    "column `{}` expects {} but got {}",
                    field.name,
                    field.dtype,
                    col.dtype()
                )));
            }
            match num_rows {
                None => num_rows = Some(col.len()),
                Some(n) if n != col.len() => {
                    return Err(BlinkError::schema(format!(
                        "column `{}` has {} rows, expected {n}",
                        field.name,
                        col.len()
                    )))
                }
                _ => {}
            }
        }
        let row_bytes = schema
            .fields()
            .iter()
            .map(|f| f.dtype.sim_width_bytes())
            .sum();
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            num_rows: num_rows.unwrap_or(0),
            logical_rows_per_row: 1.0,
            row_bytes,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of physical rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// The column at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Case-insensitive column lookup.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Appends a row of values (one per schema field).
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(BlinkError::schema(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.schema.len()
            )));
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v)?;
        }
        self.num_rows += 1;
        Ok(())
    }

    /// Checks a batch of rows against the schema (arity and value types)
    /// without touching the table — exactly the validation
    /// [`Table::append_rows`] performs before mutating anything. The
    /// ingest tier runs this *before* write-ahead-logging a batch, so a
    /// batch that could never apply is rejected up front instead of
    /// being made durable and poisoning recovery.
    pub fn validate_rows(&self, rows: &[Vec<Value>]) -> Result<()> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != self.schema.len() {
                return Err(BlinkError::schema(format!(
                    "append row {i}: arity {} does not match schema arity {}",
                    row.len(),
                    self.schema.len()
                )));
            }
            for (v, field) in row.iter().zip(self.schema.fields()) {
                if !field.dtype.accepts(v) {
                    return Err(BlinkError::schema(format!(
                        "append row {i}: column `{}` expects {} but got {v}",
                        field.name, field.dtype
                    )));
                }
            }
        }
        Ok(())
    }

    /// Appends a batch of rows, all-or-nothing: every row is validated
    /// against the schema ([`Table::validate_rows`]) *before* any column
    /// is touched, so a bad row in the middle of a batch can never leave
    /// the table with ragged columns.
    ///
    /// Returns the physical row range the batch landed in. Existing row
    /// indices are never disturbed — appends only extend the table —
    /// which is what lets sample families remember their rows by fact
    /// row index across ingestion.
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<std::ops::Range<usize>> {
        self.validate_rows(rows)?;
        let start = self.num_rows;
        for row in rows {
            for (col, v) in self.columns.iter_mut().zip(row) {
                col.push(v).expect("pre-validated append row");
            }
            self.num_rows += 1;
        }
        Ok(start..self.num_rows)
    }

    /// The boxed value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// How many logical rows each physical row represents (≥ 1).
    pub fn logical_rows_per_row(&self) -> f64 {
        self.logical_rows_per_row
    }

    /// Simulated bytes per logical row.
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Overrides the logical scale: `logical_rows_per_row` physical→logical
    /// multiplier and simulated `row_bytes` per logical row.
    ///
    /// Used by workload generators to make a few million generated rows
    /// stand in for the paper's multi-terabyte tables (each figure in
    /// `crates/bench/benches/repro.rs` states the scale it sets).
    pub fn set_logical_scale(&mut self, logical_rows_per_row: f64, row_bytes: u64) {
        assert!(
            logical_rows_per_row >= 1.0,
            "scale must be >= 1, got {logical_rows_per_row}"
        );
        self.logical_rows_per_row = logical_rows_per_row;
        self.row_bytes = row_bytes;
    }

    /// Total logical rows (physical rows × scale).
    pub fn logical_rows(&self) -> f64 {
        self.num_rows as f64 * self.logical_rows_per_row
    }

    /// Total simulated bytes of the table.
    pub fn logical_bytes(&self) -> f64 {
        self.logical_rows() * self.row_bytes as f64
    }

    /// Builds a new table containing the physical rows at `indices`
    /// (logical scale and name are preserved).
    pub fn gather(&self, indices: &[usize]) -> Table {
        let columns = self.columns.iter().map(|c| c.gather(indices)).collect();
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns,
            num_rows: indices.len(),
            logical_rows_per_row: self.logical_rows_per_row,
            row_bytes: self.row_bytes,
        }
    }

    /// Joint group key for a row over a column set (used for stratified
    /// frequencies and distinct counts).
    pub fn row_key(&self, row: usize, cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&c| self.columns[c].value(row)).collect()
    }

    /// Frequency of every distinct value combination over `cols`:
    /// the `F(φ, T, x)` of Table 1 in the paper.
    pub fn group_frequencies(&self, cols: &[usize]) -> HashMap<Vec<Value>, u64> {
        let mut freqs: HashMap<Vec<Value>, u64> = HashMap::new();
        for row in 0..self.num_rows {
            *freqs.entry(self.row_key(row, cols)).or_insert(0) += 1;
        }
        freqs
    }

    /// Resolves column names to indices, error on unknown names.
    pub fn resolve_columns(&self, names: &[impl AsRef<str>]) -> Result<Vec<usize>> {
        names
            .iter()
            .map(|n| self.schema.resolve(n.as_ref()))
            .collect()
    }
}

/// A borrowed view of a table restricted to a subset of physical rows.
///
/// Multi-resolution samples share one physical table (Fig. 4 in the
/// paper); a resolution is just a row subset, so execution takes a
/// `TableRef` rather than a `Table`.
#[derive(Clone, Copy)]
pub struct TableRef<'a> {
    table: &'a Table,
    rows: Option<&'a [u32]>,
}

impl<'a> TableRef<'a> {
    /// A view of the whole table.
    pub fn full(table: &'a Table) -> Self {
        TableRef { table, rows: None }
    }

    /// A view of the rows listed in `rows` (physical row indices).
    pub fn subset(table: &'a Table, rows: &'a [u32]) -> Self {
        TableRef {
            table,
            rows: Some(rows),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        self.rows.map_or(self.table.num_rows(), |r| r.len())
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maps a view-relative index to a physical row index.
    pub fn physical_row(&self, view_row: usize) -> usize {
        match self.rows {
            Some(rows) => rows[view_row] as usize,
            None => view_row,
        }
    }

    /// Iterates physical row indices of the view.
    pub fn iter_physical(&self) -> impl Iterator<Item = usize> + 'a {
        let table_rows = self.table.num_rows();
        match self.rows {
            Some(rows) => {
                Box::new(rows.iter().map(|&r| r as usize)) as Box<dyn Iterator<Item = usize> + 'a>
            }
            None => Box::new(0..table_rows),
        }
    }

    /// Simulated logical bytes covered by this view.
    pub fn logical_bytes(&self) -> f64 {
        self.len() as f64 * self.table.logical_rows_per_row() * self.table.row_bytes() as f64
    }

    /// The view's rows as a [`RowSet`] — the chunked-access form the
    /// vectorized scan kernels consume.
    pub fn row_set(&self) -> RowSet<'a> {
        match self.rows {
            Some(rows) => RowSet::Rows(rows),
            None => RowSet::Range(0..self.table.num_rows()),
        }
    }
}

/// A set of physical fact rows to scan, in scan order.
///
/// Two shapes cover every caller: a full table (or any contiguous
/// span) is a `Range`, and a sample resolution or partition is a `Rows`
/// list of physical row ids. The distinction matters to the vectorized
/// kernels: `Range` chunks slice columns directly, `Rows` chunks gather
/// through the id list.
#[derive(Debug, Clone)]
pub enum RowSet<'a> {
    /// A contiguous span of physical rows.
    Range(std::ops::Range<usize>),
    /// An explicit list of physical row ids (scan order = slice order).
    Rows(&'a [u32]),
}

impl<'a> RowSet<'a> {
    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        match self {
            RowSet::Range(r) => r.len(),
            RowSet::Rows(r) => r.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates physical row ids in scan order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        match self {
            RowSet::Range(r) => Box::new(r.clone()) as Box<dyn Iterator<Item = usize> + 'a>,
            RowSet::Rows(rows) => Box::new(rows.iter().map(|&r| r as usize)),
        }
    }

    /// Splits the set into consecutive chunks of at most `chunk` rows
    /// (the last chunk may be shorter; an empty set yields no chunks).
    pub fn chunks(&self, chunk: usize) -> impl Iterator<Item = RowChunk<'a>> + '_ {
        assert!(chunk > 0, "chunk size must be positive");
        let total = self.len();
        (0..total.div_ceil(chunk)).map(move |i| {
            let start = i * chunk;
            let len = chunk.min(total - start);
            match self {
                RowSet::Range(r) => RowChunk::Range {
                    start: r.start + start,
                    len,
                },
                RowSet::Rows(rows) => RowChunk::Rows(&rows[start..start + len]),
            }
        })
    }
}

/// One fixed-size window of a [`RowSet`].
#[derive(Debug, Clone, Copy)]
pub enum RowChunk<'a> {
    /// `len` consecutive physical rows starting at `start`.
    Range {
        /// First physical row of the chunk.
        start: usize,
        /// Rows in the chunk.
        len: usize,
    },
    /// Explicit physical row ids.
    Rows(&'a [u32]),
}

impl RowChunk<'_> {
    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        match self {
            RowChunk::Range { len, .. } => *len,
            RowChunk::Rows(rows) => rows.len(),
        }
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical row id at chunk-relative index `i`.
    #[inline]
    pub fn row(&self, i: usize) -> usize {
        match self {
            RowChunk::Range { start, .. } => start + i,
            RowChunk::Rows(rows) => rows[i] as usize,
        }
    }
}

/// Shared-ownership alias used where tables flow between threads.
pub type SharedTable = Arc<Table>;

#[cfg(test)]
mod tests {
    use super::*;
    use blinkdb_common::schema::Field;
    use blinkdb_common::value::DataType;

    fn sessions() -> Table {
        let schema = Schema::new(vec![
            Field::new("url", DataType::Str),
            Field::new("city", DataType::Str),
            Field::new("browser", DataType::Str),
            Field::new("session_time", DataType::Float),
        ]);
        let mut t = Table::new("sessions", schema);
        // Table 3 from the paper.
        let rows = [
            ("cnn.com", "New York", "Firefox", 15.0),
            ("yahoo.com", "New York", "Firefox", 20.0),
            ("google.com", "Berkeley", "Firefox", 85.0),
            ("google.com", "New York", "Safari", 82.0),
            ("bing.com", "Cambridge", "IE", 22.0),
        ];
        for (u, c, b, s) in rows {
            t.push_row(&[Value::str(u), Value::str(c), Value::str(b), Value::Float(s)])
                .unwrap();
        }
        t
    }

    #[test]
    fn push_and_read_back() {
        let t = sessions();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.value(1, 0), Value::str("yahoo.com"));
        assert_eq!(t.value(4, 3), Value::Float(22.0));
        assert!(t.column_by_name("CITY").is_some());
        assert!(t.column_by_name("bogus").is_none());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut t = sessions();
        assert!(t.push_row(&[Value::str("x")]).is_err());
        assert_eq!(t.num_rows(), 5, "failed push must not mutate");
    }

    #[test]
    fn append_rows_is_all_or_nothing() {
        let mut t = sessions();
        let range = t
            .append_rows(&[
                vec![
                    Value::str("a.com"),
                    Value::str("SF"),
                    Value::str("Firefox"),
                    Value::Float(1.0),
                ],
                vec![
                    Value::str("b.com"),
                    Value::str("LA"),
                    Value::str("IE"),
                    Value::Int(2), // Int widens into the Float column.
                ],
            ])
            .unwrap();
        assert_eq!(range, 5..7);
        assert_eq!(t.num_rows(), 7);
        assert_eq!(t.value(6, 3), Value::Float(2.0));

        // A bad row *anywhere* in the batch must leave the table
        // untouched — even when earlier rows were valid.
        let err = t.append_rows(&[
            vec![
                Value::str("ok.com"),
                Value::str("NY"),
                Value::str("Safari"),
                Value::Float(3.0),
            ],
            vec![Value::str("short.com")],
        ]);
        assert!(err.is_err());
        assert_eq!(t.num_rows(), 7, "failed batch must not append");
        let type_err = t.append_rows(&[vec![
            Value::Float(1.0),
            Value::str("NY"),
            Value::str("Safari"),
            Value::Float(3.0),
        ]]);
        assert!(type_err.is_err());
        assert_eq!(t.num_rows(), 7);
    }

    #[test]
    fn from_columns_validates_shape() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let ok = Table::from_columns("t", schema.clone(), vec![Column::from_ints(vec![1, 2])]);
        assert_eq!(ok.unwrap().num_rows(), 2);
        let wrong_type =
            Table::from_columns("t", schema.clone(), vec![Column::from_floats(vec![1.0])]);
        assert!(wrong_type.is_err());
        let wrong_arity = Table::from_columns("t", schema, vec![]);
        assert!(wrong_arity.is_err());
    }

    #[test]
    fn group_frequencies_match_paper_example() {
        let t = sessions();
        let browser = t.resolve_columns(&["browser"]).unwrap();
        let freqs = t.group_frequencies(&browser);
        assert_eq!(freqs[&vec![Value::str("Firefox")]], 3);
        assert_eq!(freqs[&vec![Value::str("Safari")]], 1);
        assert_eq!(freqs[&vec![Value::str("IE")]], 1);
    }

    #[test]
    fn logical_scale_accounting() {
        let mut t = sessions();
        assert_eq!(t.logical_rows(), 5.0);
        t.set_logical_scale(1000.0, 3100);
        assert_eq!(t.logical_rows(), 5000.0);
        assert_eq!(t.logical_bytes(), 5000.0 * 3100.0);
    }

    #[test]
    fn table_ref_full_and_subset() {
        let t = sessions();
        let full = TableRef::full(&t);
        assert_eq!(full.len(), 5);
        assert_eq!(full.physical_row(3), 3);

        let rows = [4u32, 0u32];
        let sub = TableRef::subset(&t, &rows);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.physical_row(0), 4);
        let collected: Vec<usize> = sub.iter_physical().collect();
        assert_eq!(collected, vec![4, 0]);
    }

    #[test]
    fn table_ref_bytes_scale_with_subset() {
        let mut t = sessions();
        t.set_logical_scale(10.0, 100);
        let rows = [0u32];
        let sub = TableRef::subset(&t, &rows);
        assert_eq!(sub.logical_bytes(), 10.0 * 100.0);
        assert_eq!(TableRef::full(&t).logical_bytes(), 5.0 * 10.0 * 100.0);
    }

    #[test]
    fn row_set_chunks_cover_every_row_in_order() {
        let t = sessions();
        // Full view: one Range chunk per window.
        let full = TableRef::full(&t).row_set();
        let rows: Vec<usize> = full
            .chunks(2)
            .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
            .collect();
        assert_eq!(rows, vec![0, 1, 2, 3, 4]);
        assert_eq!(full.iter().collect::<Vec<_>>(), rows);

        // Subset view: Rows chunks preserve slice order.
        let ids = [4u32, 0, 3];
        let sub = TableRef::subset(&t, &ids).row_set();
        let rows: Vec<usize> = sub
            .chunks(2)
            .flat_map(|c| (0..c.len()).map(move |i| c.row(i)))
            .collect();
        assert_eq!(rows, vec![4, 0, 3]);
        assert_eq!(sub.len(), 3);

        // Empty set yields no chunks.
        let empty = RowSet::Rows(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.chunks(8).count(), 0);
    }

    #[test]
    fn gather_preserves_scale() {
        let mut t = sessions();
        t.set_logical_scale(7.0, 50);
        let g = t.gather(&[1, 2]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.logical_rows_per_row(), 7.0);
        assert_eq!(g.row_bytes(), 50);
        assert_eq!(g.value(0, 0), Value::str("yahoo.com"));
    }
}
