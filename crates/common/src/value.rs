//! Dynamically typed scalar values.
//!
//! BlinkDB query results, predicate literals, and group-by keys are all
//! expressed as [`Value`]s. Columns store data natively (see
//! [`crate::column`]); `Value` is the boxed form used at API boundaries.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a column or scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean flag.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string (dictionary encoded in columns).
    Str,
}

impl DataType {
    /// Returns `true` if the type is numeric (`Int` or `Float`).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// Whether a column of this type can store `value` (the same
    /// coercions [`crate::column::Column::push`] applies: NULL fits
    /// anywhere, `Int` widens into `Float`).
    pub fn accepts(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (DataType::Bool, Value::Bool(_))
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_))
                | (DataType::Float, Value::Int(_))
                | (DataType::Str, Value::Str(_))
        )
    }

    /// The width in bytes a value of this type occupies in the simulated
    /// on-disk representation (strings are accounted as a fixed 16-byte
    /// dictionary reference plus amortized dictionary cost).
    pub fn sim_width_bytes(self) -> u64 {
        match self {
            DataType::Bool => 1,
            DataType::Int => 8,
            DataType::Float => 8,
            DataType::Str => 16,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar.
///
/// # Examples
///
/// ```
/// use blinkdb_common::value::{DataType, Value};
///
/// let v = Value::Int(42);
/// assert_eq!(v.data_type(), Some(DataType::Int));
/// assert_eq!(v.as_f64(), Some(42.0));
/// ```
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Shared string.
    Str(Arc<str>),
}

impl Value {
    /// Builds a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The value's type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value: ints widen to floats, everything else is
    /// `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view of the value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL comparison between two values.
    ///
    /// NULL is incomparable (`None`); numeric types compare cross-type;
    /// floats use IEEE total ordering so NaN sorts deterministically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                Some(x.total_cmp(&y))
            }
        }
    }

    /// SQL equality (NULL is never equal to anything, including NULL).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }
}

/// Structural equality used for group keys and tests: NULL == NULL here,
/// unlike [`Value::sql_eq`]. Floats compare by bit-exact total order.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                3u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// `DataType::accepts` must agree with `Column::push` for every
    /// (type, value) pair — `accepts` is the batch-append pre-check, and
    /// a divergence would make `Table::append_rows` reject (or pass)
    /// rows that `push_row` treats the other way.
    #[test]
    fn accepts_matches_column_push_exactly() {
        use crate::column::Column;
        let types = [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
        ];
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Int(7),
            Value::Float(1.5),
            Value::str("x"),
        ];
        for &dtype in &types {
            for v in &values {
                let pushed = Column::empty(dtype).push(v).is_ok();
                assert_eq!(
                    dtype.accepts(v),
                    pushed,
                    "accepts/push disagree for {dtype} <- {v}"
                );
            }
        }
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_is_incomparable_in_sql_but_groupable() {
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
        // Structural equality (group keys) treats NULL as a single group.
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn strings_compare_lexicographically() {
        assert_eq!(
            Value::str("apple").sql_cmp(&Value::str("banana")),
            Some(Ordering::Less)
        );
        assert!(Value::str("x").sql_eq(&Value::str("x")));
    }

    #[test]
    fn incompatible_types_do_not_compare() {
        assert_eq!(Value::str("1").sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn value_usable_as_hash_key() {
        let mut m: HashMap<Value, u32> = HashMap::new();
        m.insert(Value::Int(1), 10);
        m.insert(Value::str("NY"), 20);
        m.insert(Value::Float(2.5), 30);
        assert_eq!(m[&Value::Int(1)], 10);
        assert_eq!(m[&Value::str("NY")], 20);
        assert_eq!(m[&Value::Float(2.5)], 30);
    }

    #[test]
    fn nan_is_deterministic_as_key() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn sim_width_covers_all_types() {
        assert_eq!(DataType::Int.sim_width_bytes(), 8);
        assert_eq!(DataType::Bool.sim_width_bytes(), 1);
        assert!(DataType::Str.sim_width_bytes() >= 8);
    }
}
