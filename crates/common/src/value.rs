//! SQL values and rows.
//!
//! `Value` provides two comparison regimes:
//!
//! * [`Value::sql_cmp`] / [`Value::sql_eq`] — SQL semantics where any
//!   comparison involving `NULL` yields `None` (UNKNOWN), and numeric
//!   types compare across `Int`/`Double`.
//! * The [`Ord`] implementation — a *total* order used for sorting and as
//!   B-tree index keys, with `NULL` ordered last (Oracle's default for
//!   ascending sorts).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Error, Result};

/// Data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Double,
    Str,
    Bool,
    /// Days since an arbitrary epoch; keeps date arithmetic trivial.
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Double => write!(f, "DOUBLE"),
            DataType::Str => write!(f, "VARCHAR"),
            DataType::Bool => write!(f, "BOOLEAN"),
            DataType::Date => write!(f, "DATE"),
        }
    }
}

impl DataType {
    /// Parses a type name as it appears in DDL.
    pub fn parse(name: &str) -> Result<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "NUMBER" | "SMALLINT" => Ok(DataType::Int),
            "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" => Ok(DataType::Double),
            "VARCHAR" | "VARCHAR2" | "CHAR" | "TEXT" | "STRING" => Ok(DataType::Str),
            "BOOLEAN" | "BOOL" => Ok(DataType::Bool),
            "DATE" => Ok(DataType::Date),
            other => Err(Error::parse(format!("unknown data type {other}"))),
        }
    }
}

/// A single SQL value.
#[derive(Debug)]
pub enum Value {
    Null,
    Int(i64),
    Double(f64),
    Str(Arc<str>),
    Bool(bool),
    Date(i32),
}

/// Tests for `Int`, the common case of row, key and column copies, before
/// the match over the other variants (a derived `clone` is one jump table
/// on the tag). The batch engine's column copies, Volcano's rows,
/// hash-join and DISTINCT keys and bind vectors all copy through here.
impl Clone for Value {
    #[inline]
    fn clone(&self) -> Value {
        if let Value::Int(i) = self {
            return Value::Int(*i);
        }
        match self {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(*i),
            Value::Double(d) => Value::Double(*d),
            Value::Str(s) => Value::Str(Arc::clone(s)),
            Value::Bool(b) => Value::Bool(*b),
            Value::Date(d) => Value::Date(*d),
        }
    }
}

/// Alias emphasising "a value inside a row" in executor code.
pub type Datum = Value;

/// A row of values. Executor rows concatenate the columns of the joined
/// table references in order.
pub type Row = Vec<Value>;

impl Value {
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The data type of this value, `None` for `NULL`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Date(d) => Some(*d as i64),
            Value::Double(d) if d.fract() == 0.0 => Some(*d as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison: `None` when either side is `NULL` or the types are
    /// incomparable; numeric types compare across `Int`/`Double`/`Date`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// SQL equality under three-valued logic: `None` when NULL is involved.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Null-tolerant equality used by set operators (INTERSECT/MINUS) and
    /// GROUP BY / DISTINCT, where `NULL` matches `NULL`.
    pub fn null_safe_eq(&self, other: &Value) -> bool {
        match (self.is_null(), other.is_null()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => self.sql_eq(other).unwrap_or(false),
        }
    }

    /// Total-order comparison used for sorting and B-tree keys.
    /// `NULL` sorts last; cross-type falls back to a type-rank order so the
    /// order is total even on heterogeneous data.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater,
            (_, Null) => Ordering::Less,
            _ => self
                .sql_cmp(other)
                .unwrap_or_else(|| self.type_rank().cmp(&other.type_rank())),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 5,
            Value::Bool(_) => 0,
            Value::Int(_) | Value::Double(_) | Value::Date(_) => 1,
            Value::Str(_) => 2,
        }
    }

    /// Adds two numeric values with SQL NULL propagation.
    pub fn numeric_add(&self, other: &Value) -> Result<Value> {
        Value::numeric_binop(self, other, "+", |a, b| a + b, i64::checked_add)
    }

    pub fn numeric_sub(&self, other: &Value) -> Result<Value> {
        Value::numeric_binop(self, other, "-", |a, b| a - b, i64::checked_sub)
    }

    pub fn numeric_mul(&self, other: &Value) -> Result<Value> {
        Value::numeric_binop(self, other, "*", |a, b| a * b, i64::checked_mul)
    }

    pub fn numeric_div(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        let (a, b) = (
            self.as_f64()
                .ok_or_else(|| Error::execution("non-numeric operand to /"))?,
            other
                .as_f64()
                .ok_or_else(|| Error::execution("non-numeric operand to /"))?,
        );
        if b == 0.0 {
            return Err(Error::execution("division by zero"));
        }
        Ok(Value::Double(a / b))
    }

    fn numeric_binop(
        a: &Value,
        b: &Value,
        op: &str,
        f: fn(f64, f64) -> f64,
        g: fn(i64, i64) -> Option<i64>,
    ) -> Result<Value> {
        match (a, b) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(x), Value::Int(y)) => match g(*x, *y) {
                Some(v) => Ok(Value::Int(v)),
                None => Ok(Value::Double(f(*x as f64, *y as f64))),
            },
            _ => {
                let (x, y) = (
                    a.as_f64()
                        .ok_or_else(|| Error::execution(format!("non-numeric operand to {op}")))?,
                    b.as_f64()
                        .ok_or_else(|| Error::execution(format!("non-numeric operand to {op}")))?,
                );
                Ok(Value::Double(f(x, y)))
            }
        }
    }
}

impl PartialEq for Value {
    /// Structural, null-safe equality (NULL == NULL). Use [`Value::sql_eq`]
    /// for SQL comparison semantics.
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal && self.is_null() == other.is_null()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Ints and integral doubles that compare equal must hash equal.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(d) => {
                1u8.hash(state);
                // Normalize -0.0 to 0.0 so equal values hash equal.
                let d = if *d == 0.0 { 0.0 } else { *d };
                d.to_bits().hash(state);
            }
            Value::Date(d) => {
                1u8.hash(state);
                (*d as f64).to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Date(d) => write!(f, "DATE {d}"),
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
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_cross_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Double(3.0).sql_cmp(&Value::Int(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn null_safe_eq_matches_nulls() {
        assert!(Value::Null.null_safe_eq(&Value::Null));
        assert!(!Value::Null.null_safe_eq(&Value::Int(1)));
        assert!(Value::Int(1).null_safe_eq(&Value::Int(1)));
        assert!(!Value::Int(1).null_safe_eq(&Value::Int(2)));
    }

    #[test]
    fn total_order_puts_null_last() {
        let mut vals = vec![Value::Null, Value::Int(3), Value::Int(1)];
        vals.sort();
        assert_eq!(vals, vec![Value::Int(1), Value::Int(3), Value::Null]);
    }

    #[test]
    fn equal_int_double_hash_equal() {
        assert_eq!(Value::Int(7), Value::Double(7.0));
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Double(7.0)));
        // negative zero
        assert_eq!(hash_of(&Value::Double(0.0)), hash_of(&Value::Double(-0.0)));
    }

    #[test]
    fn arithmetic_null_propagates() {
        assert!(Value::Null.numeric_add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).numeric_mul(&Value::Null).unwrap().is_null());
    }

    #[test]
    fn arithmetic_int_and_mixed() {
        assert_eq!(
            Value::Int(2).numeric_add(&Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            Value::Int(2).numeric_add(&Value::Double(0.5)).unwrap(),
            Value::Double(2.5)
        );
        assert_eq!(
            Value::Int(7).numeric_div(&Value::Int(2)).unwrap(),
            Value::Double(3.5)
        );
    }

    #[test]
    fn int_overflow_widen_to_double() {
        let v = Value::Int(i64::MAX).numeric_add(&Value::Int(1)).unwrap();
        assert_eq!(v.data_type(), Some(DataType::Double));
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(Value::Int(1).numeric_div(&Value::Int(0)).is_err());
    }

    #[test]
    fn datatype_parse_aliases() {
        assert_eq!(DataType::parse("integer").unwrap(), DataType::Int);
        assert_eq!(DataType::parse("VARCHAR2").unwrap(), DataType::Str);
        assert_eq!(DataType::parse("number").unwrap(), DataType::Int);
        assert!(DataType::parse("BLOB").is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::str("a").to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
    }
}
