//! Dynamically typed cell values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::datatype::DataType;

/// A single dynamically typed cell of a [`Batch`](crate::batch::Batch).
///
/// `Value` is the lingua franca of row-wise operations: row
/// materialization, sort keys and general join keys all operate on it.
/// Columnar storage keeps data in typed vectors ([`Column`](crate::column::Column));
/// `Value` is only materialized at row boundaries.
///
/// String and byte payloads are reference counted so cloning a `Value` is
/// cheap regardless of payload size.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// Missing value (SQL NULL).
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string (shared).
    Str(Arc<str>),
    /// Raw byte payload (shared), e.g. a CAN frame payload.
    Bytes(Arc<[u8]>),
}

impl Value {
    /// Returns the [`DataType`] of this value, or `None` for [`Value::Null`].
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bytes(_) => Some(DataType::Bytes),
        }
    }

    /// `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts a bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts an integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extracts a float; integers are widened to `f64`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extracts a string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total ordering across all values.
    ///
    /// Nulls sort first, then booleans, integers/floats (compared
    /// numerically against each other), strings and byte payloads. Floats
    /// use [`f64::total_cmp`], so `NaN` has a stable position. This is the
    /// ordering used by [`DataFrame::sort_by`](crate::frame::DataFrame::sort_by),
    /// which keeps parallel runs deterministic.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
                Bytes(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Int(a), Float(b)) | (Float(b), Int(a)) => (*a as f64).to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Bytes(a), Bytes(b)) => a == b,
            _ => false,
        }
    }
}

// Float equality above is bitwise (NaN == NaN, -0.0 != 0.0), which makes the
// relation reflexive and therefore a valid `Eq` for use as join keys.
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
                // Int and Float hash through the same f64-bits path so that
                // Int(2) == Float(2.0) implies equal hashes.
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bytes(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => {
                for byte in b.iter() {
                    write!(f, "{byte:02x}")?;
                }
                Ok(())
            }
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}
impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Value::Bytes(Arc::from(v))
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(Arc::from(v.as_slice()))
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from(1.5).as_float(), Some(1.5));
        assert_eq!(Value::from("abc").as_str(), Some("abc"));
        assert_eq!(
            Value::from(vec![1u8, 2]),
            Value::Bytes(Arc::from(&[1u8, 2][..]))
        );
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert!(Value::from(None::<i64>).is_null());
    }

    #[test]
    fn int_widens_to_float() {
        assert_eq!(Value::Int(4).as_float(), Some(4.0));
        assert_eq!(Value::Int(4), Value::Float(4.0));
    }

    #[test]
    fn nan_is_stable_for_keys() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn int_float_hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        Value::Int(7).hash(&mut h1);
        Value::Float(7.0).hash(&mut h2);
        assert_eq!(Value::Int(7), Value::Float(7.0));
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn total_ordering_ranks_types() {
        let mut vals = [
            Value::from("z"),
            Value::Null,
            Value::from(1i64),
            Value::from(false),
            Value::from(0.5),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(false));
        assert_eq!(vals[2], Value::Float(0.5));
        assert_eq!(vals[3], Value::Int(1));
        assert_eq!(vals[4], Value::from("z"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::from(vec![0xABu8, 0x01]).to_string(), "ab01");
    }
}
