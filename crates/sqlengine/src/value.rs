//! Runtime values and their SQL comparison / arithmetic semantics.
//!
//! The engine follows SQLite's storage-class model restricted to the types
//! the CodeS benchmarks need: `NULL`, 64-bit integers, 64-bit floats and
//! UTF-8 text. Comparison uses a total cross-type order (NULL < numbers <
//! text) so sorting and grouping are always well-defined, while SQL
//! three-valued logic for predicates is handled at the expression layer.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::types::DataType;

/// A single cell value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Integer(i64),
    /// 64-bit float.
    Real(f64),
    /// UTF-8 text.
    Text(String),
}

/// A row is simply a vector of values.
pub type Row = Vec<Value>;

impl Value {
    /// Storage class of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Integer(_) => Some(DataType::Integer),
            Value::Real(_) => Some(DataType::Real),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic and numeric comparison.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// SQL truthiness: numbers are true when non-zero, text when it parses
    /// to a non-zero number, NULL is "unknown" (`None`).
    pub fn truthiness(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Integer(i) => Some(*i != 0),
            Value::Real(r) => Some(*r != 0.0),
            Value::Text(t) => Some(t.trim().parse::<f64>().map(|v| v != 0.0).unwrap_or(false)),
        }
    }

    /// Three-valued equality: `None` when either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// Three-valued comparison: `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Total cross-type order: NULL < numeric < text. Integers and reals
    /// compare numerically; NaN sorts below all other reals.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Integer(_) | Value::Real(_) => 1,
                Value::Text(_) => 2,
            }
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => {}
            ord => return ord,
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) => {
                // Both sides are numeric here (rank 1), so as_f64 is total.
                let (x, y) = (a.as_f64().unwrap_or(0.0), b.as_f64().unwrap_or(0.0));
                x.total_cmp(&y)
            }
        }
    }

    /// Approximate in-memory footprint, used by the execution governor's
    /// memory budget. A coarse model is fine: enum discriminant + payload,
    /// with text charged for its heap buffer.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Value::Text(t) => 32 + t.len() as u64,
            _ => 16,
        }
    }

    /// CAST semantics, mirroring SQLite's lossy conversions.
    pub fn cast(&self, to: DataType) -> Value {
        match (self, to) {
            (Value::Null, _) => Value::Null,
            (Value::Integer(i), DataType::Integer) => Value::Integer(*i),
            (Value::Integer(i), DataType::Real) => Value::Real(*i as f64),
            (Value::Integer(i), DataType::Text) => Value::Text(i.to_string()),
            (Value::Real(r), DataType::Integer) => Value::Integer(*r as i64),
            (Value::Real(r), DataType::Real) => Value::Real(*r),
            (Value::Real(r), DataType::Text) => Value::Text(format_real(*r)),
            (Value::Text(t), DataType::Integer) => {
                Value::Integer(parse_numeric_prefix(t) as i64)
            }
            (Value::Text(t), DataType::Real) => Value::Real(parse_numeric_prefix(t)),
            (Value::Text(t), DataType::Text) => Value::Text(t.clone()),
        }
    }

    /// Render the value the way result sets and prompts display it.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Integer(i) => i.to_string(),
            Value::Real(r) => format_real(*r),
            Value::Text(t) => t.clone(),
        }
    }

    /// Render as a SQL literal (text quoted and escaped).
    pub fn to_literal(&self) -> String {
        match self {
            Value::Text(t) => format!("'{}'", t.replace('\'', "''")),
            other => other.render(),
        }
    }

    fn arith(&self, other: &Value, op: fn(f64, f64) -> f64, iop: fn(i64, i64) -> Option<i64>) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Integer(a), Value::Integer(b)) => match iop(*a, *b) {
                Some(v) => Ok(Value::Integer(v)),
                None => Ok(Value::Real(op(*a as f64, *b as f64))),
            },
            (a, b) => {
                let (x, y) = (coerce_num(a)?, coerce_num(b)?);
                Ok(Value::Real(op(x, y)))
            }
        }
    }

    /// SQL `+` (NULL-propagating; integer overflow promotes to real).
    pub fn add(&self, other: &Value) -> Result<Value> {
        self.arith(other, |a, b| a + b, i64::checked_add)
    }

    /// SQL `-` (NULL-propagating).
    pub fn sub(&self, other: &Value) -> Result<Value> {
        self.arith(other, |a, b| a - b, i64::checked_sub)
    }

    /// SQL `*` (NULL-propagating).
    pub fn mul(&self, other: &Value) -> Result<Value> {
        self.arith(other, |a, b| a * b, i64::checked_mul)
    }

    /// SQL division: NULL on division by zero (SQLite behaviour), real
    /// division whenever either operand is real.
    pub fn div(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (_, Value::Integer(0)) => Ok(Value::Null),
            (Value::Integer(a), Value::Integer(b)) => Ok(Value::Integer(a / b)),
            (a, b) => {
                let y = coerce_num(b)?;
                if y == 0.0 {
                    return Ok(Value::Null);
                }
                Ok(Value::Real(coerce_num(a)? / y))
            }
        }
    }

    /// SQL `%` (NULL on modulo-by-zero, like SQLite).
    pub fn rem(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (_, Value::Integer(0)) => Ok(Value::Null),
            (Value::Integer(a), Value::Integer(b)) => Ok(Value::Integer(a % b)),
            (a, b) => {
                let y = coerce_num(b)?;
                if y == 0.0 {
                    return Ok(Value::Null);
                }
                Ok(Value::Real(coerce_num(a)? % y))
            }
        }
    }

    /// Arithmetic negation (type error on text).
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Integer(i) => Ok(Value::Integer(-i)),
            Value::Real(r) => Ok(Value::Real(-r)),
            Value::Text(t) => Err(Error::Type(format!("cannot negate text value '{t}'"))),
        }
    }
}

fn coerce_num(v: &Value) -> Result<f64> {
    match v {
        Value::Integer(i) => Ok(*i as f64),
        Value::Real(r) => Ok(*r),
        Value::Text(t) => Ok(parse_numeric_prefix(t)),
        Value::Null => Err(Error::Type("NULL in arithmetic".into())),
    }
}

/// SQLite-style: parse the longest numeric prefix, defaulting to 0.
fn parse_numeric_prefix(s: &str) -> f64 {
    let t = s.trim_start();
    let mut end = 0usize;
    let bytes = t.as_bytes();
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    while end < bytes.len() {
        let c = bytes[end] as char;
        let ok = match c {
            '0'..='9' => {
                seen_digit = true;
                true
            }
            '+' | '-' => end == 0 || matches!(bytes[end - 1] as char, 'e' | 'E'),
            '.' if !seen_dot && !seen_exp => {
                seen_dot = true;
                true
            }
            'e' | 'E' if seen_digit && !seen_exp => {
                seen_exp = true;
                true
            }
            _ => false,
        };
        if !ok {
            break;
        }
        end += 1;
    }
    if !seen_digit {
        return 0.0;
    }
    t[..end].parse::<f64>().unwrap_or(0.0)
}

/// Format a real so that whole numbers keep a trailing `.0` (SQLite style).
pub fn format_real(r: f64) -> String {
    if r.is_nan() {
        return "NaN".to_string();
    }
    if r.is_infinite() {
        return if r > 0.0 { "Inf" } else { "-Inf" }.to_string();
    }
    if r == r.trunc() && r.abs() < 1e15 {
        format!("{:.1}", r)
    } else {
        let s = format!("{r}");
        s
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
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
            // Integers and equal-valued reals must hash alike because they
            // compare equal (1 == 1.0).
            Value::Integer(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Real(r) => {
                1u8.hash(state);
                // Normalize -0.0 to 0.0 so they hash alike.
                let r = if *r == 0.0 { 0.0 } else { *r };
                r.to_bits().hash(state);
            }
            Value::Text(t) => {
                2u8.hash(state);
                t.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn cross_type_total_order() {
        let null = Value::Null;
        let one = Value::Integer(1);
        let real = Value::Real(3.25);
        let txt = Value::Text("a".into());
        assert!(null < one);
        assert!(one < real);
        assert!(real < txt);
    }

    #[test]
    fn integer_real_compare_numerically_and_hash_alike() {
        assert_eq!(Value::Integer(2), Value::Real(2.0));
        assert_eq!(h(&Value::Integer(2)), h(&Value::Real(2.0)));
        assert!(Value::Integer(2) < Value::Real(2.5));
    }

    #[test]
    fn sql_comparisons_are_null_aware() {
        assert_eq!(Value::Null.sql_eq(&Value::Integer(1)), None);
        assert_eq!(Value::Integer(1).sql_eq(&Value::Integer(1)), Some(true));
        assert_eq!(Value::Integer(1).sql_cmp(&Value::Integer(2)), Some(Ordering::Less));
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn arithmetic_follows_sql_semantics() {
        assert_eq!(Value::Integer(2).add(&Value::Integer(3)).unwrap(), Value::Integer(5));
        assert_eq!(Value::Integer(2).add(&Value::Real(0.5)).unwrap(), Value::Real(2.5));
        assert!(Value::Integer(1).add(&Value::Null).unwrap().is_null());
        // Division by zero yields NULL, not an error.
        assert!(Value::Integer(1).div(&Value::Integer(0)).unwrap().is_null());
        assert_eq!(Value::Integer(7).div(&Value::Integer(2)).unwrap(), Value::Integer(3));
        assert_eq!(Value::Real(7.0).div(&Value::Integer(2)).unwrap(), Value::Real(3.5));
    }

    #[test]
    fn overflow_promotes_to_real() {
        let v = Value::Integer(i64::MAX).add(&Value::Integer(1)).unwrap();
        assert!(matches!(v, Value::Real(_)));
    }

    #[test]
    fn cast_text_to_numbers_uses_numeric_prefix() {
        assert_eq!(Value::Text("12abc".into()).cast(DataType::Integer), Value::Integer(12));
        assert_eq!(Value::Text("3.5x".into()).cast(DataType::Real), Value::Real(3.5));
        assert_eq!(Value::Text("abc".into()).cast(DataType::Integer), Value::Integer(0));
        assert_eq!(Value::Real(2.7).cast(DataType::Integer), Value::Integer(2));
    }

    #[test]
    fn render_and_literal() {
        assert_eq!(Value::Real(2.0).render(), "2.0");
        assert_eq!(Value::Text("O'Brien".into()).to_literal(), "'O''Brien'");
        assert_eq!(Value::Null.render(), "NULL");
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Integer(0).truthiness(), Some(false));
        assert_eq!(Value::Integer(3).truthiness(), Some(true));
        assert_eq!(Value::Null.truthiness(), None);
        assert_eq!(Value::Text("1".into()).truthiness(), Some(true));
        assert_eq!(Value::Text("x".into()).truthiness(), Some(false));
    }

    #[test]
    fn numeric_prefix_parser_handles_exponents() {
        assert_eq!(parse_numeric_prefix("1e3"), 1000.0);
        assert_eq!(parse_numeric_prefix("-2.5e-1x"), -0.25);
        assert_eq!(parse_numeric_prefix(""), 0.0);
        assert_eq!(parse_numeric_prefix(".5"), 0.5);
    }
}
