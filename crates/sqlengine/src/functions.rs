//! Scalar (non-aggregate) SQL functions.

use std::borrow::Borrow;

use crate::error::{Error, Result};
use crate::types::DataType;
use crate::value::{format_real, Value};

/// Evaluate a scalar function over already-evaluated arguments, owned or
/// borrowed.
pub fn eval_scalar<V: Borrow<Value>>(name: &str, args: &[V]) -> Result<Value> {
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(Error::Type(format!("{name} expects {n} argument(s), got {}", args.len())))
        }
    };
    match name {
        // Fault-injection hook: panics on evaluation. Exists so tests and
        // the stress binary can exercise the panic-isolation boundaries
        // (`governor::catch_panics`) with a real unwind from deep inside
        // query execution. Never generated by the model; the double
        // underscore keeps it out of any realistic SQL namespace.
        "__FAULT_PANIC" => {
            panic!("__FAULT_PANIC() evaluated: injected fault for isolation tests");
        }
        "LENGTH" => {
            arity(1)?;
            Ok(match args[0].borrow() {
                Value::Null => Value::Null,
                Value::Text(t) => Value::Integer(t.chars().count() as i64),
                other => Value::Integer(other.render().chars().count() as i64),
            })
        }
        "UPPER" => {
            arity(1)?;
            Ok(text_map(args[0].borrow(), |t| t.to_uppercase()))
        }
        "LOWER" => {
            arity(1)?;
            Ok(text_map(args[0].borrow(), |t| t.to_lowercase()))
        }
        "TRIM" => {
            arity(1)?;
            Ok(text_map(args[0].borrow(), |t| t.trim().to_string()))
        }
        "LTRIM" => {
            arity(1)?;
            Ok(text_map(args[0].borrow(), |t| t.trim_start().to_string()))
        }
        "RTRIM" => {
            arity(1)?;
            Ok(text_map(args[0].borrow(), |t| t.trim_end().to_string()))
        }
        "ABS" => {
            arity(1)?;
            Ok(match args[0].borrow() {
                Value::Null => Value::Null,
                Value::Integer(i) => Value::Integer(i.wrapping_abs()),
                Value::Real(r) => Value::Real(r.abs()),
                Value::Text(t) => Value::Real(t.trim().parse::<f64>().unwrap_or(0.0).abs()),
            })
        }
        "ROUND" => {
            if args.is_empty() || args.len() > 2 {
                return Err(Error::Type("ROUND expects 1 or 2 arguments".into()));
            }
            let digits = if args.len() == 2 {
                match args[1].borrow() {
                    Value::Null => return Ok(Value::Null),
                    v => v.as_f64().unwrap_or(0.0) as i32,
                }
            } else {
                0
            };
            Ok(match args[0].borrow() {
                Value::Null => Value::Null,
                v => {
                    let x = v.as_f64().unwrap_or(0.0);
                    let m = 10f64.powi(digits);
                    Value::Real((x * m).round() / m)
                }
            })
        }
        "SUBSTR" | "SUBSTRING" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(Error::Type("SUBSTR expects 2 or 3 arguments".into()));
            }
            let Value::Text(ref s) = (match args[0].borrow() {
                Value::Null => return Ok(Value::Null),
                Value::Text(t) => Value::Text(t.clone()),
                other => Value::Text(other.render()),
            }) else {
                unreachable!()
            };
            let chars: Vec<char> = s.chars().collect();
            let start = match args[1].borrow() {
                Value::Null => return Ok(Value::Null),
                v => v.as_f64().unwrap_or(1.0) as i64,
            };
            let len = if args.len() == 3 {
                match args[2].borrow() {
                    Value::Null => return Ok(Value::Null),
                    v => Some(v.as_f64().unwrap_or(0.0) as i64),
                }
            } else {
                None
            };
            // SQLite 1-based indexing; negative start counts from the end.
            let begin = if start > 0 {
                (start - 1) as usize
            } else if start == 0 {
                0
            } else {
                chars.len().saturating_sub((-start) as usize)
            };
            let take = match len {
                Some(l) if l < 0 => 0usize,
                Some(l) => l as usize,
                None => chars.len(),
            };
            let out: String = chars.iter().skip(begin.min(chars.len())).take(take).collect();
            Ok(Value::Text(out))
        }
        "REPLACE" => {
            arity(3)?;
            match (args[0].borrow(), args[1].borrow(), args[2].borrow()) {
                (Value::Null, _, _) | (_, Value::Null, _) | (_, _, Value::Null) => Ok(Value::Null),
                (s, from, to) => {
                    let (s, from, to) = (s.render(), from.render(), to.render());
                    if from.is_empty() {
                        Ok(Value::Text(s))
                    } else {
                        Ok(Value::Text(s.replace(&from, &to)))
                    }
                }
            }
        }
        "INSTR" => {
            arity(2)?;
            match (args[0].borrow(), args[1].borrow()) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (hay, needle) => {
                    let (h, n) = (hay.render(), needle.render());
                    Ok(Value::Integer(match h.find(&n) {
                        Some(byte_pos) => (h[..byte_pos].chars().count() + 1) as i64,
                        None => 0,
                    }))
                }
            }
        }
        "COALESCE" | "IFNULL" => {
            if args.is_empty() {
                return Err(Error::Type(format!("{name} expects at least one argument")));
            }
            Ok(args.iter().map(Borrow::borrow).find(|v| !v.is_null()).cloned().unwrap_or(Value::Null))
        }
        "NULLIF" => {
            arity(2)?;
            if args[0].borrow().sql_eq(args[1].borrow()) == Some(true) {
                Ok(Value::Null)
            } else {
                Ok(args[0].borrow().clone())
            }
        }
        "IIF" => {
            arity(3)?;
            match args[0].borrow().truthiness() {
                Some(true) => Ok(args[1].borrow().clone()),
                _ => Ok(args[2].borrow().clone()),
            }
        }
        // Scalar MIN/MAX over two or more arguments (SQLite semantics:
        // NULL if any argument is NULL).
        "MIN" | "MAX" => {
            if args.len() < 2 {
                return Err(Error::Type(format!("scalar {name} needs at least 2 arguments")));
            }
            if args.iter().any(|v| v.borrow().is_null()) {
                return Ok(Value::Null);
            }
            let mut best = args[0].borrow().clone();
            for v in args[1..].iter().map(Borrow::borrow) {
                let replace = if name == "MIN" { v < &best } else { v > &best };
                if replace {
                    best = v.clone();
                }
            }
            Ok(best)
        }
        "TYPEOF" => {
            arity(1)?;
            Ok(Value::Text(
                match args[0].borrow().data_type() {
                    None => "null",
                    Some(DataType::Integer) => "integer",
                    Some(DataType::Real) => "real",
                    Some(DataType::Text) => "text",
                }
                .to_string(),
            ))
        }
        other => Err(Error::Unsupported(format!("scalar function {other}"))),
    }
}

fn text_map(v: &Value, f: impl Fn(&str) -> String) -> Value {
    match v {
        Value::Null => Value::Null,
        Value::Text(t) => Value::Text(f(t)),
        other => Value::Text(f(&other.render())),
    }
}

/// SQL LIKE pattern matching: `%` any run, `_` any single character.
/// Case-insensitive for ASCII, as in SQLite's default collation.
pub fn like_match(text: &str, pattern: &str) -> bool {
    if text.is_ascii() && pattern.is_ascii() {
        wildcard(text.as_bytes(), pattern.as_bytes(), b'%', b'_', u8::to_ascii_lowercase)
    } else {
        let chars = |s: &str| s.chars().collect::<Vec<char>>();
        wildcard(&chars(text), &chars(pattern), '%', '_', char::to_ascii_lowercase)
    }
}

/// Classic two-pointer wildcard match with backtracking on `any`, comparing
/// units after `fold`.
fn wildcard<T: Copy + PartialEq>(t: &[T], p: &[T], any: T, one: T, fold: fn(&T) -> T) -> bool {
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == one || fold(&p[pi]) == fold(&t[ti])) {
            ti += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == any {
            star_p = pi;
            star_t = ti;
            pi += 1;
        } else if star_p != usize::MAX {
            star_t += 1;
            ti = star_t;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == any {
        pi += 1;
    }
    pi == p.len()
}

/// Render a value as text for string functions (exposed to the executor's
/// `||` operator).
pub fn concat_text(a: &Value, b: &Value) -> Value {
    if a.is_null() || b.is_null() {
        return Value::Null;
    }
    let mut s = match a {
        Value::Real(r) => format_real(*r),
        other => other.render(),
    };
    s.push_str(&match b {
        Value::Real(r) => format_real(*r),
        other => other.render(),
    });
    Value::Text(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Value {
        Value::Text(s.into())
    }

    #[test]
    fn string_functions() {
        assert_eq!(eval_scalar("LENGTH", &[t("héllo")]).unwrap(), Value::Integer(5));
        assert_eq!(eval_scalar("UPPER", &[t("abc")]).unwrap(), t("ABC"));
        assert_eq!(eval_scalar("TRIM", &[t("  x ")]).unwrap(), t("x"));
        assert_eq!(
            eval_scalar("REPLACE", &[t("a-b-c"), t("-"), t("+")]).unwrap(),
            t("a+b+c")
        );
        assert_eq!(eval_scalar("INSTR", &[t("hello"), t("ll")]).unwrap(), Value::Integer(3));
        assert_eq!(eval_scalar("INSTR", &[t("hello"), t("zz")]).unwrap(), Value::Integer(0));
    }

    #[test]
    fn substr_matches_sqlite() {
        assert_eq!(eval_scalar("SUBSTR", &[t("2009-03-04"), Value::Integer(1), Value::Integer(4)]).unwrap(), t("2009"));
        assert_eq!(eval_scalar("SUBSTR", &[t("hello"), Value::Integer(2)]).unwrap(), t("ello"));
        assert_eq!(eval_scalar("SUBSTR", &[t("hello"), Value::Integer(-3), Value::Integer(2)]).unwrap(), t("ll"));
        assert_eq!(eval_scalar("SUBSTR", &[Value::Null, Value::Integer(1)]).unwrap(), Value::Null);
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(eval_scalar("ABS", &[Value::Integer(-4)]).unwrap(), Value::Integer(4));
        assert_eq!(eval_scalar("ROUND", &[Value::Real(2.567), Value::Integer(2)]).unwrap(), Value::Real(2.57));
        assert_eq!(eval_scalar("ROUND", &[Value::Real(2.5)]).unwrap(), Value::Real(3.0));
    }

    #[test]
    fn null_handling_functions() {
        assert_eq!(
            eval_scalar("COALESCE", &[Value::Null, Value::Null, Value::Integer(7)]).unwrap(),
            Value::Integer(7)
        );
        assert_eq!(eval_scalar("NULLIF", &[Value::Integer(1), Value::Integer(1)]).unwrap(), Value::Null);
        assert_eq!(eval_scalar("NULLIF", &[Value::Integer(1), Value::Integer(2)]).unwrap(), Value::Integer(1));
        assert_eq!(eval_scalar("IIF", &[Value::Integer(0), t("y"), t("n")]).unwrap(), t("n"));
    }

    #[test]
    fn scalar_min_max() {
        assert_eq!(eval_scalar("MIN", &[Value::Integer(3), Value::Integer(1), Value::Integer(2)]).unwrap(), Value::Integer(1));
        assert_eq!(eval_scalar("MAX", &[Value::Integer(3), Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn unknown_function_is_unsupported() {
        assert!(matches!(
            eval_scalar::<Value>("FROBNICATE", &[]),
            Err(crate::error::Error::Unsupported(_))
        ));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello world", "hello%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("HELLO", "hello")); // case-insensitive
        assert!(like_match("abc", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("banana", "%an%"));
        assert!(!like_match("banana", "%anx%"));
        assert!(like_match("a%b", "a%b")); // literal traversal via wildcard
        assert!(like_match("smith", "%smith"));
    }

    #[test]
    fn concat_semantics() {
        assert_eq!(concat_text(&t("a"), &Value::Integer(1)), t("a1"));
        assert!(concat_text(&t("a"), &Value::Null).is_null());
        assert_eq!(concat_text(&Value::Real(2.0), &t("x")), t("2.0x"));
    }
}
