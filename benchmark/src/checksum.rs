//! Order-insensitive result checksums. Two row sets get the same
//! checksum iff they hold the same multiset of rows (up to hash
//! collisions), whatever order the engine produced them in.

use cbqt::common::{Row, Value};
use std::fmt::Write;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME)
    })
}

/// Canonical text of one value. Doubles keep 9 significant digits: the
/// twin databases may sum or average in a different association order.
fn render(v: &Value, out: &mut String) {
    match v {
        Value::Double(d) if d.fract() == 0.0 && d.abs() < 1e15 => {
            // an integral double equals the same-valued Int (SUM over a
            // transformed plan may change the numeric representation)
            let _ = write!(out, "{}", *d as i64);
        }
        Value::Double(d) => {
            let _ = write!(out, "{d:.8e}");
        }
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

/// Checksum of a result: the row count in the high bits' worth of
/// information plus the wrapping sum of per-row hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    pub rows: u64,
    pub sum: u64,
}

impl Checksum {
    pub fn of(rows: &[Row]) -> Checksum {
        let mut text = String::new();
        let mut sum = 0u64;
        for row in rows {
            text.clear();
            for v in row {
                render(v, &mut text);
                text.push('\u{1f}');
            }
            sum = sum.wrapping_add(fnv1a(text.as_bytes()));
        }
        Checksum {
            rows: rows.len() as u64,
            sum,
        }
    }

    /// `rows:sum` in hex, the form `expected/seed<N>.txt` stores.
    pub fn to_text(self) -> String {
        format!("{}:{:016x}", self.rows, self.sum)
    }

    pub fn parse(text: &str) -> Option<Checksum> {
        let (rows, sum) = text.split_once(':')?;
        Some(Checksum {
            rows: rows.parse().ok()?,
            sum: u64::from_str_radix(sum, 16).ok()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(a: i64, s: &str) -> Row {
        vec![Value::Int(a), Value::str(s), Value::Null]
    }

    #[test]
    fn checksum_ignores_row_order_but_not_content_or_multiplicity() {
        let a = vec![row(1, "x"), row(2, "y"), row(3, "z")];
        let b = vec![row(3, "z"), row(1, "x"), row(2, "y")];
        assert_eq!(Checksum::of(&a), Checksum::of(&b));
        let changed = vec![row(1, "x"), row(2, "y"), row(3, "w")];
        assert_ne!(Checksum::of(&a), Checksum::of(&changed));
        let doubled = vec![row(1, "x"), row(1, "x"), row(2, "y"), row(3, "z")];
        assert_ne!(Checksum::of(&a), Checksum::of(&doubled));
        // column boundaries matter: (12, "3") is not (1, "23")
        assert_ne!(
            Checksum::of(&[vec![Value::str("12"), Value::str("3")]]),
            Checksum::of(&[vec![Value::str("1"), Value::str("23")]])
        );
    }

    #[test]
    fn integral_doubles_and_ints_agree_and_text_round_trips() {
        let i = Checksum::of(&[vec![Value::Int(7)]]);
        let d = Checksum::of(&[vec![Value::Double(7.0)]]);
        assert_eq!(i, d);
        let near = Checksum::of(&[vec![Value::Double(0.1 + 0.2)]]);
        assert_eq!(near, Checksum::of(&[vec![Value::Double(0.3)]]));
        assert_eq!(Checksum::parse(&i.to_text()), Some(i));
        assert_eq!(Checksum::parse("nonsense"), None);
    }
}
