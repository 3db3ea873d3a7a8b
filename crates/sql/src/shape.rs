//! Statement shapes, and the recipes that serve a shape without a parse.
//!
//! Two statements that differ only in their literals share a plan
//! family, but finding that family the full way costs a parse, a
//! [`parameterize`](crate::parameterize) that rewrites the AST and a
//! render of the family key. [`Shape::of`] is one lexer pass over the
//! statement text that allocates nothing per token. It yields the text
//! with every number and string literal masked, and where each literal
//! sits. The first time a shape is served the full way, a [`Recipe`] is
//! derived from what that route produced: the family key, the
//! parameterized family query, and for every bind slot the literal it
//! was extracted from. A later statement of the same shape gets its key
//! and bind vector from the recipe and its own literals
//! ([`Recipe::binds`]), or is declined and takes the full route.
//!
//! A recipe serves a query or an UPDATE / DELETE ([`RecipeKind`]). For
//! a write, the family is the parameterized target query the full route
//! builds from the statement
//! ([`parameterize_dml_target`](crate::parameterize_dml_target)), and
//! the recipe also names the table written.
//!
//! Why a recipe serves exactly what the full route would:
//! - Two texts with one shape lex to the same tokens but for the text of
//!   their literals. A mask holds a NUL byte, and a text with a NUL byte
//!   has no shape, so masks cannot be forged. The parser, the target
//!   query of a write and `parameterize` decide structure from token
//!   kinds and names, not literal text, so every text of a shape puts
//!   slot `j` at the same literal.
//! - A recipe is derived only from a statement whose literal values are
//!   pairwise distinct and not zero. The literal whose value a bind
//!   holds — or whose negation, for a folded unary minus — is then
//!   unique, so the slot's source is too.
//! - A literal that is not a slot shapes the plan: a select-list
//!   constant, a `ROWNUM` bound, a `LIKE` pattern, an `ORDER BY`
//!   position, a `DATE`, a `SET` item a later one overrides. The recipe
//!   keeps its text and declines any statement that spells it
//!   differently.

use crate::ast::Query;
use crate::lexer::{literal_value, Lexer, Scanned, TokenKind};
use cbqt_common::hash::HashMap;
use cbqt_common::Value;
use std::mem::{discriminant, size_of};
use std::ops::Range;

/// What stands in a shape for a number literal.
const NUMBER_MASK: &str = "\0#";
/// What stands in a shape for a string literal.
const STRING_MASK: &str = "\0'";

/// A statement's text with its literals masked ([`Shape::of`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    text: String,
    /// Where each literal sits in the statement text, in token order.
    literals: Vec<Range<usize>>,
}

impl Shape {
    /// The shape of `src`, or `None` when `src` does not lex, holds a NUL
    /// byte or has a `?` placeholder (its caller chose the binds), or is
    /// no statement a recipe is recorded for: only a query (`SELECT …`,
    /// `(…`), an UPDATE and a DELETE get a shape. Case, whitespace and
    /// comments are kept as written: two spellings of one statement are
    /// two shapes.
    pub fn of(src: &str) -> Option<Shape> {
        if src.as_bytes().contains(&0) {
            return None;
        }
        let mut lexer = Lexer::new(src);
        let (mut scanned, mut start) = lexer.scan().ok()?;
        let recorded = match scanned {
            Scanned::Ident => ["SELECT", "UPDATE", "DELETE"]
                .iter()
                .any(|kw| src[start..lexer.position()].eq_ignore_ascii_case(kw)),
            Scanned::Punct(TokenKind::LParen) => true,
            _ => false,
        };
        if !recorded {
            return None;
        }
        let mut text = String::with_capacity(src.len());
        let mut literals = Vec::new();
        let mut copied = 0;
        loop {
            let mask = match scanned {
                Scanned::Number => Some(NUMBER_MASK),
                Scanned::StringLit => Some(STRING_MASK),
                Scanned::Punct(TokenKind::Question) => return None,
                Scanned::Punct(TokenKind::Eof) => break,
                _ => None,
            };
            if let Some(mask) = mask {
                let end = lexer.position();
                text.push_str(&src[copied..start]);
                text.push_str(mask);
                literals.push(start..end);
                copied = end;
            }
            (scanned, start) = lexer.scan().ok()?;
        }
        text.push_str(&src[copied..]);
        Some(Shape { text, literals })
    }

    /// The masked text: what recipes are keyed by.
    pub fn text(&self) -> &str {
        &self.text
    }

    pub fn into_text(self) -> String {
        self.text
    }

    /// Number of literals in the statement.
    fn literal_count(&self) -> usize {
        self.literals.len()
    }

    /// The source text of literal `i` of `src` (the text this shape was
    /// taken of).
    fn literal<'s>(&self, src: &'s str, i: usize) -> &'s str {
        &src[self.literals[i].clone()]
    }

    /// The value of literal `i` of `src`, read the way the parser reads
    /// it.
    fn value(&self, src: &str, i: usize) -> Option<Value> {
        let token = Lexer::new(self.literal(src, i)).next_token().ok()?;
        literal_value(&token.kind)
    }
}

/// Where one bind slot's value comes from in a statement of a recipe's
/// shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// The literal's ordinal, in token order.
    literal: usize,
    /// The parser folded a unary minus into the literal.
    negate: bool,
}

/// What a recipe's statement does with its family query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecipeKind {
    /// A query: the family runs and its rows are returned.
    Query,
    /// An UPDATE or DELETE of `table`: the family is its target query,
    /// and every row it finds is written back or deleted.
    Write { dml: Dml, table: Box<str> },
}

/// The statements whose target query a [`RecipeKind::Write`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dml {
    Update,
    Delete,
}

/// How to serve a statement of one shape without parsing it (see the
/// module docs).
#[derive(Debug)]
pub struct Recipe {
    kind: RecipeKind,
    key: String,
    family: Query,
    slots: Vec<Slot>,
    /// Ordinal and source text of every literal that is not a slot.
    fixed: Vec<(usize, Box<str>)>,
}

impl Recipe {
    /// The recipe of `src`'s shape, from what the full route produced
    /// for `src`, a statement of `kind`: its plan-family `key`, the
    /// parameterized `family` query and its bind values. `None` when a
    /// slot's source is ambiguous — two literals of one value, a zero
    /// literal — or a bind came from no literal (a `DATE`); the next
    /// statement of the shape tries again.
    pub fn derive(
        src: &str,
        shape: &Shape,
        kind: RecipeKind,
        key: String,
        family: Query,
        binds: &[Value],
    ) -> Option<Recipe> {
        let values = (0..shape.literal_count())
            .map(|i| shape.value(src, i))
            .collect::<Option<Vec<Value>>>()?;
        // `Value` equality is numeric across Int and Double, so this
        // also refuses `5` beside `5.0`: coarser than needed, never wrong
        let mut ordinal = HashMap::with_capacity_and_hasher(values.len(), Default::default());
        for (i, v) in values.iter().enumerate() {
            if *v == Value::Int(0) || ordinal.insert(v, i).is_some() {
                return None;
            }
        }
        let source = |b: &Value| {
            let found = |v: &Value, negate| {
                let literal = *ordinal.get(v)?;
                let value = if negate {
                    negated(&values[literal])?
                } else {
                    values[literal].clone()
                };
                same(&value, b).then_some(Slot { literal, negate })
            };
            found(b, false).or_else(|| found(&negated(b)?, true))
        };
        let slots = binds.iter().map(source).collect::<Option<Vec<Slot>>>()?;
        let fixed = (0..values.len())
            .filter(|i| slots.iter().all(|s| s.literal != *i))
            .map(|i| (i, shape.literal(src, i).into()))
            .collect();
        Some(Recipe {
            kind,
            key,
            family,
            slots,
            fixed,
        })
    }

    /// The bind vector of `src`, a statement of this recipe's shape
    /// (`shape` is its [`Shape::of`]), or `None` to decline it: a
    /// literal that is not a slot is spelled differently, or a slot's
    /// literal does not convert.
    pub fn binds(&self, src: &str, shape: &Shape) -> Option<Vec<Value>> {
        if self
            .fixed
            .iter()
            .any(|(i, text)| shape.literal(src, *i) != &**text)
        {
            return None;
        }
        self.slots
            .iter()
            .map(|s| {
                let v = shape.value(src, s.literal)?;
                if s.negate {
                    negated(&v)
                } else {
                    Some(v)
                }
            })
            .collect()
    }

    /// What a statement of the shape does with the family.
    pub fn kind(&self) -> &RecipeKind {
        &self.kind
    }

    /// The plan-family key every statement of the shape is served under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The parameterized query of the family, so a plan-cache miss
    /// compiles without a parse.
    pub fn family(&self) -> &Query {
        &self.family
    }

    /// Estimated bytes the recipe pins. The family query is not walked:
    /// it is charged a fixed number of bytes per byte of its rendered
    /// key, which grows with it.
    pub fn estimated_bytes(&self) -> usize {
        let table = match &self.kind {
            RecipeKind::Query => 0,
            RecipeKind::Write { table, .. } => table.len(),
        };
        size_of::<Recipe>()
            + table
            + self.key.len() * (1 + AST_BYTES_PER_KEY_BYTE)
            + self.slots.len() * size_of::<Slot>()
            + self
                .fixed
                .iter()
                .map(|(_, t)| size_of::<(usize, Box<str>)>() + t.len())
                .sum::<usize>()
    }
}

/// Bytes of parsed query charged per byte of its rendered key: an AST
/// node is a few boxed words, its render a few characters.
const AST_BYTES_PER_KEY_BYTE: usize = 8;

/// The value a folded unary minus makes of `v` (numbers only).
fn negated(v: &Value) -> Option<Value> {
    match v {
        Value::Int(i) => i.checked_neg().map(Value::Int),
        Value::Double(d) => Some(Value::Double(-d)),
        _ => None,
    }
}

/// Equal and of one type: `5` is not `5.0`, which reads differently.
fn same(a: &Value, b: &Value) -> bool {
    discriminant(a) == discriminant(b) && a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binds::{parameterize, parameterize_dml_target};
    use crate::parser::parse_query;
    use crate::render::render_query;

    /// What the full route makes of `sql`: key, family and binds.
    fn full(sql: &str) -> (String, Query, Vec<Value>) {
        let p = parameterize(&parse_query(sql).unwrap());
        (render_query(&p.query), p.query, p.binds)
    }

    fn recipe(sql: &str) -> Option<Recipe> {
        let (key, family, binds) = full(sql);
        Recipe::derive(
            sql,
            &Shape::of(sql)?,
            RecipeKind::Query,
            key,
            family,
            &binds,
        )
    }

    /// Serves `sql` from the recipe recorded from `recorded`, checking
    /// the result against the full route.
    fn serve(recorded: &str, sql: &str) -> Option<Vec<Value>> {
        let r = recipe(recorded).expect("a recipe");
        let shape = Shape::of(sql).unwrap();
        assert_eq!(shape.text(), Shape::of(recorded).unwrap().text());
        let binds = r.binds(sql, &shape)?;
        let (key, _, want) = full(sql);
        assert_eq!((r.key(), &binds), (key.as_str(), &want), "{sql}");
        for (a, b) in binds.iter().zip(&want) {
            assert!(same(a, b), "{a:?} vs {b:?}");
        }
        Some(binds)
    }

    #[test]
    fn shape_masks_literals_and_keeps_everything_else() {
        let s = Shape::of("SELECT a FROM t WHERE b = 12 AND c = 'x''y' -- 7\n").unwrap();
        assert_eq!(s.text(), "SELECT a FROM t WHERE b = \0# AND c = \0' -- 7\n");
        assert_eq!(s.literal_count(), 2);
        assert_eq!(
            Shape::of("SELECT a FROM t WHERE b = 99999 AND c = '' -- 7\n")
                .unwrap()
                .text(),
            s.text()
        );
        // numbers and strings mask differently; `1.5e3` and `.5` are one
        // literal each
        assert_ne!(
            Shape::of("SELECT 1").unwrap(),
            Shape::of("SELECT '1'").unwrap()
        );
        let s = Shape::of("SELECT 1.5e3, .5 FROM t").unwrap();
        assert_eq!(s.text(), "SELECT \0#, \0# FROM t");
    }

    #[test]
    fn shape_refuses_placeholders_nul_bytes_and_lex_errors() {
        assert!(Shape::of("SELECT a FROM t WHERE b = ?").is_none());
        assert!(Shape::of("SELECT a FROM t WHERE b = 1\0").is_none());
        assert!(Shape::of("SELECT 'unterminated").is_none());
        // a `?` inside a string or a comment is not a placeholder
        assert!(Shape::of("SELECT '?' FROM t /* ? */").is_some());
    }

    #[test]
    fn only_statements_that_record_recipes_get_a_shape() {
        let spell = |sql: &str| {
            let lower = sql.to_lowercase();
            let mixed: String = sql
                .chars()
                .enumerate()
                .map(|(i, c)| match i % 2 {
                    0 => c.to_ascii_lowercase(),
                    _ => c,
                })
                .collect();
            [sql.to_string(), lower, mixed, format!(" \n\t{sql}")]
        };
        for sql in [
            "INSERT INTO t VALUES (1, 'x')",
            "BEGIN",
            "COMMIT",
            "ROLLBACK",
        ] {
            for text in spell(sql) {
                assert_eq!(Shape::of(&text), None, "{text:?}");
            }
        }
        for sql in [
            "SELECT a FROM t WHERE b = 1",
            "(SELECT a FROM t) UNION ALL (SELECT b FROM u WHERE c = 2)",
            "UPDATE t SET a = 1 WHERE b = 2",
            "DELETE FROM t WHERE b = 2",
        ] {
            for text in spell(sql) {
                assert!(Shape::of(&text).is_some(), "{text:?}");
            }
        }
    }

    #[test]
    fn predicate_literals_are_slots_in_slot_order() {
        let r = recipe("SELECT a FROM t WHERE b = 12 AND c = 'x'").unwrap();
        let slot = |literal| Slot {
            literal,
            negate: false,
        };
        assert_eq!(r.slots, &[slot(0), slot(1)]);
        let binds = serve(
            "SELECT a FROM t WHERE b = 12 AND c = 'x'",
            "SELECT a FROM t WHERE b = 7 AND c = 'it''s'",
        );
        assert_eq!(binds.unwrap(), vec![Value::Int(7), Value::str("it's")]);
        // a number slot takes whatever number is written: another type
        // reads as the full route reads it
        let binds = serve(
            "SELECT a FROM t WHERE b = 12",
            "SELECT a FROM t WHERE b = 7.5",
        );
        assert_eq!(binds.unwrap(), vec![Value::Double(7.5)]);
    }

    #[test]
    fn in_lists_and_folded_minus_map_to_slots() {
        let r = recipe("SELECT a FROM t WHERE b IN (3, 4, 5) AND c > -5.5").unwrap();
        assert_eq!(r.slots.len(), 4);
        assert!(r.slots[3].negate && !r.slots[0].negate);
        let binds = serve(
            "SELECT a FROM t WHERE b IN (3, 4, 5) AND c > -5.5",
            "SELECT a FROM t WHERE b IN (9, 8, 7) AND c > -2",
        );
        assert_eq!(
            binds.unwrap(),
            vec![Value::Int(9), Value::Int(8), Value::Int(7), Value::Int(-2)]
        );
        // a doubled minus folds twice
        let binds = serve(
            "SELECT a FROM t WHERE b = - -5",
            "SELECT a FROM t WHERE b = - -6",
        );
        assert_eq!(binds.unwrap(), vec![Value::Int(6)]);
        let binds = serve(
            "SELECT a FROM t WHERE b = -(5)",
            "SELECT a FROM t WHERE b = -(6)",
        );
        assert_eq!(binds.unwrap(), vec![Value::Int(-6)]);
    }

    #[test]
    fn plan_shaping_literals_stay_fixed() {
        let sql = "SELECT a, 100 FROM t WHERE ROWNUM <= 3 AND n LIKE 'a%' AND b = 7 ORDER BY 2";
        let r = recipe(sql).unwrap();
        assert_eq!(r.slots.len(), 1);
        assert_eq!(r.fixed.len(), 4);
        // the slot may move...
        let same_fixed =
            "SELECT a, 100 FROM t WHERE ROWNUM <= 3 AND n LIKE 'a%' AND b = 8 ORDER BY 2";
        assert_eq!(serve(sql, same_fixed).unwrap(), vec![Value::Int(8)]);
        // ...but any literal that is not one declines the statement
        for other in [
            "SELECT a, 101 FROM t WHERE ROWNUM <= 3 AND n LIKE 'a%' AND b = 7 ORDER BY 2",
            "SELECT a, 100 FROM t WHERE ROWNUM <= 4 AND n LIKE 'a%' AND b = 7 ORDER BY 2",
            "SELECT a, 100 FROM t WHERE ROWNUM <= 3 AND n LIKE 'b%' AND b = 7 ORDER BY 2",
            "SELECT a, 100 FROM t WHERE ROWNUM <= 3 AND n LIKE 'a%' AND b = 7 ORDER BY 1",
            // same value, other spelling
            "SELECT a, 100.0 FROM t WHERE ROWNUM <= 3 AND n LIKE 'a%' AND b = 7 ORDER BY 2",
        ] {
            assert!(serve(sql, other).is_none(), "{other}");
        }
    }

    #[test]
    fn ambiguous_or_unmatched_literals_record_nothing() {
        for sql in [
            // a DATE bind comes from no literal's value
            "SELECT a FROM t WHERE d = DATE '5' AND b = 7",
            "SELECT a FROM t WHERE d = DATE 5",
            // duplicate values: which literal is the slot?
            "SELECT 5 FROM t WHERE a = 5",
            "SELECT a FROM t WHERE a = 5 OR b = 5",
            "SELECT a FROM t WHERE a = 'x' OR b = 'x'",
            "SELECT a FROM t WHERE a = 5 OR b = 5.0",
            // zero is its own negation
            "SELECT a FROM t WHERE a = 0",
            "SELECT a FROM t WHERE a = -0.0",
        ] {
            assert!(recipe(sql).is_none(), "{sql}");
        }
        // explicit placeholders have no shape at all
        assert!(Shape::of("SELECT a FROM t WHERE a = ?").is_none());
    }

    #[test]
    fn a_select_constant_equal_to_a_bind_never_serves_it() {
        // `SELECT 5 … WHERE a = 5` records nothing; `SELECT 5 … WHERE
        // a = 6` records a recipe whose slot is the second literal, so a
        // statement moving the first declines and one moving the second
        // is served its own value
        assert!(recipe("SELECT 5 FROM t WHERE a = 5").is_none());
        let recorded = "SELECT 5 FROM t WHERE a = 6";
        assert_eq!(recipe(recorded).unwrap().slots[0].literal, 1);
        assert!(serve(recorded, "SELECT 6 FROM t WHERE a = 6").is_none());
        assert_eq!(
            serve(recorded, "SELECT 5 FROM t WHERE a = 5").unwrap(),
            vec![Value::Int(5)]
        );
    }

    #[test]
    fn case_and_whitespace_are_part_of_the_shape() {
        let a = Shape::of("SELECT a FROM t WHERE b = 1").unwrap();
        let b = Shape::of("select a from t where b = 1").unwrap();
        let c = Shape::of("SELECT a FROM t  WHERE b = 1").unwrap();
        assert!(a != b && a != c && b != c);
        // each records its own recipe, with the one family key
        let keys: Vec<String> = [
            "SELECT a FROM t WHERE b = 1",
            "select a from t where b = 1",
            "SELECT a FROM t  WHERE b = 1",
        ]
        .iter()
        .map(|sql| recipe(sql).unwrap().key().to_string())
        .collect();
        assert!(keys.iter().all(|k| *k == keys[0]), "{keys:?}");
    }

    #[test]
    fn literal_free_statements_record_an_empty_recipe() {
        let r = recipe("SELECT a FROM t WHERE b IS NULL").unwrap();
        assert!(r.slots.is_empty());
        assert_eq!(
            serve(
                "SELECT a FROM t WHERE b IS NULL",
                "SELECT a FROM t WHERE b IS NULL"
            ),
            Some(vec![])
        );
    }

    #[test]
    fn a_write_recipe_maps_set_and_filter_literals() {
        // the target query an UPDATE of `kv (id, val)` is served by,
        // written out here: the core crate builds it from the AST
        let target = |val: &str, id: &str| {
            let q = parse_query(&format!(
                "SELECT kv.id, {val}, kv.ROWID FROM kv WHERE kv.id = {id}"
            ))
            .unwrap();
            let p = parameterize_dml_target(&q);
            (render_query(&p.query), p.query, p.binds)
        };
        let kind = RecipeKind::Write {
            dml: Dml::Update,
            table: "kv".into(),
        };
        let derive = |sql: &str, (key, family, binds): (String, Query, Vec<Value>)| {
            Recipe::derive(sql, &Shape::of(sql)?, kind.clone(), key, family, &binds)
        };
        let sql = "UPDATE kv SET val = 7 WHERE id = 3";
        let r = derive(sql, target("7", "3")).unwrap();
        assert_eq!(r.kind(), &kind);
        assert_eq!(r.key(), target("9", "4").0);
        let other = "UPDATE kv SET val = 9 WHERE id = 4";
        let binds = r.binds(other, &Shape::of(other).unwrap()).unwrap();
        assert_eq!(binds, target("9", "4").2);
        assert_eq!(binds, vec![Value::Int(9), Value::Int(4)]);
        // a SET value equal to the key leaves the slots ambiguous
        assert!(derive("UPDATE kv SET val = 5 WHERE id = 5", target("5", "5")).is_none());
    }
}
