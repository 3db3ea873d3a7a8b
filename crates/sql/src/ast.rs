//! Abstract syntax tree for the supported SQL dialect.
//!
//! The AST is deliberately close to SQL text (it is *declarative*, like
//! the paper's query trees); all normalization happens when the AST is
//! lowered into the query-graph model in `cbqt-qgm`.

use cbqt_common::value::Value;
use std::fmt;

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Query(Box<Query>),
    CreateTable(CreateTable),
    CreateIndex(CreateIndex),
    Insert(Insert),
    /// `EXPLAIN [ANALYZE] <query>` — show transformation decisions and
    /// the plan; with ANALYZE, execute the query and interleave actual
    /// per-operator row counts with the estimates.
    Explain {
        query: Box<Query>,
        analyze: bool,
    },
    /// `ANALYZE` — recompute optimizer statistics for all tables.
    Analyze,
    Update(Update),
    Delete(Delete),
    /// `BEGIN [TRANSACTION]` — open an explicit transaction.
    Begin,
    /// `COMMIT` — publish the open transaction.
    Commit,
    /// `ROLLBACK` — discard the open transaction.
    Rollback,
}

/// A query expression plus its (outermost) ORDER BY.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub body: SetExpr,
    pub order_by: Vec<OrderItem>,
}

/// Body of a query: a plain SELECT or a set operation tree.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Select(Box<Select>),
    SetOp {
        op: SetOp,
        left: Box<SetExpr>,
        right: Box<SetExpr>,
    },
}

/// SQL set operators. `Union`/`Intersect`/`Minus` are duplicate-free;
/// `UnionAll` preserves duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOp {
    UnionAll,
    Union,
    Intersect,
    Minus,
}

impl fmt::Display for SetOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetOp::UnionAll => write!(f, "UNION ALL"),
            SetOp::Union => write!(f, "UNION"),
            SetOp::Intersect => write!(f, "INTERSECT"),
            SetOp::Minus => write!(f, "MINUS"),
        }
    }
}

/// A single SELECT query block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Option<GroupBy>,
    pub having: Option<Expr>,
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// GROUP BY clause; `rollup` corresponds to `GROUP BY ROLLUP (...)`,
/// which expands into grouping sets and is the target of the paper's
/// *group pruning* transformation (§2.1.4).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBy {
    pub rollup: bool,
    pub exprs: Vec<Expr>,
}

/// A FROM-clause table reference.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Table {
        name: String,
        alias: Option<String>,
    },
    /// Inline view (derived table).
    Derived {
        query: Box<Query>,
        alias: String,
    },
    /// ANSI join syntax.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        on: Option<Expr>,
    },
}

impl TableRef {
    /// The alias (or base name) this reference is known by, when it has
    /// one ("join" nodes do not).
    pub fn binding_name(&self) -> Option<&str> {
        match self {
            TableRef::Table { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Derived { alias, .. } => Some(alias),
            TableRef::Join { .. } => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    RightOuter,
    Cross,
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
    /// NULLS FIRST/LAST; `None` means the dialect default (nulls last for
    /// ascending, first for descending — Oracle's behaviour).
    pub nulls_first: Option<bool>,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Concat,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Concat => "||",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

/// Quantifier for `expr op ANY/ALL (subquery)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quant {
    Any,
    All,
}

/// Window specification for `fn(...) OVER (...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    pub partition_by: Vec<Expr>,
    pub order_by: Vec<OrderItem>,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// A constant, and where the parser read it ([`Stamp`]).
    Literal(Value, Stamp),
    /// Positional bind parameter (`?` in SQL text, or a literal site
    /// extracted by [`crate::binds::parameterize`]). The slot indexes
    /// into the statement's bind vector, assigned left-to-right.
    Param(usize),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `(a[, b...]) [NOT] IN (subquery)`
    InSubquery {
        exprs: Vec<Expr>,
        query: Box<Query>,
        negated: bool,
    },
    Exists {
        query: Box<Query>,
        negated: bool,
    },
    /// `a op ANY|ALL (subquery)`
    Quantified {
        op: BinOp,
        quant: Quant,
        left: Box<Expr>,
        query: Box<Query>,
    },
    ScalarSubquery(Box<Query>),
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// Function call: aggregate, scalar, or windowed.
    Func {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
        window: Option<WindowSpec>,
    },
    /// Oracle ROWNUM pseudo-column.
    Rownum,
}

/// Where the parser read a literal: the ordinal of its token among the
/// number and string literals of the statement's text, in text order
/// (the order [`Shape::of`](crate::Shape::of) lists them in), and
/// whether it folded a unary minus (an odd number of them) into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Source {
    pub literal: usize,
    pub negated: bool,
}

/// A literal's [`Source`], or `None` for one no single literal token
/// spells: `TRUE`, `NULL`, a `DATE`, a literal built by code. No part of
/// what the literal means: any two stamps are equal, and neither
/// `Display` nor [`render_query`](crate::render_query) shows one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamp(pub Option<Source>);

impl PartialEq for Stamp {
    fn eq(&self, _: &Stamp) -> bool {
        true
    }
}

/// SQL-ish rendering, used in error messages (subquery bodies are
/// abbreviated to `(subquery)`).
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list(f: &mut fmt::Formatter<'_>, items: &[Expr]) -> fmt::Result {
            for (i, e) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
            Ok(())
        }
        let not = |negated: &bool| if *negated { "NOT " } else { "" };
        match self {
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(v, _) => write!(f, "{v}"),
            Expr::Param(i) => write!(f, "?{i}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Unary { op, expr } => match op {
                UnOp::Neg => write!(f, "-{expr}"),
                UnOp::Not => write!(f, "NOT {expr}"),
            },
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", not(negated))
            }
            Expr::InList {
                expr,
                list: items,
                negated,
            } => {
                write!(f, "{expr} {}IN (", not(negated))?;
                list(f, items)?;
                write!(f, ")")
            }
            Expr::InSubquery { exprs, negated, .. } => {
                if let [single] = exprs.as_slice() {
                    write!(f, "{single} {}IN (subquery)", not(negated))
                } else {
                    write!(f, "(")?;
                    list(f, exprs)?;
                    write!(f, ") {}IN (subquery)", not(negated))
                }
            }
            Expr::Exists { negated, .. } => {
                write!(f, "{}EXISTS (subquery)", not(negated))
            }
            Expr::Quantified {
                op, quant, left, ..
            } => {
                let q = match quant {
                    Quant::Any => "ANY",
                    Quant::All => "ALL",
                };
                write!(f, "{left} {op} {q} (subquery)")
            }
            Expr::ScalarSubquery(_) => write!(f, "(subquery)"),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(f, "{expr} {}BETWEEN {low} AND {high}", not(negated)),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(f, "{expr} {}LIKE {pattern}", not(negated)),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Func {
                name,
                args,
                distinct,
                window,
            } => {
                write!(f, "{name}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                list(f, args)?;
                write!(f, ")")?;
                if window.is_some() {
                    write!(f, " OVER (...)")?;
                }
                Ok(())
            }
            Expr::Rownum => write!(f, "ROWNUM"),
        }
    }
}

/// The one list of an [`Expr`]'s direct children, in the order
/// [`render_query`](crate::render_query) prints them, spelled once for
/// the `&` and the `&mut` visit: `children!(each, body)` emits
/// `fn each(&self, f)` and `fn body(&self)`, `children!(each, body,
/// mut)` their `&mut` twins. A subquery body is no child: `body` returns
/// it, and it renders after the node's children.
macro_rules! children {
    ($each:ident, $body:ident $(, $m:tt)?) => {
        /// Calls `f` on each *direct* child expression, in order.
        pub fn $each<'a>(&'a $($m)? self, mut f: impl FnMut(&'a $($m)? Expr)) {
            match self {
                Expr::Binary { left, right, .. } => {
                    f(left);
                    f(right);
                }
                Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => f(expr),
                Expr::InList { expr, list, .. } => {
                    f(expr);
                    for e in list {
                        f(e);
                    }
                }
                Expr::InSubquery { exprs, .. } => {
                    for e in exprs {
                        f(e);
                    }
                }
                Expr::Quantified { left, .. } => f(left),
                Expr::Between {
                    expr, low, high, ..
                } => {
                    f(expr);
                    f(low);
                    f(high);
                }
                Expr::Like { expr, pattern, .. } => {
                    f(expr);
                    f(pattern);
                }
                Expr::Case {
                    operand,
                    branches,
                    else_expr,
                } => {
                    if let Some(o) = operand {
                        f(o);
                    }
                    for (w, t) in branches {
                        f(w);
                        f(t);
                    }
                    if let Some(e) = else_expr {
                        f(e);
                    }
                }
                Expr::Func { args, window, .. } => {
                    for a in args {
                        f(a);
                    }
                    if let Some(w) = window {
                        for e in &$($m)? w.partition_by {
                            f(e);
                        }
                        for o in &$($m)? w.order_by {
                            f(&$($m)? o.expr);
                        }
                    }
                }
                Expr::Column { .. }
                | Expr::Literal(..)
                | Expr::Param(_)
                | Expr::Exists { .. }
                | Expr::ScalarSubquery(_)
                | Expr::Rownum => {}
            }
        }

        /// The subquery body of an `IN`, `EXISTS`, quantified or scalar
        /// subquery.
        pub fn $body(&$($m)? self) -> Option<&$($m)? Query> {
            match self {
                Expr::InSubquery { query, .. }
                | Expr::Exists { query, .. }
                | Expr::Quantified { query, .. }
                | Expr::ScalarSubquery(query) => Some(query),
                _ => None,
            }
        }
    };
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into(), Stamp::default())
    }

    pub fn binary(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// True iff the expression (ignoring subquery bodies) contains an
    /// aggregate function call that is not windowed.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Func {
                name, window: None, ..
            } = e
            {
                if is_aggregate_name(name) {
                    found = true;
                }
            }
        });
        found
    }

    children!(for_each_child, subquery);
    children!(for_each_child_mut, subquery_mut, mut);

    /// Calls `f` on this expression and all sub-expressions (not
    /// descending into subquery bodies).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        self.for_each_child(|c| c.walk(f));
    }
}

/// Recognized aggregate function names.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX"
    )
}

// ---------------------------------------------------------------------
// DDL / DML
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    pub constraints: Vec<TableConstraint>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: cbqt_common::DataType,
    pub not_null: bool,
    pub primary_key: bool,
    pub unique: bool,
    /// Inline `REFERENCES parent(col)`.
    pub references: Option<(String, String)>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TableConstraint {
    PrimaryKey(Vec<String>),
    Unique(Vec<String>),
    ForeignKey {
        columns: Vec<String>,
        parent: String,
        parent_columns: Vec<String>,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    pub unique: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    pub columns: Option<Vec<String>>,
    pub rows: Vec<Vec<Expr>>,
}

/// `UPDATE <table> SET col = expr [, ...] [WHERE <pred>]`. SET
/// expressions and the predicate are compiled as a query over the
/// table, so they accept whatever a select list and a WHERE clause do.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: String,
    /// `(column name, new value)` assignments, in statement order.
    pub sets: Vec<(String, Expr)>,
    pub filter: Option<Expr>,
}

/// `DELETE FROM <table> [WHERE <pred>]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: String,
    pub filter: Option<Expr>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_aggregate_detects_plain_aggs() {
        let e = Expr::Func {
            name: "AVG".into(),
            args: vec![Expr::col("salary")],
            distinct: false,
            window: None,
        };
        assert!(e.contains_aggregate());
        let wrapped = Expr::binary(BinOp::Gt, Expr::col("x"), e);
        assert!(wrapped.contains_aggregate());
    }

    #[test]
    fn windowed_agg_is_not_plain_aggregate() {
        let e = Expr::Func {
            name: "AVG".into(),
            args: vec![Expr::col("balance")],
            distinct: false,
            window: Some(WindowSpec {
                partition_by: vec![Expr::col("acct")],
                order_by: vec![],
            }),
        };
        assert!(!e.contains_aggregate());
    }

    #[test]
    fn binding_names() {
        let t = TableRef::Table {
            name: "employees".into(),
            alias: Some("e".into()),
        };
        assert_eq!(t.binding_name(), Some("e"));
        let t2 = TableRef::Table {
            name: "dept".into(),
            alias: None,
        };
        assert_eq!(t2.binding_name(), Some("dept"));
    }

    #[test]
    fn aggregate_names() {
        assert!(is_aggregate_name("count"));
        assert!(is_aggregate_name("Sum"));
        assert!(!is_aggregate_name("upper"));
    }
}
