//! Recursive-descent SQL parser with precedence climbing for
//! expressions.

use crate::ast::*;
use crate::lexer::{literal_value, negated, Lexer, Token, TokenKind};
use cbqt_common::{DataType, Error, Result, Value};

/// Parses a single statement (trailing semicolon optional).
pub fn parse_statement(src: &str) -> Result<Statement> {
    let mut p = Parser::new(src)?;
    let stmt = p.parse_statement()?;
    p.eat(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a semicolon-separated script.
pub fn parse_statements(src: &str) -> Result<Vec<Statement>> {
    Ok(parse_statements_spanned(src)?
        .into_iter()
        .map(|(stmt, _)| stmt)
        .collect())
}

/// Parses a semicolon-separated script, pairing every statement with
/// the byte range of its text in `src` (first token up to, but not
/// including, the terminating semicolon). Callers use the range to
/// carve per-statement SQL out of the script — e.g. to key a plan
/// cache — without re-rendering the AST.
pub fn parse_statements_spanned(src: &str) -> Result<Vec<(Statement, std::ops::Range<usize>)>> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.at_eof() {
            return Ok(out);
        }
        let start = p.current_offset();
        // literal ordinals count within the statement's own text
        p.literals = 0;
        let stmt = p.parse_statement()?;
        let end = p.current_offset();
        out.push((stmt, start..end));
        if !p.eat(&TokenKind::Semicolon) {
            p.expect_eof()?;
            return Ok(out);
        }
    }
}

/// Parses a query (SELECT / set operation), rejecting other statements.
pub fn parse_query(src: &str) -> Result<Query> {
    let mut p = Parser::new(src)?;
    let q = p.parse_query()?;
    p.eat(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(q)
}

/// Parses a standalone scalar expression (used in tests and tools).
pub fn parse_expression(src: &str) -> Result<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Keywords that terminate an implicit alias position.
const RESERVED: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "HAVING",
    "ORDER",
    "ON",
    "JOIN",
    "LEFT",
    "RIGHT",
    "INNER",
    "CROSS",
    "OUTER",
    "UNION",
    "INTERSECT",
    "MINUS",
    "EXCEPT",
    "AND",
    "OR",
    "NOT",
    "AS",
    "SET",
    "VALUES",
    "USING",
    "LIMIT",
    "BY",
    "DESC",
    "ASC",
    "NULLS",
    "INTO",
];

/// Maximum recursion depth across nested expressions, parenthesized
/// table references and set-operation branches. The recursive-descent
/// parser consumes native stack per nesting level; this bound turns a
/// pathological input (e.g. 10 000 nested parentheses) into a parse
/// error instead of a stack overflow.
const MAX_NESTING_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current recursion depth (see [`MAX_NESTING_DEPTH`]).
    depth: usize,
    /// Bind-parameter slots seen so far; `?` placeholders number
    /// left-to-right in token order within one statement.
    params: usize,
    /// Number and string literal tokens consumed so far in the
    /// statement: the ordinal the next one is stamped with ([`Source`]).
    literals: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: Lexer::tokenize(src)?,
            pos: 0,
            depth: 0,
            params: 0,
            literals: 0,
        })
    }

    /// Enters one recursion level; fails with a parse error past
    /// [`MAX_NESTING_DEPTH`]. Paired with [`Parser::descend_end`].
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(Error::parse(format!(
                "query nesting exceeds the maximum depth of {MAX_NESTING_DEPTH}"
            )));
        }
        Ok(())
    }

    fn descend_end(&mut self) {
        self.depth -= 1;
    }

    // -- token helpers ------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    /// Byte offset of the current token in the source (the `Eof`
    /// token's offset is the end of the source).
    fn current_offset(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].offset
    }

    fn peek_n(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        if let TokenKind::Number(_) | TokenKind::StringLit(_) = t {
            self.literals += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        *self.peek() == TokenKind::Eof
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{kind}'")))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err("expected end of input"))
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let tok = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        Error::parse(format!(
            "{} but found '{}' at offset {}",
            msg.into(),
            tok.kind,
            tok.offset
        ))
    }

    /// True if the current token is the given keyword (case-insensitive).
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn at_kw_n(&self, n: usize, kw: &str) -> bool {
        matches!(self.peek_n(n), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}")))
        }
    }

    /// Parses an identifier (regular or quoted).
    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            TokenKind::QuotedIdent(s) => Ok(s),
            other => {
                // restore position for accurate error
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(format!("expected identifier, got '{other}'")))
            }
        }
    }

    /// Parses an optional alias (with or without AS), refusing reserved
    /// words in the bare form.
    fn opt_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        if let TokenKind::Ident(s) = self.peek() {
            if !RESERVED.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                let s = s.clone();
                self.bump();
                return Ok(Some(s));
            }
        }
        if let TokenKind::QuotedIdent(s) = self.peek() {
            let s = s.clone();
            self.bump();
            return Ok(Some(s));
        }
        Ok(None)
    }

    // -- statements ---------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement> {
        // `?` slots number per statement, not per script
        self.params = 0;
        if self.at_kw("SELECT") || *self.peek() == TokenKind::LParen {
            return Ok(Statement::Query(Box::new(self.parse_query()?)));
        }
        if self.at_kw("EXPLAIN") {
            self.bump();
            let analyze = self.eat_kw("ANALYZE");
            return Ok(Statement::Explain {
                query: Box::new(self.parse_query()?),
                analyze,
            });
        }
        if self.at_kw("ANALYZE") {
            self.bump();
            return Ok(Statement::Analyze);
        }
        if self.at_kw("CREATE") {
            self.bump();
            if self.eat_kw("TABLE") {
                return Ok(Statement::CreateTable(self.parse_create_table()?));
            }
            let unique = self.eat_kw("UNIQUE");
            if self.eat_kw("INDEX") {
                return Ok(Statement::CreateIndex(self.parse_create_index(unique)?));
            }
            return Err(self.err("expected TABLE or [UNIQUE] INDEX after CREATE"));
        }
        if self.at_kw("INSERT") {
            self.bump();
            return Ok(Statement::Insert(self.parse_insert()?));
        }
        if self.at_kw("UPDATE") {
            self.bump();
            return Ok(Statement::Update(self.parse_update()?));
        }
        if self.at_kw("DELETE") {
            self.bump();
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let filter = if self.eat_kw("WHERE") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete(Delete { table, filter }));
        }
        if self.at_kw("BEGIN") {
            self.bump();
            self.eat_kw("TRANSACTION");
            return Ok(Statement::Begin);
        }
        if self.at_kw("COMMIT") {
            self.bump();
            return Ok(Statement::Commit);
        }
        if self.at_kw("ROLLBACK") {
            self.bump();
            return Ok(Statement::Rollback);
        }
        Err(self.err(
            "expected SELECT, EXPLAIN, ANALYZE, CREATE, INSERT, UPDATE, DELETE, \
             BEGIN, COMMIT or ROLLBACK",
        ))
    }

    fn parse_update(&mut self) -> Result<Update> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            sets.push((col, self.parse_expr()?));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Update {
            table,
            sets,
            filter,
        })
    }

    fn parse_create_table(&mut self) -> Result<CreateTable> {
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.at_kw("PRIMARY")
                || self.at_kw("UNIQUE") && *self.peek_n(1) == TokenKind::LParen
                || self.at_kw("FOREIGN")
                || self.at_kw("CONSTRAINT")
            {
                constraints.push(self.parse_table_constraint()?);
            } else {
                columns.push(self.parse_column_def()?);
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(CreateTable {
            name,
            columns,
            constraints,
        })
    }

    fn parse_table_constraint(&mut self) -> Result<TableConstraint> {
        if self.eat_kw("CONSTRAINT") {
            self.ident()?; // constraint name is accepted and ignored
        }
        if self.eat_kw("PRIMARY") {
            self.expect_kw("KEY")?;
            return Ok(TableConstraint::PrimaryKey(self.paren_ident_list()?));
        }
        if self.eat_kw("UNIQUE") {
            return Ok(TableConstraint::Unique(self.paren_ident_list()?));
        }
        if self.eat_kw("FOREIGN") {
            self.expect_kw("KEY")?;
            let columns = self.paren_ident_list()?;
            self.expect_kw("REFERENCES")?;
            let parent = self.ident()?;
            let parent_columns = self.paren_ident_list()?;
            return Ok(TableConstraint::ForeignKey {
                columns,
                parent,
                parent_columns,
            });
        }
        Err(self.err("expected table constraint"))
    }

    fn paren_ident_list(&mut self) -> Result<Vec<String>> {
        self.expect(&TokenKind::LParen)?;
        let mut out = vec![self.ident()?];
        while self.eat(&TokenKind::Comma) {
            out.push(self.ident()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(out)
    }

    fn parse_column_def(&mut self) -> Result<ColumnDef> {
        let name = self.ident()?;
        let type_name = self.ident()?;
        // swallow a parenthesized precision, e.g. VARCHAR(30), NUMBER(10,2)
        if self.eat(&TokenKind::LParen) {
            while *self.peek() != TokenKind::RParen && !self.at_eof() {
                self.bump();
            }
            self.expect(&TokenKind::RParen)?;
        }
        let data_type = DataType::parse(&type_name)?;
        let mut def = ColumnDef {
            name,
            data_type,
            not_null: false,
            primary_key: false,
            unique: false,
            references: None,
        };
        loop {
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                def.not_null = true;
            } else if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                def.primary_key = true;
                def.not_null = true;
            } else if self.eat_kw("UNIQUE") {
                def.unique = true;
            } else if self.eat_kw("REFERENCES") {
                let parent = self.ident()?;
                self.expect(&TokenKind::LParen)?;
                let col = self.ident()?;
                self.expect(&TokenKind::RParen)?;
                def.references = Some((parent, col));
            } else {
                break;
            }
        }
        Ok(def)
    }

    fn parse_create_index(&mut self, unique: bool) -> Result<CreateIndex> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        let columns = self.paren_ident_list()?;
        Ok(CreateIndex {
            name,
            table,
            columns,
            unique,
        })
    }

    fn parse_insert(&mut self) -> Result<Insert> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if *self.peek() == TokenKind::LParen {
            Some(self.paren_ident_list()?)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = vec![self.parse_expr()?];
            while self.eat(&TokenKind::Comma) {
                row.push(self.parse_expr()?);
            }
            self.expect(&TokenKind::RParen)?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Insert {
            table,
            columns,
            rows,
        })
    }

    // -- queries ------------------------------------------------------

    fn parse_query(&mut self) -> Result<Query> {
        let body = self.parse_set_expr()?;
        let order_by = if self.at_kw("ORDER") {
            self.bump();
            self.expect_kw("BY")?;
            self.parse_order_items()?
        } else {
            Vec::new()
        };
        Ok(Query { body, order_by })
    }

    fn parse_order_items(&mut self) -> Result<Vec<OrderItem>> {
        let mut items = vec![self.parse_order_item()?];
        while self.eat(&TokenKind::Comma) {
            items.push(self.parse_order_item()?);
        }
        Ok(items)
    }

    fn parse_order_item(&mut self) -> Result<OrderItem> {
        let expr = self.parse_expr()?;
        let desc = if self.eat_kw("DESC") {
            true
        } else {
            self.eat_kw("ASC");
            false
        };
        let nulls_first = if self.eat_kw("NULLS") {
            if self.eat_kw("FIRST") {
                Some(true)
            } else {
                self.expect_kw("LAST")?;
                Some(false)
            }
        } else {
            None
        };
        Ok(OrderItem {
            expr,
            desc,
            nulls_first,
        })
    }

    /// UNION/MINUS level (lowest set-operator precedence).
    fn parse_set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.parse_intersect_expr()?;
        loop {
            let op = if self.at_kw("UNION") {
                self.bump();
                if self.eat_kw("ALL") {
                    SetOp::UnionAll
                } else {
                    SetOp::Union
                }
            } else if self.at_kw("MINUS") || self.at_kw("EXCEPT") {
                self.bump();
                SetOp::Minus
            } else {
                return Ok(left);
            };
            let right = self.parse_intersect_expr()?;
            left = SetExpr::SetOp {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn parse_intersect_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.parse_set_primary()?;
        while self.eat_kw("INTERSECT") {
            let right = self.parse_set_primary()?;
            left = SetExpr::SetOp {
                op: SetOp::Intersect,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_set_primary(&mut self) -> Result<SetExpr> {
        self.descend()?;
        let r = self.parse_set_primary_body();
        self.descend_end();
        r
    }

    fn parse_set_primary_body(&mut self) -> Result<SetExpr> {
        if self.eat(&TokenKind::LParen) {
            let q = self.parse_query()?;
            self.expect(&TokenKind::RParen)?;
            if !q.order_by.is_empty() {
                return Err(self.err("ORDER BY is not allowed in a parenthesized set-operand"));
            }
            return Ok(q.body);
        }
        Ok(SetExpr::Select(Box::new(self.parse_select()?)))
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };
        let mut items = vec![self.parse_select_item()?];
        while self.eat(&TokenKind::Comma) {
            items.push(self.parse_select_item()?);
        }
        let from = if self.eat_kw("FROM") {
            let mut from = vec![self.parse_table_ref()?];
            while self.eat(&TokenKind::Comma) {
                from.push(self.parse_table_ref()?);
            }
            from
        } else {
            Vec::new()
        };
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let group_by = if self.at_kw("GROUP") {
            self.bump();
            self.expect_kw("BY")?;
            let rollup = self.eat_kw("ROLLUP");
            let exprs = if rollup {
                self.expect(&TokenKind::LParen)?;
                let mut es = vec![self.parse_expr()?];
                while self.eat(&TokenKind::Comma) {
                    es.push(self.parse_expr()?);
                }
                self.expect(&TokenKind::RParen)?;
                es
            } else {
                let mut es = vec![self.parse_expr()?];
                while self.eat(&TokenKind::Comma) {
                    es.push(self.parse_expr()?);
                }
                es
            };
            Some(GroupBy { rollup, exprs })
        } else {
            None
        };
        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.*
        if let TokenKind::Ident(q) = self.peek() {
            if *self.peek_n(1) == TokenKind::Dot && *self.peek_n(2) == TokenKind::Star {
                let q = q.clone();
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.opt_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    // -- FROM clause ---------------------------------------------------

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.at_kw("JOIN") || self.at_kw("INNER") {
                self.eat_kw("INNER");
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.at_kw("LEFT") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::LeftOuter
            } else if self.at_kw("RIGHT") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::RightOuter
            } else if self.at_kw("CROSS") {
                self.bump();
                self.expect_kw("JOIN")?;
                JoinKind::Cross
            } else {
                return Ok(left);
            };
            let right = self.parse_table_primary()?;
            let on = if kind != JoinKind::Cross {
                self.expect_kw("ON")?;
                Some(self.parse_expr()?)
            } else {
                None
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
    }

    fn parse_table_primary(&mut self) -> Result<TableRef> {
        self.descend()?;
        let r = self.parse_table_primary_body();
        self.descend_end();
        r
    }

    fn parse_table_primary_body(&mut self) -> Result<TableRef> {
        if self.eat(&TokenKind::LParen) {
            // derived table
            let q = self.parse_query()?;
            self.expect(&TokenKind::RParen)?;
            let alias = self
                .opt_alias()?
                .ok_or_else(|| self.err("derived table requires an alias"))?;
            return Ok(TableRef::Derived {
                query: Box::new(q),
                alias,
            });
        }
        let name = self.ident()?;
        let alias = self.opt_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    // -- expressions ----------------------------------------------------

    pub(crate) fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        self.descend()?;
        let r = self.parse_or_body();
        self.descend_end();
        r
    }

    fn parse_or_body(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            let right = self.parse_not()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.at_kw("NOT") {
            // NOT EXISTS gets folded into the Exists node directly.
            if self.at_kw_n(1, "EXISTS") {
                self.bump();
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let q = self.parse_query()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::Exists {
                    query: Box::new(q),
                    negated: true,
                });
            }
            self.bump();
            let inner = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;

        // comparison (possibly quantified)
        let cmp = match self.peek() {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::NotEq),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::LtEq => Some(BinOp::LtEq),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::GtEq => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = cmp {
            self.bump();
            if self.at_kw("ANY") || self.at_kw("SOME") || self.at_kw("ALL") {
                let quant = if self.eat_kw("ALL") {
                    Quant::All
                } else {
                    self.bump(); // ANY / SOME
                    Quant::Any
                };
                self.expect(&TokenKind::LParen)?;
                let q = self.parse_query()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::Quantified {
                    op,
                    quant,
                    left: Box::new(left),
                    query: Box::new(q),
                });
            }
            let right = self.parse_additive()?;
            return Ok(Expr::binary(op, left, right));
        }

        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        let negated = self.eat_kw("NOT");

        if self.eat_kw("IN") {
            self.expect(&TokenKind::LParen)?;
            if self.at_kw("SELECT") {
                let q = self.parse_query()?;
                self.expect(&TokenKind::RParen)?;
                let exprs = unwrap_row(left);
                return Ok(Expr::InSubquery {
                    exprs,
                    query: Box::new(q),
                    negated,
                });
            }
            let mut list = vec![self.parse_expr()?];
            while self.eat(&TokenKind::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }

        if self.eat_kw("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }

        if self.eat_kw("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }

        if negated {
            return Err(self.err("expected IN, BETWEEN or LIKE after NOT"));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                TokenKind::Concat => BinOp::Concat,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(op, left, right);
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::binary(op, left, right);
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            let e = self.parse_unary()?;
            // fold negative literals; the stamp records the fold
            if let Expr::Literal(v, Stamp(source)) = &e {
                if let Some(v) = negated(v) {
                    let source = source.map(|s| Source {
                        negated: !s.negated,
                        ..s
                    });
                    return Ok(Expr::Literal(v, Stamp(source)));
                }
            }
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(e),
            });
        }
        if self.eat(&TokenKind::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Number(text) => match literal_value(&text) {
                Some(value) => Ok(self.literal(value)),
                None => Err(self.err(format!("bad number {text}"))),
            },
            TokenKind::StringLit(s) => Ok(self.literal(Value::str(s))),
            TokenKind::Question => {
                self.bump();
                let slot = self.params;
                self.params += 1;
                Ok(Expr::Param(slot))
            }
            TokenKind::LParen => {
                self.bump();
                if self.at_kw("SELECT") {
                    let q = self.parse_query()?;
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(q)));
                }
                let first = self.parse_expr()?;
                if self.eat(&TokenKind::Comma) {
                    // row expression — only legal in front of IN (subquery)
                    let mut args = vec![first];
                    loop {
                        args.push(self.parse_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::Func {
                        name: "$ROW".into(),
                        args,
                        distinct: false,
                        window: None,
                    });
                }
                self.expect(&TokenKind::RParen)?;
                Ok(first)
            }
            TokenKind::Ident(word) => self.parse_ident_expr(word),
            TokenKind::QuotedIdent(name) => {
                self.bump();
                if self.eat(&TokenKind::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column {
                    qualifier: None,
                    name,
                })
            }
            other => Err(self.err(format!("unexpected token '{other}' in expression"))),
        }
    }

    /// The literal `value` of the current token, which it consumes,
    /// stamped with the token's ordinal.
    fn literal(&mut self, value: Value) -> Expr {
        let source = Source {
            literal: self.literals,
            negated: false,
        };
        self.bump();
        Expr::Literal(value, Stamp(Some(source)))
    }

    fn parse_ident_expr(&mut self, word: String) -> Result<Expr> {
        let upper = word.to_ascii_uppercase();
        match upper.as_str() {
            "NULL" => {
                self.bump();
                return Ok(Expr::lit(Value::Null));
            }
            "TRUE" => {
                self.bump();
                return Ok(Expr::lit(true));
            }
            "FALSE" => {
                self.bump();
                return Ok(Expr::lit(false));
            }
            "ROWNUM" => {
                self.bump();
                return Ok(Expr::Rownum);
            }
            "DATE" => {
                // DATE <int> or DATE 'nnn' — days since epoch
                if let TokenKind::Number(_) | TokenKind::StringLit(_) = self.peek_n(1) {
                    self.bump();
                    match self.bump() {
                        TokenKind::Number(n) => {
                            let d: i32 = n.parse().map_err(|_| self.err("bad DATE literal"))?;
                            return Ok(Expr::lit(Value::Date(d)));
                        }
                        TokenKind::StringLit(s) => {
                            let d: i32 =
                                s.trim().parse().map_err(|_| self.err("bad DATE literal"))?;
                            return Ok(Expr::lit(Value::Date(d)));
                        }
                        _ => unreachable!(),
                    }
                }
            }
            "EXISTS" => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let q = self.parse_query()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::Exists {
                    query: Box::new(q),
                    negated: false,
                });
            }
            "CASE" => {
                self.bump();
                return self.parse_case();
            }
            _ => {}
        }

        // function call?
        if *self.peek_n(1) == TokenKind::LParen {
            self.bump();
            self.bump();
            let mut distinct = false;
            let mut args = Vec::new();
            if self.eat(&TokenKind::Star) {
                // COUNT(*)
            } else if *self.peek() != TokenKind::RParen {
                distinct = self.eat_kw("DISTINCT");
                args.push(self.parse_expr()?);
                while self.eat(&TokenKind::Comma) {
                    args.push(self.parse_expr()?);
                }
            }
            self.expect(&TokenKind::RParen)?;
            let window = if self.at_kw("OVER") {
                self.bump();
                Some(self.parse_window_spec()?)
            } else {
                None
            };
            return Ok(Expr::Func {
                name: upper,
                args,
                distinct,
                window,
            });
        }

        // plain or qualified column
        if RESERVED.iter().any(|k| upper == *k) {
            return Err(self.err(format!("unexpected keyword {upper} in expression")));
        }
        self.bump();
        if self.eat(&TokenKind::Dot) {
            let col = self.ident()?;
            return Ok(Expr::Column {
                qualifier: Some(word),
                name: col,
            });
        }
        Ok(Expr::Column {
            qualifier: None,
            name: word,
        })
    }

    fn parse_window_spec(&mut self) -> Result<WindowSpec> {
        self.expect(&TokenKind::LParen)?;
        let mut spec = WindowSpec {
            partition_by: Vec::new(),
            order_by: Vec::new(),
        };
        if self.eat_kw("PARTITION") {
            self.expect_kw("BY")?;
            spec.partition_by.push(self.parse_expr()?);
            while self.eat(&TokenKind::Comma) {
                spec.partition_by.push(self.parse_expr()?);
            }
        }
        if self.at_kw("ORDER") {
            self.bump();
            self.expect_kw("BY")?;
            spec.order_by = self.parse_order_items()?;
        }
        // the engines compute one frame, RANGE from the start of the
        // partition to the current row's last peer (all of it without
        // ORDER BY); any other frame is refused rather than computed as
        // that one
        if self.at_kw("ROWS") || self.at_kw("RANGE") {
            let mut frame = Vec::new();
            while !matches!(self.peek(), TokenKind::RParen | TokenKind::Eof) {
                frame.push(self.bump().to_string().to_ascii_uppercase());
            }
            let running = matches!(
                &frame.join(" ")[..],
                "RANGE UNBOUNDED PRECEDING" | "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"
            );
            if !running {
                return Err(Error::unsupported(format!(
                    "window frame {}",
                    frame.join(" ")
                )));
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(spec)
    }

    fn parse_case(&mut self) -> Result<Expr> {
        let operand = if !self.at_kw("WHEN") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let w = self.parse_expr()?;
            self.expect_kw("THEN")?;
            let t = self.parse_expr()?;
            branches.push((w, t));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_expr = if self.eat_kw("ELSE") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
        })
    }
}

/// Unwraps a `$ROW(a, b, ...)` marker into its component expressions.
fn unwrap_row(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Func { name, args, .. } if name == "$ROW" => args,
        other => vec![other],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(src: &str) -> Select {
        match parse_query(src).unwrap().body {
            SetExpr::Select(s) => *s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // without the depth guard these would exhaust the native stack
        let expr = format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000));
        let err = parse_expression(&expr).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");

        let mut q = String::new();
        for _ in 0..10_000 {
            q.push_str("SELECT * FROM (");
        }
        q.push_str("SELECT 1");
        for _ in 0..10_000 {
            q.push_str(") t");
        }
        let err = parse_statement(&q).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");

        let mut s = "SELECT 1".to_string();
        s.push_str(&" UNION (SELECT 2".repeat(10_000));
        s.push_str(&")".repeat(10_000));
        assert!(parse_statement(&s).is_err());

        // reasonable nesting still parses, and the depth counter resets
        // correctly between expressions of one statement
        let ok = format!(
            "SELECT {}1{} FROM t WHERE {}2{} > 0",
            "(".repeat(50),
            ")".repeat(50),
            "(".repeat(50),
            ")".repeat(50)
        );
        assert!(parse_statement(&ok).is_ok());
    }

    #[test]
    fn parse_simple_select() {
        let s = sel("SELECT a, b AS bee FROM t WHERE a > 1");
        assert_eq!(s.items.len(), 2);
        assert!(matches!(&s.items[1], SelectItem::Expr { alias: Some(a), .. } if a == "bee"));
        assert!(s.where_clause.is_some());
        assert!(!s.distinct);
    }

    #[test]
    fn parse_distinct_and_group_by() {
        let s = sel("SELECT DISTINCT dept_id FROM employees GROUP BY dept_id HAVING COUNT(*) > 2");
        assert!(s.distinct);
        assert!(s.group_by.is_some());
        assert!(s.having.is_some());
    }

    #[test]
    fn parse_rollup() {
        let s = sel("SELECT country, state, SUM(x) FROM t GROUP BY ROLLUP (country, state)");
        let g = s.group_by.unwrap();
        assert!(g.rollup);
        assert_eq!(g.exprs.len(), 2);
    }

    #[test]
    fn parse_comma_join_and_aliases() {
        let s = sel("SELECT e.name FROM employees e, departments d WHERE e.dept_id = d.dept_id");
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].binding_name(), Some("e"));
    }

    #[test]
    fn parse_ansi_joins() {
        let s = sel(
            "SELECT e.name FROM employees e LEFT OUTER JOIN departments d ON e.dept_id = d.dept_id",
        );
        assert_eq!(s.from.len(), 1);
        match &s.from[0] {
            TableRef::Join { kind, on, .. } => {
                assert_eq!(*kind, JoinKind::LeftOuter);
                assert!(on.is_some());
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn parse_exists_subquery() {
        let s = sel("SELECT d.name FROM departments d WHERE EXISTS (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id AND e.salary > 200000)");
        match s.where_clause.unwrap() {
            Expr::Exists { negated, .. } => assert!(!negated),
            other => panic!("expected EXISTS, got {other:?}"),
        }
    }

    #[test]
    fn parse_not_exists() {
        let s = sel("SELECT 1 FROM d WHERE NOT EXISTS (SELECT 1 FROM e)");
        assert!(matches!(
            s.where_clause.unwrap(),
            Expr::Exists { negated: true, .. }
        ));
    }

    #[test]
    fn parse_in_subquery_multi_item() {
        let s = sel("SELECT 1 FROM t WHERE (a, b) IN (SELECT x, y FROM u)");
        match s.where_clause.unwrap() {
            Expr::InSubquery { exprs, negated, .. } => {
                assert_eq!(exprs.len(), 2);
                assert!(!negated);
            }
            other => panic!("expected IN subquery, got {other:?}"),
        }
    }

    #[test]
    fn parse_not_in_list() {
        let s = sel("SELECT 1 FROM t WHERE c NOT IN (1, 2, 3)");
        assert!(matches!(
            s.where_clause.unwrap(),
            Expr::InList { negated: true, .. }
        ));
    }

    #[test]
    fn parse_quantified() {
        let s = sel("SELECT 1 FROM t WHERE sal > ALL (SELECT sal FROM u)");
        match s.where_clause.unwrap() {
            Expr::Quantified { op, quant, .. } => {
                assert_eq!(op, BinOp::Gt);
                assert_eq!(quant, Quant::All);
            }
            other => panic!("expected quantified, got {other:?}"),
        }
        let s = sel("SELECT 1 FROM t WHERE sal = ANY (SELECT sal FROM u)");
        assert!(matches!(
            s.where_clause.unwrap(),
            Expr::Quantified {
                quant: Quant::Any,
                ..
            }
        ));
    }

    #[test]
    fn parse_scalar_subquery() {
        let s = sel("SELECT 1 FROM e WHERE sal > (SELECT AVG(sal) FROM e2)");
        match s.where_clause.unwrap() {
            Expr::Binary { right, .. } => {
                assert!(matches!(*right, Expr::ScalarSubquery(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_set_ops_precedence() {
        // INTERSECT binds tighter than UNION
        let q =
            parse_query("SELECT a FROM t UNION SELECT b FROM u INTERSECT SELECT c FROM v").unwrap();
        match q.body {
            SetExpr::SetOp { op, right, .. } => {
                assert_eq!(op, SetOp::Union);
                assert!(matches!(
                    *right,
                    SetExpr::SetOp {
                        op: SetOp::Intersect,
                        ..
                    }
                ));
            }
            other => panic!("expected set op, got {other:?}"),
        }
    }

    #[test]
    fn parse_minus() {
        let q = parse_query("SELECT a FROM t MINUS SELECT a FROM u").unwrap();
        assert!(matches!(
            q.body,
            SetExpr::SetOp {
                op: SetOp::Minus,
                ..
            }
        ));
    }

    #[test]
    fn parse_derived_table() {
        let s = sel("SELECT v.x FROM (SELECT a x FROM t) v WHERE v.x > 0");
        assert!(matches!(&s.from[0], TableRef::Derived { alias, .. } if alias == "v"));
    }

    #[test]
    fn parse_window_function() {
        let s = sel(
            "SELECT acct_id, AVG(balance) OVER (PARTITION BY acct_id ORDER BY time \
             RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) ravg FROM accounts",
        );
        match &s.items[1] {
            SelectItem::Expr {
                expr: Expr::Func {
                    window: Some(w), ..
                },
                alias,
            } => {
                assert_eq!(w.partition_by.len(), 1);
                assert_eq!(w.order_by.len(), 1);
                assert_eq!(alias.as_deref(), Some("ravg"));
            }
            other => panic!("expected window func, got {other:?}"),
        }
    }

    #[test]
    fn window_frames_other_than_the_running_one_are_refused() {
        let over =
            |frame: &str| parse_query(&format!("SELECT SUM(x) OVER (ORDER BY x {frame}) FROM t"));
        for frame in [
            "RANGE UNBOUNDED PRECEDING",
            "range between unbounded preceding and current row",
        ] {
            assert!(over(frame).is_ok(), "{frame}");
        }
        for frame in [
            "ROWS UNBOUNDED PRECEDING",
            "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW",
            "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING",
            "RANGE BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING",
            "ROWS 2 PRECEDING",
        ] {
            match over(frame) {
                Err(Error::Unsupported(m)) => assert_eq!(m, format!("window frame {frame}")),
                other => panic!("{frame}: {other:?}"),
            }
        }
    }

    #[test]
    fn parse_rownum() {
        let s = sel("SELECT * FROM t WHERE rownum < 20");
        match s.where_clause.unwrap() {
            Expr::Binary { left, .. } => assert!(matches!(*left, Expr::Rownum)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_case_expr() {
        let e = parse_expression("CASE WHEN a > 1 THEN 'hi' WHEN a > 0 THEN 'mid' ELSE 'lo' END")
            .unwrap();
        match e {
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                assert!(operand.is_none());
                assert_eq!(branches.len(), 2);
                assert!(else_expr.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_between_and_like() {
        let e = parse_expression("x BETWEEN 1 AND 10").unwrap();
        assert!(matches!(e, Expr::Between { negated: false, .. }));
        let e = parse_expression("name NOT LIKE 'A%'").unwrap();
        assert!(matches!(e, Expr::Like { negated: true, .. }));
    }

    #[test]
    fn parse_arith_precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Add,
                right,
                ..
            } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_negative_literal_folded() {
        assert_eq!(parse_expression("-5").unwrap(), Expr::lit(-5i64));
    }

    /// Every stamp of the literals of a query or an UPDATE, in the
    /// order a walk meets them.
    fn stamps(stmt: Statement) -> Vec<Option<Source>> {
        let mut out = Vec::new();
        let mut walk = |e: &Expr| {
            if let Expr::Literal(_, Stamp(source)) = e {
                out.push(*source);
            }
        };
        match stmt {
            Statement::Query(q) => crate::binds::for_each_expr(&q, &mut walk),
            Statement::Update(u) => {
                for (_, e) in &u.sets {
                    e.walk(&mut walk);
                }
                u.filter.as_ref().unwrap().walk(&mut walk);
            }
            other => panic!("{other:?}"),
        }
        out
    }

    #[test]
    fn literals_are_stamped_with_their_token_ordinal() {
        let at = |literal, negated| Some(Source { literal, negated });
        // every number and string token counts, DATE's too; a folded
        // minus flips `negated`, TRUE / NULL / DATE have no source
        let sql = "SELECT 'x', 7 FROM t WHERE a = -(5) AND d = DATE '3' \
                   AND b = - -1 AND c = TRUE AND e IS NULL AND f = 2.5";
        assert_eq!(
            stamps(parse_statement(sql).unwrap()),
            vec![
                at(0, false),
                at(1, false),
                at(2, true),
                None,
                at(4, false),
                None,
                at(5, false)
            ]
        );
        assert_eq!(
            stamps(parse_statement("UPDATE t SET v = 5 WHERE id = 5").unwrap()),
            vec![at(0, false), at(1, false)]
        );
        // a script's statements count from their own first token
        let mut script = parse_statements("SELECT 1 FROM t; SELECT 2 FROM t").unwrap();
        assert_eq!(stamps(script.remove(1)), vec![at(0, false)]);
    }

    #[test]
    fn parse_create_table_with_constraints() {
        let stmt = parse_statement(
            "CREATE TABLE employees (emp_id INT PRIMARY KEY, name VARCHAR(30) NOT NULL, \
             dept_id INT REFERENCES departments(dept_id), salary DOUBLE, \
             UNIQUE (name), FOREIGN KEY (dept_id) REFERENCES departments (dept_id))",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.name, "employees");
                assert_eq!(ct.columns.len(), 4);
                assert!(ct.columns[0].primary_key);
                assert!(ct.columns[1].not_null);
                assert_eq!(
                    ct.columns[2].references,
                    Some(("departments".into(), "dept_id".into()))
                );
                assert_eq!(ct.constraints.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_create_index() {
        let stmt =
            parse_statement("CREATE UNIQUE INDEX i_emp ON employees (emp_id, dept_id)").unwrap();
        match stmt {
            Statement::CreateIndex(ci) => {
                assert!(ci.unique);
                assert_eq!(ci.columns, vec!["emp_id", "dept_id"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_insert_multi_row() {
        let stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").unwrap();
        match stmt {
            Statement::Insert(ins) => {
                assert_eq!(ins.rows.len(), 2);
                assert_eq!(ins.columns.as_ref().unwrap().len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_update_delete_and_txn_control() {
        let stmt = parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE id = 3").unwrap();
        match stmt {
            Statement::Update(u) => {
                assert_eq!(u.table, "t");
                assert_eq!(u.sets.len(), 2);
                assert_eq!(u.sets[0].0, "a");
                assert!(u.filter.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        let stmt = parse_statement("DELETE FROM t WHERE id = 3").unwrap();
        match stmt {
            Statement::Delete(d) => {
                assert_eq!(d.table, "t");
                assert!(d.filter.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(
            parse_statement("BEGIN TRANSACTION").unwrap(),
            Statement::Begin
        );
        assert_eq!(parse_statement("COMMIT;").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("ROLLBACK").unwrap(), Statement::Rollback);
        // DELETE without FROM is rejected
        assert!(parse_statement("DELETE t").is_err());
        // a full-table UPDATE/DELETE parses with no filter
        match parse_statement("DELETE FROM t").unwrap() {
            Statement::Delete(d) => assert!(d.filter.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_script() {
        let stmts =
            parse_statements("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn parse_order_by_variants() {
        let q = parse_query("SELECT a FROM t ORDER BY a DESC NULLS FIRST, b ASC").unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].desc);
        assert_eq!(q.order_by[0].nulls_first, Some(true));
        assert!(!q.order_by[1].desc);
    }

    #[test]
    fn parse_paper_q1() {
        // The paper's running example query (completed — the printed text
        // truncates the second subquery).
        let q = parse_query(
            "SELECT e1.employee_name, j.job_title \
             FROM employees e1, job_history j \
             WHERE e1.emp_id = j.emp_id AND j.start_date > 19980101 AND \
                   e1.salary > (SELECT AVG(e2.salary) FROM employees e2 \
                                WHERE e2.dept_id = e1.dept_id) AND \
                   e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l \
                                  WHERE d.loc_id = l.loc_id AND l.country_id = 'US')",
        )
        .unwrap();
        match q.body {
            SetExpr::Select(s) => {
                assert_eq!(s.from.len(), 2);
                // WHERE is a conjunction containing a scalar subquery
                // comparison and an IN subquery.
                let mut subqueries = 0;
                s.where_clause.as_ref().unwrap().walk(&mut |e| {
                    if matches!(e, Expr::ScalarSubquery(_) | Expr::InSubquery { .. }) {
                        subqueries += 1;
                    }
                });
                assert_eq!(subqueries, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_query("SELECT FROM t").is_err());
        assert!(parse_query("SELECT a FROM").is_err());
        assert!(parse_query("SELECT a FROM (SELECT b FROM t)").is_err()); // missing alias
        assert!(parse_expression("a NOT 5").is_err());
        assert!(parse_statement("CREATE VIEW v AS SELECT 1").is_err());
    }

    #[test]
    fn alias_not_stolen_by_keyword() {
        let s = sel("SELECT a FROM t WHERE a = 1");
        assert_eq!(s.from[0].binding_name(), Some("t"));
        let s = sel("SELECT a value FROM t");
        assert!(matches!(&s.items[0], SelectItem::Expr { alias: Some(a), .. } if a == "value"));
    }

    #[test]
    fn parse_count_star_and_distinct_agg() {
        let e = parse_expression("COUNT(*)").unwrap();
        assert!(
            matches!(e, Expr::Func { ref name, ref args, .. } if name == "COUNT" && args.is_empty())
        );
        let e = parse_expression("COUNT(DISTINCT x)").unwrap();
        assert!(matches!(e, Expr::Func { distinct: true, .. }));
    }

    #[test]
    fn parse_wildcards() {
        let s = sel("SELECT *, e.* FROM employees e");
        assert!(matches!(s.items[0], SelectItem::Wildcard));
        assert!(matches!(&s.items[1], SelectItem::QualifiedWildcard(q) if q == "e"));
    }
}
