//! SQL frontend: lexer, abstract syntax tree, and a recursive-descent
//! parser for the SQL dialect the CBQT engine understands.
//!
//! The dialect covers everything the paper's transformations need:
//! `SELECT` with comma joins and ANSI `JOIN ... ON`, nested subqueries
//! (`EXISTS`, `IN`, `ANY`/`ALL`, scalar), set operators (`UNION [ALL]`,
//! `INTERSECT`, `MINUS`), `GROUP BY [ROLLUP]` / `HAVING`, `DISTINCT`,
//! `ORDER BY`, window functions (`OVER (PARTITION BY ... ORDER BY ...)`),
//! Oracle-style `ROWNUM`, plus the DDL/DML needed to build test databases
//! (`CREATE TABLE` with PK/FK/UNIQUE/NOT NULL constraints, `CREATE
//! [UNIQUE] INDEX`, `INSERT ... VALUES`).

pub mod ast;
pub mod binds;
pub mod lexer;
pub mod parser;
pub mod render;
pub mod shape;

pub use ast::*;
pub use binds::{count_params, parameterize, parameterize_dml_target, Parameterized};
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{
    parse_expression, parse_query, parse_statement, parse_statements, parse_statements_spanned,
};
pub use render::render_query;
pub use shape::{Dml, Recipe, RecipeKind, Shape};
