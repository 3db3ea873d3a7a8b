//! Query-graph model (QGM): the engine's *query tree*.
//!
//! Following the paper (§2), transformations operate on **query trees**,
//! which "retain all the declarativeness of SQL" — not on physical
//! operator trees. A [`QueryTree`] is an arena of [`QueryBlock`]s; each
//! SELECT block keeps its tables, WHERE conjuncts, GROUP BY, HAVING and
//! select list in declarative form. Subqueries and views are references
//! to other blocks in the arena, so a *deep copy* of the whole tree (the
//! framework requirement of §3.1) is a plain `clone()`.
//!
//! Two representation choices make transformations tractable:
//!
//! * every table reference carries a tree-unique [`RefId`]; column
//!   references name `(RefId, column)` pairs, so moving a table from a
//!   subquery into its parent block (unnesting, view merging) requires no
//!   rewriting of unrelated expressions, and *correlation* is simply a
//!   reference to a `RefId` declared in an enclosing block;
//! * semijoins, antijoins, outer joins and lateral (JPPD) views are
//!   *annotations on table references* ([`JoinInfo`]), which is exactly
//!   how they constrain the physical optimizer: a partial order on the
//!   join permutation (§2.1.1, §2.2.3).

pub mod binds;
pub mod build;
pub mod fingerprint;
pub mod model;
pub mod render;

pub use binds::{collect_base_tables, collect_bind_sites, BindSite, BindSiteOp};
pub use build::{build_query_tree, build_query_tree_with_binds};
pub use model::*;
pub use render::render_tree;
