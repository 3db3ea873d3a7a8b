//! Schema objects: tables, columns, indexes, constraints.

use crate::stats::TableStats;
use cbqt_common::hash::HashMap;
use cbqt_common::{DataType, Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies a table in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifies an index in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexId(pub u32);

/// `(table, column ordinal)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    pub table: TableId,
    pub column: usize,
}

/// Column metadata.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub data_type: DataType,
    pub not_null: bool,
}

/// A foreign-key constraint: `columns` of the child table reference
/// `parent_columns` of `parent`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    pub columns: Vec<usize>,
    pub parent: TableId,
    pub parent_columns: Vec<usize>,
}

/// Table-level constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    PrimaryKey(Vec<usize>),
    Unique(Vec<usize>),
    ForeignKey(ForeignKey),
}

/// Secondary index metadata. All indexes are multi-column B-trees; the
/// storage layer maintains the actual structures.
#[derive(Debug, Clone)]
pub struct Index {
    pub id: IndexId,
    pub name: String,
    pub table: TableId,
    pub columns: Vec<usize>,
    pub unique: bool,
}

/// Table metadata.
#[derive(Debug)]
pub struct Table {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<Column>,
    pub constraints: Vec<Constraint>,
    pub stats: TableStats,
    /// Shape counter (see [`Catalog::shape_version`]).
    shape: AtomicU64,
    /// Data counter (see [`Catalog::table_version`]). Atomic, like
    /// `live`, so a committing transaction can publish through a shared
    /// `&Catalog`: commits must not need exclusive catalog access, or
    /// readers would block on writers.
    data: AtomicU64,
    /// Committed live rows as of the last commit that wrote this table
    /// (see [`Catalog::live_rows`]).
    live: AtomicU64,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            id: self.id,
            name: self.name.clone(),
            columns: self.columns.clone(),
            constraints: self.constraints.clone(),
            stats: self.stats.clone(),
            shape: AtomicU64::new(self.shape.load(Ordering::SeqCst)),
            data: AtomicU64::new(self.data.load(Ordering::SeqCst)),
            live: AtomicU64::new(self.live.load(Ordering::SeqCst)),
        }
    }
}

impl Table {
    /// Finds a column ordinal by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// The primary-key column set, if declared.
    pub fn primary_key(&self) -> Option<&[usize]> {
        self.constraints.iter().find_map(|c| match c {
            Constraint::PrimaryKey(cols) => Some(cols.as_slice()),
            _ => None,
        })
    }

    /// True if `cols` is declared unique (as a PK or UNIQUE constraint,
    /// in any column order).
    pub fn is_unique_key(&self, cols: &[usize]) -> bool {
        self.constraints.iter().any(|c| match c {
            Constraint::PrimaryKey(k) | Constraint::Unique(k) => {
                // a superset of a unique key is still unique
                k.iter().all(|c| cols.contains(c))
            }
            Constraint::ForeignKey(_) => false,
        })
    }

    /// Foreign keys declared on this table.
    pub fn foreign_keys(&self) -> impl Iterator<Item = &ForeignKey> {
        self.constraints.iter().filter_map(|c| match c {
            Constraint::ForeignKey(fk) => Some(fk),
            _ => None,
        })
    }
}

/// The system catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
    indexes: Vec<Index>,
    /// Monotonic schema/statistics version (see [`Catalog::version`]).
    version: AtomicU64,
}

impl Clone for Catalog {
    fn clone(&self) -> Catalog {
        Catalog {
            tables: self.tables.clone(),
            by_name: self.by_name.clone(),
            indexes: self.indexes.clone(),
            version: AtomicU64::new(self.version.load(Ordering::SeqCst)),
        }
    }
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// The catalog's monotonic version counter: bumped by every DDL
    /// (table/index creation) and every mutable table access (the path
    /// statistics updates take) — the sum of every table's shape
    /// changes. Commits do not move it. Shown in plan-cache trace
    /// events; validation uses the per-table counters.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// The per-table *shape* counter: bumped when this table is
    /// created, gains an index or is accessed mutably (the path ANALYZE
    /// takes), and untouched by commits and by changes to other tables.
    /// A cached plan is valid only while the shape of every table it
    /// reads is the one it was compiled against. Unknown ids report 0.
    pub fn shape_version(&self, id: TableId) -> u64 {
        self.tables
            .get(id.0 as usize)
            .map_or(0, |t| t.shape.load(Ordering::SeqCst))
    }

    /// The per-table *data* counter: bumped by every commit that writes
    /// this table and by every shape change, so it moves whenever
    /// anything about the table does. The feedback store keys its
    /// observations on it: an observed cardinality is served only while
    /// the table is exactly as it was when the scan ran. Plans do not
    /// key on it (see [`shape_version`](Catalog::shape_version) and
    /// [`live_rows`](Catalog::live_rows)). Unknown ids report 0.
    pub fn table_version(&self, id: TableId) -> u64 {
        self.tables
            .get(id.0 as usize)
            .map_or(0, |t| t.data.load(Ordering::SeqCst))
    }

    /// Committed live rows of a table as published by the last commit
    /// that wrote it — one atomic load, cheap enough for every plan-cache
    /// probe. Two concurrent commits may publish out of order, so this
    /// is a planning hint, not a count to answer queries from; the next
    /// commit to the table corrects it. Unknown ids report 0.
    pub fn live_rows(&self, id: TableId) -> u64 {
        self.tables
            .get(id.0 as usize)
            .map_or(0, |t| t.live.load(Ordering::SeqCst))
    }

    /// Publishes a commit that wrote table `id`: its committed live row
    /// count afterwards, and a data-version bump. Takes `&self`: the
    /// counters are atomic so a committing transaction needs no
    /// exclusive catalog access. The shape is untouched.
    pub fn record_commit(&self, id: TableId, live_rows: u64) {
        if let Some(t) = self.tables.get(id.0 as usize) {
            t.live.store(live_rows, Ordering::SeqCst);
            t.data.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A shape change of one table: its shape and data counters and the
    /// global counter all move.
    fn bump_shape(&self, t: &Table) {
        t.shape.fetch_add(1, Ordering::SeqCst);
        t.data.fetch_add(1, Ordering::SeqCst);
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Registers a table; fails on duplicate name.
    pub fn add_table(
        &mut self,
        name: &str,
        columns: Vec<Column>,
        constraints: Vec<Constraint>,
    ) -> Result<TableId> {
        let key = name.to_ascii_lowercase();
        if self.by_name.contains_key(&key) {
            return Err(Error::catalog(format!("table {name} already exists")));
        }
        let id = TableId(self.tables.len() as u32);
        for c in &constraints {
            self.validate_constraint(id, columns.len(), c)?;
        }
        self.tables.push(Table {
            id,
            name: name.to_string(),
            columns,
            constraints,
            stats: TableStats::default(),
            shape: AtomicU64::new(0),
            data: AtomicU64::new(0),
            live: AtomicU64::new(0),
        });
        self.by_name.insert(key, id);
        self.version.fetch_add(1, Ordering::SeqCst);
        Ok(id)
    }

    fn validate_constraint(&self, _id: TableId, ncols: usize, c: &Constraint) -> Result<()> {
        let check = |cols: &[usize]| -> Result<()> {
            if cols.iter().any(|&c| c >= ncols) {
                return Err(Error::catalog("constraint references unknown column"));
            }
            Ok(())
        };
        match c {
            Constraint::PrimaryKey(cols) | Constraint::Unique(cols) => check(cols),
            Constraint::ForeignKey(fk) => {
                check(&fk.columns)?;
                let parent = self.table(fk.parent)?;
                if fk.parent_columns.iter().any(|&c| c >= parent.columns.len()) {
                    return Err(Error::catalog(
                        "foreign key references unknown parent column",
                    ));
                }
                if fk.columns.len() != fk.parent_columns.len() {
                    return Err(Error::catalog("foreign key arity mismatch"));
                }
                Ok(())
            }
        }
    }

    /// Registers an index over existing columns; fails on duplicates.
    pub fn add_index(
        &mut self,
        name: &str,
        table: TableId,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<IndexId> {
        if self
            .indexes
            .iter()
            .any(|i| i.name.eq_ignore_ascii_case(name))
        {
            return Err(Error::catalog(format!("index {name} already exists")));
        }
        let t = self.table(table)?;
        if columns.is_empty() || columns.iter().any(|&c| c >= t.columns.len()) {
            return Err(Error::catalog("index references unknown column"));
        }
        let id = IndexId(self.indexes.len() as u32);
        self.indexes.push(Index {
            id,
            name: name.to_string(),
            table,
            columns,
            unique,
        });
        // an index changes what plans are possible on *this* table only
        self.bump_shape(&self.tables[table.0 as usize]);
        Ok(id)
    }

    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.tables
            .get(id.0 as usize)
            .ok_or_else(|| Error::catalog(format!("unknown table id {}", id.0)))
    }

    /// Mutable table access — the path statistics recomputation takes,
    /// so it conservatively counts as a shape change of the accessed
    /// table.
    pub fn table_mut(&mut self, id: TableId) -> Result<&mut Table> {
        self.bump_shape(self.table(id)?);
        Ok(&mut self.tables[id.0 as usize])
    }

    /// The table named `name`, in any case; a name already in lower
    /// case is looked up without a copy.
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        let id = if name.bytes().any(|b| b.is_ascii_uppercase()) {
            self.by_name.get(&name.to_ascii_lowercase())
        } else {
            self.by_name.get(name)
        }?;
        Some(&self.tables[id.0 as usize])
    }

    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    pub fn indexes(&self) -> impl Iterator<Item = &Index> {
        self.indexes.iter()
    }

    /// All indexes on a given table.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &Index> {
        self.indexes.iter().filter(move |i| i.table == table)
    }

    /// Finds an index whose leading column(s) match `cols` exactly as a
    /// prefix, preferring unique indexes and longer prefixes.
    pub fn best_index_for(&self, table: TableId, cols: &[usize]) -> Option<&Index> {
        self.indexes_on(table)
            .filter(|ix| {
                let n = ix.columns.len().min(cols.len());
                n > 0 && ix.columns[..n].iter().all(|c| cols.contains(c))
            })
            .max_by_key(|ix| {
                let prefix = ix.columns.iter().take_while(|c| cols.contains(c)).count();
                // on ties prefer unique, then the narrower index
                (prefix, ix.unique, std::cmp::Reverse(ix.columns.len()))
            })
    }

    /// True if there is any index whose *leading* column is `col` — the
    /// condition the paper's pre-10g heuristic unnesting rule checks.
    pub fn has_index_with_leading(&self, table: TableId, col: usize) -> bool {
        self.indexes_on(table)
            .any(|ix| ix.columns.first() == Some(&col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbqt_common::DataType;

    fn col(name: &str) -> Column {
        Column {
            name: name.into(),
            data_type: DataType::Int,
            not_null: false,
        }
    }

    fn sample() -> (Catalog, TableId, TableId) {
        let mut cat = Catalog::new();
        let dept = cat
            .add_table(
                "departments",
                vec![col("dept_id"), col("name")],
                vec![Constraint::PrimaryKey(vec![0])],
            )
            .unwrap();
        let emp = cat
            .add_table(
                "employees",
                vec![col("emp_id"), col("dept_id"), col("salary")],
                vec![
                    Constraint::PrimaryKey(vec![0]),
                    Constraint::ForeignKey(ForeignKey {
                        columns: vec![1],
                        parent: dept,
                        parent_columns: vec![0],
                    }),
                ],
            )
            .unwrap();
        (cat, dept, emp)
    }

    #[test]
    fn add_and_lookup_table() {
        let (cat, dept, _) = sample();
        assert_eq!(cat.table_by_name("DEPARTMENTS").unwrap().id, dept);
        assert!(cat.table_by_name("missing").is_none());
        assert_eq!(cat.table(dept).unwrap().column_index("NAME"), Some(1));
    }

    #[test]
    fn duplicate_table_rejected() {
        let (mut cat, _, _) = sample();
        assert!(cat.add_table("Employees", vec![col("x")], vec![]).is_err());
    }

    #[test]
    fn constraint_validation() {
        let mut cat = Catalog::new();
        assert!(cat
            .add_table("t", vec![col("a")], vec![Constraint::PrimaryKey(vec![3])])
            .is_err());
    }

    #[test]
    fn fk_arity_checked() {
        let (mut cat, dept, _) = sample();
        let bad = Constraint::ForeignKey(ForeignKey {
            columns: vec![0],
            parent: dept,
            parent_columns: vec![0, 1],
        });
        assert!(cat.add_table("bad", vec![col("a")], vec![bad]).is_err());
    }

    #[test]
    fn unique_key_recognition() {
        let (cat, dept, emp) = sample();
        let d = cat.table(dept).unwrap();
        assert!(d.is_unique_key(&[0]));
        assert!(d.is_unique_key(&[0, 1])); // superset of PK
        assert!(!d.is_unique_key(&[1]));
        let e = cat.table(emp).unwrap();
        assert_eq!(e.foreign_keys().count(), 1);
    }

    #[test]
    fn index_management() {
        let (mut cat, _, emp) = sample();
        let ix = cat.add_index("i_emp_dept", emp, vec![1], false).unwrap();
        assert_eq!(cat.indexes_on(emp).count(), 1);
        assert_eq!(cat.indexes_on(emp).next().unwrap().id, ix);
        assert!(cat.add_index("i_emp_dept", emp, vec![1], false).is_err());
        assert!(cat.add_index("i_bad", emp, vec![9], false).is_err());
        assert!(cat.has_index_with_leading(emp, 1));
        assert!(!cat.has_index_with_leading(emp, 2));
    }

    #[test]
    fn version_bumps_on_ddl_and_mutable_access() {
        let (mut cat, _, emp) = sample();
        let v0 = cat.version();
        cat.add_index("i_emp_dept", emp, vec![1], false).unwrap();
        let v1 = cat.version();
        assert!(v1 > v0);
        // the statistics-update path goes through table_mut
        cat.table_mut(emp).unwrap().stats.rows = 7;
        assert!(cat.version() > v1);
        let v2 = cat.version();
        // read-only access and commits do not bump
        let _ = cat.table(emp).unwrap();
        cat.record_commit(emp, 3);
        assert_eq!(cat.version(), v2);
    }

    #[test]
    fn table_versions_are_independent() {
        let (mut cat, dept, emp) = sample();
        let shapes = |cat: &Catalog| (cat.shape_version(dept), cat.shape_version(emp));
        let datas = |cat: &Catalog| (cat.table_version(dept), cat.table_version(emp));
        let ((ds, es), (dd, ed)) = (shapes(&cat), datas(&cat));
        // a commit moves the written table's data counter and live
        // count, never a shape
        cat.record_commit(emp, 40);
        assert_eq!(shapes(&cat), (ds, es));
        assert_eq!(datas(&cat), (dd, ed + 1));
        assert_eq!((cat.live_rows(dept), cat.live_rows(emp)), (0, 40));
        // statistics updates (table_mut) move the touched table's shape
        // and data counters
        cat.table_mut(dept).unwrap().stats.rows = 3;
        assert_eq!(shapes(&cat), (ds + 1, es));
        assert_eq!(datas(&cat), (dd + 1, ed + 1));
        // an index moves the indexed table only
        cat.add_index("ix", emp, vec![1], false).unwrap();
        assert_eq!(shapes(&cat), (ds + 1, es + 1));
        assert_eq!(datas(&cat), (dd + 1, ed + 2));
        assert_eq!(cat.live_rows(emp), 40);
        assert_eq!(cat.table_version(TableId(99)), 0);
        assert_eq!(cat.shape_version(TableId(99)), 0);
    }

    #[test]
    fn best_index_prefers_longer_prefix_and_unique() {
        let (mut cat, _, emp) = sample();
        cat.add_index("i1", emp, vec![1], false).unwrap();
        cat.add_index("i2", emp, vec![1, 2], false).unwrap();
        let best = cat.best_index_for(emp, &[1, 2]).unwrap();
        assert_eq!(best.name, "i2");
        let best = cat.best_index_for(emp, &[1]).unwrap();
        assert_eq!(best.name, "i1");
        assert!(cat.best_index_for(emp, &[2]).is_none());
    }
}
