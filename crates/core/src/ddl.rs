//! The statements that rewrite the catalog — CREATE TABLE, CREATE
//! INDEX, ANALYZE — and therefore need `&mut Database`.

use crate::dml::column_named;
use crate::serve::statement_kind;
use crate::{Database, StatementResult};
use cbqt_catalog::{Column, Constraint, ForeignKey};
use cbqt_common::{Error, Result};
use cbqt_sql::ast::{self, Statement};

impl Database {
    /// Runs a DDL statement or ANALYZE. They rewrite shared catalog
    /// state that open snapshots may be reading through, so they only
    /// run between transactions.
    pub(crate) fn run_ddl(&mut self, stmt: Statement) -> Result<StatementResult> {
        if self.scope().open_txn().is_some() {
            return Err(Error::unsupported(format!(
                "{} cannot run inside an open transaction; COMMIT or ROLLBACK first",
                statement_kind(&stmt)
            )));
        }
        match stmt {
            Statement::Analyze => self.analyze().map(|()| StatementResult::Analyzed),
            Statement::CreateTable(ct) => self.create_table(ct).map(|()| StatementResult::Ddl),
            Statement::CreateIndex(ci) => self.create_index(ci).map(|()| StatementResult::Ddl),
            other => unreachable!("{} is not DDL", statement_kind(&other)),
        }
    }

    /// Recomputes optimizer statistics from the stored data.
    pub fn analyze(&mut self) -> Result<()> {
        self.storage.analyze(&mut self.catalog)
    }

    fn create_table(&mut self, ct: ast::CreateTable) -> Result<()> {
        let cols = &ct.columns;
        let columns = cols.iter().map(|c| Column {
            name: c.name.clone(),
            data_type: c.data_type,
            not_null: c.not_null || c.primary_key,
        });
        let mut constraints = Vec::new();
        let pk_cols: Vec<usize> = (0..cols.len()).filter(|&i| cols[i].primary_key).collect();
        if !pk_cols.is_empty() {
            constraints.push(Constraint::PrimaryKey(pk_cols));
        }
        let unique_cols = (0..cols.len()).filter(|&i| cols[i].unique);
        constraints.extend(unique_cols.map(|i| Constraint::Unique(vec![i])));
        let col_indexes = |names: &[String]| -> Result<Vec<usize>> {
            names
                .iter()
                .map(|name| {
                    ct.columns
                        .iter()
                        .position(|c| c.name.eq_ignore_ascii_case(name))
                        .ok_or_else(|| Error::catalog(format!("unknown column {name}")))
                })
                .collect()
        };
        // the parent resolves before the referencing columns do
        let foreign_key = |columns: &dyn Fn() -> Result<Vec<usize>>,
                           parent: &str,
                           parent_columns: &[String]|
         -> Result<Constraint> {
            let parent_t = self
                .catalog
                .table_by_name(parent)
                .ok_or_else(|| Error::catalog(format!("unknown parent table {parent}")))?;
            let parent_columns = parent_columns
                .iter()
                .map(|c| {
                    parent_t
                        .column_index(c)
                        .ok_or_else(|| Error::catalog(format!("unknown parent column {c}")))
                })
                .collect::<Result<_>>()?;
            Ok(Constraint::ForeignKey(ForeignKey {
                columns: columns()?,
                parent: parent_t.id,
                parent_columns,
            }))
        };
        for tc in &ct.constraints {
            constraints.push(match tc {
                ast::TableConstraint::PrimaryKey(cols) => {
                    Constraint::PrimaryKey(col_indexes(cols)?)
                }
                ast::TableConstraint::Unique(cols) => Constraint::Unique(col_indexes(cols)?),
                ast::TableConstraint::ForeignKey {
                    columns,
                    parent,
                    parent_columns,
                } => foreign_key(&|| col_indexes(columns), parent, parent_columns)?,
            });
        }
        for (i, c) in ct.columns.iter().enumerate() {
            if let Some((parent, pcol)) = &c.references {
                let pcol = std::slice::from_ref(pcol);
                constraints.push(foreign_key(&|| Ok(vec![i]), parent, pcol)?);
            }
        }
        let tid = self
            .catalog
            .add_table(&ct.name, columns.collect(), constraints)?;
        self.storage.create_table(tid);
        // primary keys get an index automatically (like Oracle)
        if let Some(pk) = self.catalog.table(tid)?.primary_key().map(|p| p.to_vec()) {
            let name = format!("pk_{}", ct.name.to_ascii_lowercase());
            let ix = self.catalog.add_index(&name, tid, pk.clone(), true)?;
            self.storage.build_index(ix, tid, pk)?;
        }
        Ok(())
    }

    fn create_index(&mut self, ci: ast::CreateIndex) -> Result<()> {
        let t = self.table_named(&ci.table)?;
        let tid = t.id;
        let cols: Vec<usize> = ci
            .columns
            .iter()
            .map(|c| column_named(t, c))
            .collect::<Result<_>>()?;
        let ix = self
            .catalog
            .add_index(&ci.name, tid, cols.clone(), ci.unique)?;
        self.storage.build_index(ix, tid, cols)?;
        Ok(())
    }
}
