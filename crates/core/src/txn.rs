//! Transaction control over a [`Scope`]'s slot: BEGIN / COMMIT /
//! ROLLBACK, and the write bracket every DML statement runs in.

use crate::serve::{catch_internal, Scope};
use crate::Database;
use cbqt_common::{Error, Result, TraceEvent, Tracer};
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a transaction slot, recovering from poisoning: a slot holds a
/// plain `Option<u64>`, always valid whatever statement panicked while
/// it was held.
fn lock_slot(slot: &Mutex<Option<u64>>) -> MutexGuard<'_, Option<u64>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Scope<'_> {
    /// The transaction open in this scope's slot, if any.
    pub(crate) fn open_txn(self) -> Option<u64> {
        *lock_slot(self.slot)
    }

    pub(crate) fn begin(self, tracer: Tracer<'_>) -> Result<()> {
        let mut s = lock_slot(self.slot);
        if s.is_some() {
            return Err(Error::analysis(
                "a transaction is already open; COMMIT or ROLLBACK it first",
            ));
        }
        let (txn, snapshot) = self.db.storage.begin();
        *s = Some(txn);
        drop(s);
        tracer.emit(|| TraceEvent::TxnBegin { txn, snapshot });
        Ok(())
    }

    /// COMMIT of the slot's open transaction (no-op without one). A
    /// fault or contained panic on the publish path aborts the whole
    /// transaction — commit is atomic: either every version becomes
    /// visible at the new watermark, or none does.
    pub(crate) fn commit(self, tracer: Tracer<'_>) -> Result<()> {
        match lock_slot(self.slot).take() {
            Some(txn) => self.db.commit_txn(txn, tracer),
            None => Ok(()),
        }
    }

    /// ROLLBACK of the slot's open transaction (no-op without one);
    /// infallible — abort paths must never fail.
    pub(crate) fn rollback(self, tracer: Tracer<'_>) -> Result<()> {
        if let Some(txn) = lock_slot(self.slot).take() {
            self.db.abort_txn(txn, tracer);
        }
        Ok(())
    }

    /// Runs `f` with write access under the slot's open transaction, or
    /// — outside an explicit transaction — under a fresh auto-commit
    /// transaction that commits on success. Any error or contained
    /// panic in `f` (or on the commit publish path) rolls the whole
    /// transaction back, restoring exactly the pre-transaction state;
    /// for an explicit transaction that aborts the open transaction,
    /// matching the first-updater-wins contract (the losing side of a
    /// write conflict must release its claims immediately, not at some
    /// later COMMIT).
    pub(crate) fn with_write_txn<T>(
        self,
        tracer: Tracer<'_>,
        f: impl FnOnce(u64) -> Result<T>,
    ) -> Result<T> {
        let open = self.open_txn();
        let txn = open.unwrap_or_else(|| {
            let (txn, snapshot) = self.db.storage.begin();
            tracer.emit(|| TraceEvent::TxnBegin { txn, snapshot });
            txn
        });
        match catch_internal(AssertUnwindSafe(|| f(txn))) {
            Ok(v) => {
                if open.is_none() {
                    self.db.commit_txn(txn, tracer)?;
                }
                Ok(v)
            }
            Err(e) => {
                if open.is_some() {
                    lock_slot(self.slot).take();
                }
                self.db.abort_txn(txn, tracer);
                Err(e)
            }
        }
    }
}

impl Database {
    fn commit_txn(&self, txn: u64, tracer: Tracer<'_>) -> Result<()> {
        match catch_internal(AssertUnwindSafe(|| self.storage.commit(txn))) {
            Ok(info) => {
                // data versions and live counts move at commit, and only
                // at commit: feedback observed before the writes became
                // visible goes stale, and cached plans over the written
                // tables are re-checked against the new row counts
                for &(t, live) in &info.tables {
                    self.catalog.record_commit(t, live as u64);
                }
                tracer.emit(|| TraceEvent::TxnCommit {
                    txn,
                    watermark: info.watermark,
                    versions: info.versions,
                });
                Ok(())
            }
            Err(e) => {
                self.abort_txn(txn, tracer);
                Err(e)
            }
        }
    }

    fn abort_txn(&self, txn: u64, tracer: Tracer<'_>) {
        let versions = self.storage.rollback(txn);
        tracer.emit(|| TraceEvent::TxnRollback { txn, versions });
    }
}
