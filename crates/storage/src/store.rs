//! MVCC row storage: version heaps, snapshots, and B-tree indexes.
//!
//! Every table is an append-only [`VersionHeap`] of [`RowVersion`]s, each
//! stamped with a `begin` and `end` mark. Marks are either **commit
//! sequence numbers** (small integers `1..TXN_BASE`, allocated when a
//! transaction publishes) or **transaction ids** (`>= TXN_BASE`,
//! identifying an uncommitted writer). A [`Snapshot`] pins the heap
//! `Arc`s plus a commit watermark; a version is visible to a snapshot iff
//! its `begin` mark committed at or before the watermark (or belongs to
//! the snapshot's own transaction) and its `end` mark did not.
//!
//! **Readers never block on writers**: a snapshot is one `Arc` clone of
//! the published table and index maps, taken under the storage mutex and
//! then read lock-free. Writers mutate the maps and the heaps under them
//! through [`Arc::make_mut`] — copy-on-write kicks in only while some
//! snapshot actually pins them, so single-threaded workloads keep
//! in-place appends.
//!
//! Writes follow **first-updater-wins (no-wait)** conflict resolution: an
//! UPDATE/DELETE claims a version by stamping its `end` with the writer's
//! transaction id; finding the version already claimed (or superseded by
//! a later commit) loses immediately — the caller maps that to
//! [`Error::WriteConflict`] and rolls the transaction back. Commit
//! atomically restamps all of a transaction's marks with a fresh commit
//! sequence and advances the watermark under one mutex acquisition, so
//! concurrent snapshots observe either none or all of a transaction.
//!
//! Row ordinals are version-heap positions and stay stable forever (heaps
//! only append); indexes map key tuples to ordinals and only ever gain
//! entries — dead versions are filtered by visibility at read time.

use cbqt_catalog::{Catalog, ColumnStats, Histogram, IndexId, TableId, TableStats};
use cbqt_common::hash::{HashMap, HashSet};
use cbqt_common::{Error, Result, Row, Value};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Marks below this value are commit sequence numbers; marks at or above
/// it are transaction ids of uncommitted writers.
pub const TXN_BASE: u64 = 1 << 48;
/// `begin` mark of a rolled-back insert: never visible to anyone
/// (`ABORTED >= TXN_BASE` and no transaction ever gets this id).
const ABORTED: u64 = u64::MAX;

/// One version of one row.
#[derive(Debug, Clone)]
pub struct RowVersion {
    /// Commit sequence that created this version, or the creating
    /// transaction's id while uncommitted, or `ABORTED`.
    pub begin: u64,
    /// 0 while live; otherwise the commit sequence that deleted this
    /// version, or the deleting transaction's id while uncommitted.
    pub end: u64,
    pub row: Row,
}

/// Append-only heap of row versions for one table.
#[derive(Debug, Default, Clone)]
pub struct VersionHeap {
    versions: Vec<RowVersion>,
    /// Committed, un-deleted versions — O(1) `row_count` for the
    /// statistics sampler.
    live: usize,
}

impl VersionHeap {
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }
}

/// True iff `v` is visible to a snapshot at `watermark` owned by
/// transaction `txn` (0 when the snapshot has no transaction).
fn visible(v: &RowVersion, watermark: u64, txn: u64) -> bool {
    let begin_ok = (v.begin < TXN_BASE && v.begin <= watermark) || (txn != 0 && v.begin == txn);
    if !begin_ok {
        return false;
    }
    let deleted =
        v.end != 0 && ((v.end < TXN_BASE && v.end <= watermark) || (txn != 0 && v.end == txn));
    !deleted
}

/// A multi-column B-tree index mapping key tuples to row ordinals.
///
/// NULL key components are stored (sorted last by `Value`'s total order)
/// but equality probes skip NULL keys, matching SQL index semantics.
/// Entries point at version-heap ordinals and are append-only; callers
/// filter hits through [`SnapTable::visible`].
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    pub table: TableId,
    pub columns: Vec<usize>,
    map: BTreeMap<Vec<Value>, Vec<usize>>,
}

impl BTreeIndex {
    fn key_of(&self, row: &Row) -> Vec<Value> {
        self.columns.iter().map(|&c| row[c].clone()).collect()
    }

    fn insert_key(&mut self, key: Vec<Value>, ordinal: usize) {
        self.map.entry(key).or_default().push(ordinal);
    }

    /// Row ordinals whose key equals `key` (NULL components never match).
    pub fn lookup_eq(&self, key: &[Value]) -> &[usize] {
        if key.iter().any(Value::is_null) {
            return &[];
        }
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Row ordinals whose *leading column* lies in the given bounds.
    /// Only single-column ranges are supported (that is all the planner
    /// generates); NULL keys are excluded.
    pub fn lookup_range(&self, lo: Bound<&Value>, hi: Bound<&Value>, out: &mut Vec<usize>) {
        let lo_key = match lo {
            Bound::Included(v) => Bound::Included(vec![v.clone()]),
            Bound::Excluded(v) => {
                // exclusive lower bound must skip all composite keys with
                // the same leading value, so bump to "value, +inf" — we
                // emulate by including and filtering below
                Bound::Included(vec![v.clone()])
            }
            Bound::Unbounded => Bound::Unbounded,
        };
        let excl_lo = matches!(lo, Bound::Excluded(_));
        for (k, rows) in self.map.range((lo_key, Bound::Unbounded)) {
            let lead = &k[0];
            if lead.is_null() {
                break; // nulls sort last
            }
            if excl_lo {
                if let Bound::Excluded(v) = lo {
                    if lead.sql_eq(v) == Some(true) {
                        continue;
                    }
                }
            }
            match hi {
                Bound::Included(v) => {
                    if lead
                        .sql_cmp(v)
                        .map(|o| o == std::cmp::Ordering::Greater)
                        .unwrap_or(true)
                    {
                        break;
                    }
                }
                Bound::Excluded(v) => {
                    if lead
                        .sql_cmp(v)
                        .map(|o| o != std::cmp::Ordering::Less)
                        .unwrap_or(true)
                    {
                        break;
                    }
                }
                Bound::Unbounded => {}
            }
            out.extend_from_slice(rows);
        }
    }

    /// Number of distinct keys (used to report index statistics; counts
    /// dead versions' keys too — acceptable for an estimate).
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteKind {
    Insert,
    Delete,
}

/// One entry of a transaction's write set: enough to restamp the version
/// at commit or undo the claim at rollback.
#[derive(Debug, Clone, Copy)]
struct Write {
    table: TableId,
    ordinal: usize,
    kind: WriteKind,
}

#[derive(Debug, Clone)]
struct TxnState {
    /// Commit watermark the transaction reads as of.
    snapshot: u64,
    writes: Vec<Write>,
}

/// Every table heap and index structure, published as one unit: a
/// snapshot pins it with one `Arc` clone, and a writer copies the two
/// maps (not the heaps) only while a snapshot still holds them.
#[derive(Debug, Clone, Default)]
struct Published {
    tables: HashMap<TableId, Arc<VersionHeap>>,
    indexes: HashMap<IndexId, Arc<BTreeIndex>>,
}

#[derive(Debug, Clone)]
struct Inner {
    data: Arc<Published>,
    txns: HashMap<u64, TxnState>,
    /// Highest published commit sequence.
    watermark: u64,
    next_txn: u64,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            data: Arc::default(),
            txns: HashMap::default(),
            watermark: 0,
            next_txn: TXN_BASE,
        }
    }
}

/// Lifetime counters for [`Storage::txn_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    pub begun: u64,
    pub committed: u64,
    pub rolled_back: u64,
    pub conflicts: u64,
    /// Whole-heap copies a transactional write, commit or rollback had
    /// to make because a live [`Snapshot`] still pinned the heap.
    pub heap_copies: u64,
    /// Whole-index copies, counted the same way.
    pub index_copies: u64,
}

/// What a successful [`Storage::commit`] published — the caller
/// publishes exactly `tables` to the catalog.
#[derive(Debug, Clone)]
pub struct CommitInfo {
    pub txn: u64,
    /// Commit watermark after publish (unchanged for read-only commits).
    pub watermark: u64,
    /// Row versions published (inserts + delete claims).
    pub versions: usize,
    /// Distinct tables written, in first-write order, each with its
    /// committed live row count after this publish.
    pub tables: Vec<(TableId, usize)>,
}

/// All table heaps and index structures, plus the transaction table.
///
/// Interior mutability throughout: writers and snapshot-takers share a
/// `&Storage`. The single mutex guards only bookkeeping — scans run on
/// pinned `Arc`s outside any lock.
#[derive(Debug, Default)]
pub struct Storage {
    inner: Mutex<Inner>,
    begun: AtomicU64,
    committed: AtomicU64,
    rolled_back: AtomicU64,
    conflicts: AtomicU64,
    heap_copies: AtomicU64,
    index_copies: AtomicU64,
}

/// [`Arc::make_mut`] that counts in `copies` when it has to clone —
/// i.e. when a snapshot still shares the allocation.
fn make_mut_counted<'a, T: Clone>(arc: &'a mut Arc<T>, copies: &AtomicU64) -> &'a mut T {
    if Arc::get_mut(arc).is_none() {
        copies.fetch_add(1, Ordering::Relaxed);
    }
    Arc::make_mut(arc)
}

impl Clone for Storage {
    fn clone(&self) -> Storage {
        Storage {
            inner: Mutex::new(self.lock().clone()),
            begun: AtomicU64::new(self.begun.load(Ordering::Relaxed)),
            committed: AtomicU64::new(self.committed.load(Ordering::Relaxed)),
            rolled_back: AtomicU64::new(self.rolled_back.load(Ordering::Relaxed)),
            conflicts: AtomicU64::new(self.conflicts.load(Ordering::Relaxed)),
            heap_copies: AtomicU64::new(self.heap_copies.load(Ordering::Relaxed)),
            index_copies: AtomicU64::new(self.index_copies.load(Ordering::Relaxed)),
        }
    }
}

impl Storage {
    pub fn new() -> Storage {
        Storage::default()
    }

    /// Poison-recovering lock: an injected panic caught at the `Database`
    /// boundary must never wedge storage. All mutations keep the heaps
    /// structurally consistent at every push/stamp, so recovering the
    /// guard is sound.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Ensures a heap exists for `table`.
    pub fn create_table(&self, table: TableId) {
        let mut g = self.lock();
        Arc::make_mut(&mut g.data).tables.entry(table).or_default();
    }

    /// Pins a read snapshot at the latest commit watermark.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.lock();
        Snapshot {
            watermark: g.watermark,
            txn: 0,
            data: Arc::clone(&g.data),
        }
    }

    /// Pins a snapshot for an open transaction: reads as of the
    /// transaction's begin watermark plus its own uncommitted writes.
    pub fn txn_snapshot(&self, txn: u64) -> Result<Snapshot> {
        let g = self.lock();
        let st = g
            .txns
            .get(&txn)
            .ok_or_else(|| Error::execution(format!("no open transaction {txn}")))?;
        Ok(Snapshot {
            watermark: st.snapshot,
            txn,
            data: Arc::clone(&g.data),
        })
    }

    /// The latest published commit sequence.
    pub fn watermark(&self) -> u64 {
        self.lock().watermark
    }

    /// Committed live rows (what a fresh snapshot would see).
    pub fn row_count(&self, table: TableId) -> usize {
        self.lock().data.tables.get(&table).map_or(0, |h| h.live)
    }

    // -- transactions -------------------------------------------------

    /// Opens a transaction; returns `(txn id, snapshot watermark)`.
    pub fn begin(&self) -> (u64, u64) {
        let mut g = self.lock();
        let txn = g.next_txn;
        g.next_txn += 1;
        let snapshot = g.watermark;
        g.txns.insert(
            txn,
            TxnState {
                snapshot,
                writes: Vec::new(),
            },
        );
        self.begun.fetch_add(1, Ordering::Relaxed);
        (txn, snapshot)
    }

    /// True iff `txn` is open (neither committed nor rolled back).
    pub fn txn_open(&self, txn: u64) -> bool {
        self.lock().txns.contains_key(&txn)
    }

    /// Appends an uncommitted row version for `txn`. The version is
    /// visible only to `txn` until commit. The failpoint fires before
    /// any mutation, so an injected fault leaves storage untouched.
    pub fn write_version(&self, txn: u64, table: TableId, row: Row) -> Result<()> {
        cbqt_common::failpoint!(cbqt_common::failpoint::STORAGE_WRITE_VERSION);
        let mut g = self.lock();
        let inner = &mut *g;
        if !inner.txns.contains_key(&txn) {
            return Err(Error::execution(format!("no open transaction {txn}")));
        }
        let data = Arc::make_mut(&mut inner.data);
        let heap = make_mut_counted(data.tables.entry(table).or_default(), &self.heap_copies);
        let ordinal = heap.versions.len();
        for ix_arc in data.indexes.values_mut() {
            if ix_arc.table == table {
                let ix = make_mut_counted(ix_arc, &self.index_copies);
                let key = ix.key_of(&row);
                ix.insert_key(key, ordinal);
            }
        }
        heap.versions.push(RowVersion {
            begin: txn,
            end: 0,
            row,
        });
        inner.txns.get_mut(&txn).unwrap().writes.push(Write {
            table,
            ordinal,
            kind: WriteKind::Insert,
        });
        Ok(())
    }

    /// First-updater-wins delete claim: stamps the version's `end` with
    /// `txn`. Returns `Ok(None)` when claimed, `Ok(Some(winner))` when a
    /// concurrent writer (or a commit after this transaction's snapshot)
    /// got there first — the caller maps that to
    /// [`Error::WriteConflict`] and aborts.
    pub fn try_delete_version(
        &self,
        txn: u64,
        table: TableId,
        ordinal: usize,
    ) -> Result<Option<u64>> {
        cbqt_common::failpoint!(cbqt_common::failpoint::TXN_CONFLICT_CHECK);
        let mut g = self.lock();
        let inner = &mut *g;
        if !inner.txns.contains_key(&txn) {
            return Err(Error::execution(format!("no open transaction {txn}")));
        }
        let current_end = inner
            .data
            .tables
            .get(&table)
            .ok_or_else(|| Error::execution(format!("no data for table id {}", table.0)))?
            .versions
            .get(ordinal)
            .ok_or_else(|| Error::execution(format!("no row version at ordinal {ordinal}")))?
            .end;
        match current_end {
            0 => {
                let heap_arc = Arc::make_mut(&mut inner.data).tables.get_mut(&table);
                let heap = make_mut_counted(heap_arc.expect("checked above"), &self.heap_copies);
                heap.versions[ordinal].end = txn;
                inner.txns.get_mut(&txn).unwrap().writes.push(Write {
                    table,
                    ordinal,
                    kind: WriteKind::Delete,
                });
                Ok(None)
            }
            end if end == txn => Ok(None), // already claimed by us
            winner => {
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                Ok(Some(winner))
            }
        }
    }

    /// Atomically publishes `txn`: restamps every written version with a
    /// fresh commit sequence and advances the watermark, all under one
    /// lock acquisition — snapshots see none or all of the transaction.
    /// The failpoint fires before the lock, so an injected fault aborts
    /// the transaction whole (the caller rolls back).
    pub fn commit(&self, txn: u64) -> Result<CommitInfo> {
        cbqt_common::failpoint!(cbqt_common::failpoint::STORAGE_COMMIT_PUBLISH);
        let mut g = self.lock();
        let inner = &mut *g;
        let st = inner
            .txns
            .remove(&txn)
            .ok_or_else(|| Error::execution(format!("no open transaction {txn}")))?;
        self.committed.fetch_add(1, Ordering::Relaxed);
        if st.writes.is_empty() {
            return Ok(CommitInfo {
                txn,
                watermark: inner.watermark,
                versions: 0,
                tables: Vec::new(),
            });
        }
        let seq = inner.watermark + 1;
        let mut tables: Vec<(TableId, usize)> = Vec::new();
        let data = Arc::make_mut(&mut inner.data);
        for w in &st.writes {
            if !tables.iter().any(|&(t, _)| t == w.table) {
                tables.push((w.table, 0));
            }
            let heap = make_mut_counted(
                data.tables.get_mut(&w.table).expect("written table"),
                &self.heap_copies,
            );
            let v = &mut heap.versions[w.ordinal];
            match w.kind {
                WriteKind::Insert => {
                    if v.begin == txn {
                        v.begin = seq;
                        heap.live += 1;
                    }
                }
                WriteKind::Delete => {
                    if v.end == txn {
                        v.end = seq;
                        heap.live -= 1;
                    }
                }
            }
        }
        inner.watermark = seq;
        for (t, live) in &mut tables {
            *live = data.tables[t].live;
        }
        Ok(CommitInfo {
            txn,
            watermark: seq,
            versions: st.writes.len(),
            tables,
        })
    }

    /// Discards `txn`: marks its inserts aborted and releases its delete
    /// claims. Infallible and idempotent (rolling back an unknown or
    /// already-closed transaction is a no-op) — abort paths must never
    /// fail. Returns the number of versions discarded.
    pub fn rollback(&self, txn: u64) -> usize {
        let mut g = self.lock();
        let inner = &mut *g;
        let Some(st) = inner.txns.remove(&txn) else {
            return 0;
        };
        self.rolled_back.fetch_add(1, Ordering::Relaxed);
        if st.writes.is_empty() {
            return 0;
        }
        let data = Arc::make_mut(&mut inner.data);
        for w in &st.writes {
            let heap = make_mut_counted(
                data.tables.get_mut(&w.table).expect("written table"),
                &self.heap_copies,
            );
            let v = &mut heap.versions[w.ordinal];
            match w.kind {
                WriteKind::Insert => {
                    if v.begin == txn {
                        v.begin = ABORTED;
                    }
                }
                WriteKind::Delete => {
                    if v.end == txn {
                        v.end = 0;
                    }
                }
            }
        }
        st.writes.len()
    }

    /// Lifetime transaction counters.
    pub fn txn_stats(&self) -> TxnStats {
        TxnStats {
            begun: self.begun.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            rolled_back: self.rolled_back.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            heap_copies: self.heap_copies.load(Ordering::Relaxed),
            index_copies: self.index_copies.load(Ordering::Relaxed),
        }
    }

    // -- autocommit conveniences --------------------------------------

    /// Appends a committed row (an implicit single-row transaction).
    pub fn insert(&self, table: TableId, row: Row) -> Result<()> {
        self.insert_many(table, vec![row])
    }

    /// Bulk-appends committed rows under one commit sequence.
    pub fn insert_many(&self, table: TableId, rows: Vec<Row>) -> Result<()> {
        cbqt_common::failpoint!(cbqt_common::failpoint::STORAGE_WRITE_VERSION);
        let mut g = self.lock();
        let inner = &mut *g;
        let seq = inner.watermark + 1;
        let data = Arc::make_mut(&mut inner.data);
        let heap = Arc::make_mut(data.tables.entry(table).or_default());
        for row in rows {
            let ordinal = heap.versions.len();
            for ix_arc in data.indexes.values_mut() {
                if ix_arc.table == table {
                    let ix = Arc::make_mut(ix_arc);
                    let key = ix.key_of(&row);
                    ix.insert_key(key, ordinal);
                }
            }
            heap.versions.push(RowVersion {
                begin: seq,
                end: 0,
                row,
            });
            heap.live += 1;
        }
        inner.watermark = seq;
        Ok(())
    }

    /// Builds (or rebuilds) the physical structure for a catalog index
    /// over every version in the heap (dead versions' keys are harmless:
    /// visibility filtering drops their ordinals at read time).
    pub fn build_index(&self, id: IndexId, table: TableId, columns: Vec<usize>) -> Result<()> {
        let mut g = self.lock();
        let inner = &mut *g;
        let heap = inner
            .data
            .tables
            .get(&table)
            .ok_or_else(|| Error::execution(format!("no data for table id {}", table.0)))?;
        let mut map: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
        for (ordinal, v) in heap.versions.iter().enumerate() {
            let key: Vec<Value> = columns.iter().map(|&c| v.row[c].clone()).collect();
            map.entry(key).or_default().push(ordinal);
        }
        Arc::make_mut(&mut inner.data).indexes.insert(
            id,
            Arc::new(BTreeIndex {
                table,
                columns,
                map,
            }),
        );
        Ok(())
    }

    /// Recomputes optimizer statistics for every table in the catalog
    /// (the engine's ANALYZE) over the latest committed snapshot —
    /// uncommitted versions never leak into statistics.
    pub fn analyze(&self, catalog: &mut Catalog) -> Result<()> {
        let snap = self.snapshot();
        let ids: Vec<TableId> = catalog.tables().map(|t| t.id).collect();
        for id in ids {
            let ncols = catalog.table(id)?.columns.len();
            let stats = match snap.table(id) {
                Ok(data) => {
                    let rows: Vec<&Row> = data.rows().collect();
                    compute_stats(&rows, ncols)
                }
                Err(_) => TableStats {
                    analyzed: true,
                    rows: 0,
                    columns: vec![ColumnStats::default(); ncols],
                },
            };
            catalog.table_mut(id)?.stats = stats;
        }
        Ok(())
    }
}

/// A pinned, lock-free view of storage "as of" a commit watermark (plus
/// the uncommitted writes of its own transaction, if any). Cheap to
/// take and to clone — one `Arc` bump.
#[derive(Debug, Clone)]
pub struct Snapshot {
    watermark: u64,
    txn: u64,
    data: Arc<Published>,
}

impl Snapshot {
    /// The commit watermark this snapshot reads as of.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The owning transaction id (0 for a plain read snapshot).
    pub fn txn(&self) -> u64 {
        self.txn
    }

    /// The visibility-filtered view of one table.
    pub fn table(&self, table: TableId) -> Result<SnapTable<'_>> {
        cbqt_common::failpoint!(cbqt_common::failpoint::STORAGE_SCAN);
        self.data
            .tables
            .get(&table)
            .map(|heap| SnapTable {
                heap,
                watermark: self.watermark,
                txn: self.txn,
            })
            .ok_or_else(|| Error::execution(format!("no data for table id {}", table.0)))
    }

    /// An index structure; returned ordinals must be filtered through
    /// [`SnapTable::visible`].
    pub fn index(&self, id: IndexId) -> Result<&BTreeIndex> {
        cbqt_common::failpoint!(cbqt_common::failpoint::STORAGE_INDEX);
        self.data
            .indexes
            .get(&id)
            .map(Arc::as_ref)
            .ok_or_else(|| Error::execution(format!("index id {} not built", id.0)))
    }
}

/// One table viewed through a [`Snapshot`]: ordinal-addressed rows with
/// per-version visibility checks (two integer compares per version).
#[derive(Debug, Clone, Copy)]
pub struct SnapTable<'a> {
    heap: &'a VersionHeap,
    watermark: u64,
    txn: u64,
}

impl<'a> SnapTable<'a> {
    /// Total versions in the heap (visible or not) — the full-scan
    /// ordinal space.
    pub fn version_count(&self) -> usize {
        self.heap.versions.len()
    }

    /// True iff the version at `ordinal` is visible to this snapshot.
    pub fn visible(&self, ordinal: usize) -> bool {
        self.heap
            .versions
            .get(ordinal)
            .is_some_and(|v| visible(v, self.watermark, self.txn))
    }

    /// The row data at `ordinal` (caller guarantees a valid ordinal,
    /// normally one that passed [`SnapTable::visible`]).
    pub fn row(&self, ordinal: usize) -> &'a Row {
        &self.heap.versions[ordinal].row
    }

    /// Ordinals of all visible versions, in heap order.
    pub fn visible_ordinals(&self) -> impl Iterator<Item = usize> + 'a {
        let (w, t) = (self.watermark, self.txn);
        self.heap
            .versions
            .iter()
            .enumerate()
            .filter(move |(_, v)| visible(v, w, t))
            .map(|(i, _)| i)
    }

    /// All visible rows, in heap order.
    pub fn rows(&self) -> impl Iterator<Item = &'a Row> + 'a {
        let (w, t) = (self.watermark, self.txn);
        self.heap
            .versions
            .iter()
            .filter(move |v| visible(v, w, t))
            .map(|v| &v.row)
    }

    pub fn visible_count(&self) -> usize {
        self.visible_ordinals().count()
    }
}

const HISTOGRAM_BUCKETS: usize = 32;
/// Histograms are only collected for columns with at least this many rows
/// (cheap guard against noise on tiny tables).
const HISTOGRAM_MIN_ROWS: usize = 64;

fn compute_stats(data: &[&Row], ncols: usize) -> TableStats {
    let rows = data.len() as u64;
    let mut columns = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let mut distinct: HashSet<Value> = HashSet::default();
        let mut nulls = 0u64;
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut numeric: Vec<f64> = Vec::new();
        for row in data {
            let v = &row[c];
            if v.is_null() {
                nulls += 1;
                continue;
            }
            if min.as_ref().map(|m| v.total_cmp(m).is_lt()).unwrap_or(true) {
                min = Some(v.clone());
            }
            if max.as_ref().map(|m| v.total_cmp(m).is_gt()).unwrap_or(true) {
                max = Some(v.clone());
            }
            if let Some(f) = v.as_f64() {
                numeric.push(f);
            }
            distinct.insert(v.clone());
        }
        let histogram =
            if numeric.len() >= HISTOGRAM_MIN_ROWS && numeric.len() == (rows - nulls) as usize {
                Histogram::build(numeric.into_iter(), HISTOGRAM_BUCKETS)
            } else {
                None
            };
        columns.push(ColumnStats {
            ndv: distinct.len() as u64,
            nulls,
            min,
            max,
            histogram,
        });
    }
    TableStats {
        analyzed: true,
        rows,
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbqt_catalog::{Column, Constraint};
    use cbqt_common::DataType;

    fn setup() -> (Catalog, Storage, TableId) {
        let mut cat = Catalog::new();
        let t = cat
            .add_table(
                "t",
                vec![
                    Column {
                        name: "id".into(),
                        data_type: DataType::Int,
                        not_null: true,
                    },
                    Column {
                        name: "grp".into(),
                        data_type: DataType::Int,
                        not_null: false,
                    },
                ],
                vec![Constraint::PrimaryKey(vec![0])],
            )
            .unwrap();
        let st = Storage::new();
        st.create_table(t);
        (cat, st, t)
    }

    fn visible_rows(snap: &Snapshot, t: TableId) -> Vec<Row> {
        snap.table(t).unwrap().rows().cloned().collect()
    }

    #[test]
    fn insert_and_scan() {
        let (_, st, t) = setup();
        st.insert(t, vec![Value::Int(1), Value::Int(10)]).unwrap();
        st.insert(t, vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(st.row_count(t), 2);
        let snap = st.snapshot();
        let data = snap.table(t).unwrap();
        assert_eq!(data.row(1)[1], Value::Null);
        assert_eq!(data.visible_count(), 2);
    }

    #[test]
    fn index_eq_lookup() {
        let (mut cat, st, t) = setup();
        for i in 0..100 {
            st.insert(t, vec![Value::Int(i), Value::Int(i % 7)])
                .unwrap();
        }
        let ix = cat.add_index("i_grp", t, vec![1], false).unwrap();
        st.build_index(ix, t, vec![1]).unwrap();
        let snap = st.snapshot();
        let idx = snap.index(ix).unwrap();
        let hits = idx.lookup_eq(&[Value::Int(3)]);
        assert_eq!(hits.len(), 14); // 3, 10, ..., 94
        assert!(idx.lookup_eq(&[Value::Null]).is_empty());
    }

    #[test]
    fn index_maintained_on_insert() {
        let (mut cat, st, t) = setup();
        let ix = cat.add_index("i_grp", t, vec![1], false).unwrap();
        st.build_index(ix, t, vec![1]).unwrap();
        st.insert(t, vec![Value::Int(1), Value::Int(42)]).unwrap();
        st.insert(t, vec![Value::Int(2), Value::Int(42)]).unwrap();
        let snap = st.snapshot();
        assert_eq!(
            snap.index(ix).unwrap().lookup_eq(&[Value::Int(42)]).len(),
            2
        );
    }

    #[test]
    fn index_range_scan() {
        let (mut cat, st, t) = setup();
        for i in 0..50 {
            st.insert(t, vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
        st.insert(t, vec![Value::Int(50), Value::Null]).unwrap();
        let ix = cat.add_index("i_grp", t, vec![1], false).unwrap();
        st.build_index(ix, t, vec![1]).unwrap();
        let snap = st.snapshot();
        let idx = snap.index(ix).unwrap();
        let mut out = Vec::new();
        idx.lookup_range(
            Bound::Included(&Value::Int(10)),
            Bound::Excluded(&Value::Int(20)),
            &mut out,
        );
        assert_eq!(out.len(), 10);
        out.clear();
        idx.lookup_range(Bound::Excluded(&Value::Int(47)), Bound::Unbounded, &mut out);
        assert_eq!(out.len(), 2); // 48, 49 — the NULL key must not appear
    }

    #[test]
    fn composite_index_lookup() {
        let (mut cat, st, t) = setup();
        for i in 0..20 {
            st.insert(t, vec![Value::Int(i % 4), Value::Int(i % 5)])
                .unwrap();
        }
        let ix = cat.add_index("i_both", t, vec![0, 1], false).unwrap();
        st.build_index(ix, t, vec![0, 1]).unwrap();
        let snap = st.snapshot();
        let hits = snap
            .index(ix)
            .unwrap()
            .lookup_eq(&[Value::Int(1), Value::Int(1)]);
        assert_eq!(hits.len(), 1); // i=1, i%4==1 && i%5==1 only at i=1 within 0..20... i=1 and i=21(no)
    }

    #[test]
    fn analyze_populates_stats() {
        let (mut cat, st, t) = setup();
        for i in 0..200 {
            let grp = if i % 10 == 0 {
                Value::Null
            } else {
                Value::Int(i % 7)
            };
            st.insert(t, vec![Value::Int(i), grp]).unwrap();
        }
        st.analyze(&mut cat).unwrap();
        let s = &cat.table(t).unwrap().stats;
        assert!(s.analyzed);
        assert_eq!(s.rows, 200);
        assert_eq!(s.columns[0].ndv, 200);
        assert_eq!(s.columns[1].nulls, 20);
        assert_eq!(s.columns[1].ndv, 7); // i%7 takes all of 0..=6 among non-null rows
        assert!(s.columns[0].histogram.is_some());
        assert_eq!(s.columns[0].min, Some(Value::Int(0)));
        assert_eq!(s.columns[0].max, Some(Value::Int(199)));
    }

    #[test]
    fn analyze_empty_table() {
        let (mut cat, st, t) = setup();
        st.analyze(&mut cat).unwrap();
        let s = &cat.table(t).unwrap().stats;
        assert!(s.analyzed);
        assert_eq!(s.rows, 0);
        assert_eq!(s.columns.len(), 2);
    }

    // -- MVCC semantics -----------------------------------------------

    #[test]
    fn uncommitted_writes_visible_only_to_owner() {
        let (_, st, t) = setup();
        st.insert(t, vec![Value::Int(1), Value::Int(10)]).unwrap();
        let (txn, _) = st.begin();
        st.write_version(txn, t, vec![Value::Int(2), Value::Int(20)])
            .unwrap();
        // outsiders see only the committed row
        assert_eq!(visible_rows(&st.snapshot(), t).len(), 1);
        assert_eq!(st.row_count(t), 1);
        // the writer sees both
        let mine = st.txn_snapshot(txn).unwrap();
        assert_eq!(visible_rows(&mine, t).len(), 2);
        // commit publishes atomically
        let info = st.commit(txn).unwrap();
        assert_eq!(info.versions, 1);
        assert_eq!(info.tables, vec![(t, 2)]);
        assert_eq!(visible_rows(&st.snapshot(), t).len(), 2);
        assert_eq!(st.row_count(t), 2);
    }

    #[test]
    fn pinned_snapshot_ignores_later_commits() {
        let (_, st, t) = setup();
        st.insert(t, vec![Value::Int(1), Value::Int(10)]).unwrap();
        let old = st.snapshot();
        let (txn, _) = st.begin();
        st.write_version(txn, t, vec![Value::Int(2), Value::Int(20)])
            .unwrap();
        st.commit(txn).unwrap();
        // the pre-commit snapshot still reads as of its watermark
        assert_eq!(visible_rows(&old, t).len(), 1);
        assert_eq!(visible_rows(&st.snapshot(), t).len(), 2);
    }

    #[test]
    fn rollback_restores_pre_transaction_state() {
        let (_, st, t) = setup();
        st.insert(t, vec![Value::Int(1), Value::Int(10)]).unwrap();
        let before = visible_rows(&st.snapshot(), t);
        let w0 = st.watermark();
        let (txn, _) = st.begin();
        st.write_version(txn, t, vec![Value::Int(2), Value::Int(20)])
            .unwrap();
        assert_eq!(st.try_delete_version(txn, t, 0).unwrap(), None);
        assert_eq!(st.rollback(txn), 2);
        assert_eq!(visible_rows(&st.snapshot(), t), before);
        assert_eq!(st.watermark(), w0); // rollback publishes nothing
        assert_eq!(st.row_count(t), 1);
        // double rollback is a safe no-op
        assert_eq!(st.rollback(txn), 0);
    }

    #[test]
    fn first_updater_wins_conflict() {
        let (_, st, t) = setup();
        st.insert(t, vec![Value::Int(1), Value::Int(10)]).unwrap();
        let (t1, _) = st.begin();
        let (t2, _) = st.begin();
        assert_eq!(st.try_delete_version(t1, t, 0).unwrap(), None);
        // second updater loses immediately, without waiting
        assert_eq!(st.try_delete_version(t2, t, 0).unwrap(), Some(t1));
        assert_eq!(st.txn_stats().conflicts, 1);
        // after the winner rolls back, the claim is released
        st.rollback(t1);
        assert_eq!(st.try_delete_version(t2, t, 0).unwrap(), None);
        st.commit(t2).unwrap();
        assert_eq!(visible_rows(&st.snapshot(), t).len(), 0);
    }

    #[test]
    fn committed_delete_after_snapshot_conflicts() {
        let (_, st, t) = setup();
        st.insert(t, vec![Value::Int(1), Value::Int(10)]).unwrap();
        let (t1, _) = st.begin();
        let (t2, _) = st.begin();
        st.try_delete_version(t1, t, 0).unwrap();
        let info = st.commit(t1).unwrap();
        // t2's snapshot predates the delete, but the row is gone: lose.
        assert_eq!(
            st.try_delete_version(t2, t, 0).unwrap(),
            Some(info.watermark)
        );
    }

    #[test]
    fn update_own_insert_within_transaction() {
        let (_, st, t) = setup();
        let (txn, _) = st.begin();
        st.write_version(txn, t, vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        // delete own uncommitted insert (the UPDATE path), insert anew
        assert_eq!(st.try_delete_version(txn, t, 0).unwrap(), None);
        st.write_version(txn, t, vec![Value::Int(1), Value::Int(11)])
            .unwrap();
        st.commit(txn).unwrap();
        let rows = visible_rows(&st.snapshot(), t);
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(11)]]);
        assert_eq!(st.row_count(t), 1);
    }

    #[test]
    fn read_only_commit_keeps_watermark() {
        let (_, st, t) = setup();
        st.insert(t, vec![Value::Int(1), Value::Int(10)]).unwrap();
        let w0 = st.watermark();
        let (txn, snap_w) = st.begin();
        assert_eq!(snap_w, w0);
        let info = st.commit(txn).unwrap();
        assert_eq!(info.watermark, w0);
        assert_eq!(info.versions, 0);
        assert!(info.tables.is_empty());
    }

    #[test]
    fn txn_stats_counters() {
        let (_, st, t) = setup();
        let (t1, _) = st.begin();
        st.write_version(t1, t, vec![Value::Int(1), Value::Int(1)])
            .unwrap();
        st.commit(t1).unwrap();
        let (t2, _) = st.begin();
        st.rollback(t2);
        let s = st.txn_stats();
        assert_eq!(s.begun, 2);
        assert_eq!(s.committed, 1);
        assert_eq!(s.rolled_back, 1);
    }

    #[test]
    fn copies_are_counted_only_while_a_snapshot_pins_the_structures() {
        let (mut cat, st, t) = setup();
        for i in 0..10 {
            st.insert(t, vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
        let ix = cat.add_index("i_grp", t, vec![1], false).unwrap();
        st.build_index(ix, t, vec![1]).unwrap();
        // UPDATE of the version at `ordinal` as one transaction
        let update = |ordinal: usize, grp: i64| {
            let (txn, _) = st.begin();
            assert_eq!(st.try_delete_version(txn, t, ordinal).unwrap(), None);
            st.write_version(txn, t, vec![Value::Int(ordinal as i64), Value::Int(grp)])
                .unwrap();
            st.commit(txn).unwrap();
        };
        let copies = || {
            let s = st.txn_stats();
            (s.heap_copies, s.index_copies)
        };

        // nobody reads: claim, append, index insert and commit restamp
        // all happen in place
        update(0, 100);
        update(1, 101);
        assert_eq!(copies(), (0, 0));

        // a held snapshot costs exactly one copy of each structure, at
        // the first write; later writes own the copies
        let held = st.snapshot();
        update(2, 102);
        update(3, 103);
        assert_eq!(copies(), (1, 1));
        assert_eq!(held.table(t).unwrap().version_count(), 12);
        assert_eq!(held.index(ix).unwrap().lookup_eq(&[Value::Int(102)]), &[]);
        drop(held);
        update(4, 104);
        assert_eq!(copies(), (1, 1));

        // a writer that keeps its own snapshot across its writes pins
        // the structures against itself
        let (txn, _) = st.begin();
        let own = st.txn_snapshot(txn).unwrap();
        st.try_delete_version(txn, t, 5).unwrap();
        st.write_version(txn, t, vec![Value::Int(5), Value::Int(105)])
            .unwrap();
        assert_eq!(copies(), (2, 2));
        drop(own);
        st.rollback(txn);
        assert_eq!(copies(), (2, 2));
    }

    #[test]
    fn index_hits_filtered_by_visibility() {
        let (mut cat, st, t) = setup();
        st.insert(t, vec![Value::Int(1), Value::Int(42)]).unwrap();
        let ix = cat.add_index("i_grp", t, vec![1], false).unwrap();
        st.build_index(ix, t, vec![1]).unwrap();
        let (txn, _) = st.begin();
        st.write_version(txn, t, vec![Value::Int(2), Value::Int(42)])
            .unwrap();
        // index holds both ordinals; visibility separates the readers
        let outsider = st.snapshot();
        let outsider_tbl = outsider.table(t).unwrap();
        let hits: Vec<usize> = outsider
            .index(ix)
            .unwrap()
            .lookup_eq(&[Value::Int(42)])
            .iter()
            .copied()
            .filter(|&o| outsider_tbl.visible(o))
            .collect();
        assert_eq!(hits, vec![0]);
        let mine = st.txn_snapshot(txn).unwrap();
        let mine_tbl = mine.table(t).unwrap();
        let hits: Vec<usize> = mine
            .index(ix)
            .unwrap()
            .lookup_eq(&[Value::Int(42)])
            .iter()
            .copied()
            .filter(|&o| mine_tbl.visible(o))
            .collect();
        assert_eq!(hits, vec![0, 1]);
        st.rollback(txn);
    }
}
