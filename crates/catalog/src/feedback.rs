//! Cardinality feedback: observed per-scan row counts fed back into
//! estimation on recompile.
//!
//! The paper's dynamic-sampling machinery (§3.4.4) exists because static
//! NDV-based estimates are often wrong; runtime execution produces the
//! ground truth for free. After a served query finishes, the engine's
//! per-operator metrics are harvested into a [`FeedbackStore`]: one
//! observed cardinality per (table, normalized predicate, selectivity
//! bands) key. On the next compilation of a matching scan the estimator
//! prefers the observed number over its NDV/histogram guess — closing
//! the estimate-vs-actual loop that EXPLAIN ANALYZE only *displays*.
//!
//! Keys carry the per-conjunct [selectivity bands](selectivity_band) of
//! the compiled values, the same banding adaptive cursor sharing uses
//! for plan-cache variants. Actuals observed under one bind band can
//! therefore never poison a sibling band's estimates: `a = :hot` and
//! `a = :rare` produce *different* keys even though their normalized
//! predicate text (`c0=?`) is identical.

use crate::schema::TableId;
use std::collections::HashMap;
use std::sync::Mutex;

/// Decimal selectivity band, shared by adaptive cursor sharing and the
/// feedback store: `log10(sel)` *rounded to the nearest* integer,
/// clamped to `[-9, 0]`, with zero/invalid selectivities pinned to the
/// lowest band. Rounding (rather than flooring) puts exact powers of
/// ten — the selectivities uniform data actually produces — in the
/// middle of a band, so ±1-row histogram noise around them cannot flip
/// the bucket and split a family spuriously; band edges land on
/// half-decades instead.
pub fn selectivity_band(sel: f64) -> i8 {
    if !sel.is_finite() || sel <= 0.0 {
        return -9;
    }
    (sel.min(1.0).log10().round() as i64).clamp(-9, 0) as i8
}

/// Identity of one observed scan cardinality: which table, under which
/// normalized filter, in which selectivity regime.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FeedbackKey {
    pub table: TableId,
    /// Canonical render of the scan's filter conjuncts with comparison
    /// values masked (e.g. `c0=? AND c2>?`), sorted so conjunct order
    /// never splits entries.
    pub pred: String,
    /// One [`selectivity_band`] per conjunct, computed from the value the
    /// scan was compiled (or executed) with. Keying by band keeps
    /// observations from one bind-sharing variant away from its
    /// siblings' estimates.
    pub bands: Vec<i8>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Observed output cardinality (rows per execution).
    rows: f64,
    /// The table's data version ([`Catalog::table_version`]) at
    /// observation time. Every commit and every shape change bumps it,
    /// so an observation never outlives the data it was made on; a
    /// cached plan, which keys on the table's shape, can.
    ///
    /// [`Catalog::table_version`]: crate::Catalog::table_version
    version: u64,
    /// LRU stamp.
    stamp: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<FeedbackKey, Slot>,
    clock: u64,
}

/// Shared store of observed cardinalities, held at the database level
/// alongside the plan cache. Observations are keyed on the table's
/// *data* version ([`Catalog::table_version`]): a commit to the table
/// retires them, while the plans the plan cache holds survive it. So a
/// recompile after a commit sees fresh estimates, and a warm plan that
/// the new data makes diverge is marked suspect by its next harvest.
/// Thread-safe behind one mutex (entries are tiny and accesses are
/// per-statement, not per-row); a poisoned lock keeps its contents,
/// like the sampling cache.
///
/// [`Catalog::table_version`]: crate::Catalog::table_version
#[derive(Debug)]
pub struct FeedbackStore {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl FeedbackStore {
    pub const DEFAULT_CAPACITY: usize = 4096;

    pub fn new(capacity: usize) -> FeedbackStore {
        FeedbackStore {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Records one observed cardinality. Non-finite or negative `rows`
    /// are discarded — the same hygiene `est.rs` applies to
    /// selectivities, so a degenerate counter can never re-enter the
    /// cost model. Re-observing a key overwrites (latest wins: the
    /// newest execution saw the current data).
    pub fn observe(&self, key: FeedbackKey, rows: f64, version: u64) {
        if !rows.is_finite() || rows < 0.0 {
            return;
        }
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        inner.map.insert(
            key,
            Slot {
                rows,
                version,
                stamp,
            },
        );
        if inner.map.len() > self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
            }
        }
    }

    /// The observed cardinality for `key`, if one was recorded against
    /// the table's current data version. Stale observations (the table
    /// changed since) are dropped on probe rather than served.
    pub fn lookup(&self, key: &FeedbackKey, current_version: u64) -> Option<f64> {
        let mut inner = self.lock();
        match inner.map.get(key) {
            Some(s) if s.version == current_version => Some(s.rows),
            Some(_) => {
                inner.map.remove(key);
                None
            }
            None => None,
        }
    }

    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // keep contents on poisoning: entries are plain numbers, always
        // structurally valid
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Default for FeedbackStore {
    fn default() -> FeedbackStore {
        FeedbackStore::new(FeedbackStore::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(pred: &str, bands: &[i8]) -> FeedbackKey {
        FeedbackKey {
            table: TableId(1),
            pred: pred.to_string(),
            bands: bands.to_vec(),
        }
    }

    #[test]
    fn observe_then_lookup_roundtrips() {
        let store = FeedbackStore::default();
        store.observe(key("c0=?", &[-1]), 50.0, 7);
        assert_eq!(store.lookup(&key("c0=?", &[-1]), 7), Some(50.0));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn bands_isolate_sibling_variants() {
        let store = FeedbackStore::default();
        store.observe(key("c0=?", &[-1]), 50.0, 7);
        // same predicate text, different selectivity band: distinct entry
        assert_eq!(store.lookup(&key("c0=?", &[-3]), 7), None);
        store.observe(key("c0=?", &[-3]), 2.0, 7);
        assert_eq!(store.lookup(&key("c0=?", &[-1]), 7), Some(50.0));
        assert_eq!(store.lookup(&key("c0=?", &[-3]), 7), Some(2.0));
    }

    #[test]
    fn stale_version_is_dropped_on_probe() {
        let store = FeedbackStore::default();
        store.observe(key("c0=?", &[-1]), 50.0, 7);
        assert_eq!(store.lookup(&key("c0=?", &[-1]), 8), None);
        // the stale entry is gone, not resurrectable under the old version
        assert_eq!(store.lookup(&key("c0=?", &[-1]), 7), None);
        assert!(store.is_empty());
    }

    #[test]
    fn degenerate_observations_are_discarded() {
        let store = FeedbackStore::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            store.observe(key("c0=?", &[-1]), bad, 1);
        }
        assert!(store.is_empty());
        // zero rows is a legitimate observation (empty band)
        store.observe(key("c0=?", &[-9]), 0.0, 1);
        assert_eq!(store.lookup(&key("c0=?", &[-9]), 1), Some(0.0));
    }

    #[test]
    fn latest_observation_wins() {
        let store = FeedbackStore::default();
        store.observe(key("c0=?", &[-1]), 50.0, 7);
        store.observe(key("c0=?", &[-1]), 80.0, 7);
        assert_eq!(store.lookup(&key("c0=?", &[-1]), 7), Some(80.0));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let store = FeedbackStore::new(2);
        store.observe(key("a=?", &[0]), 1.0, 1);
        store.observe(key("b=?", &[0]), 2.0, 1);
        store.observe(key("c=?", &[0]), 3.0, 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.lookup(&key("a=?", &[0]), 1), None);
        assert_eq!(store.lookup(&key("c=?", &[0]), 1), Some(3.0));
    }

    #[test]
    fn selectivity_band_pins_and_rounds() {
        assert_eq!(selectivity_band(1.0), 0);
        assert_eq!(selectivity_band(0.1), -1);
        assert_eq!(selectivity_band(0.09), -1);
        assert_eq!(selectivity_band(0.001), -3);
        assert_eq!(selectivity_band(0.0), -9);
        assert_eq!(selectivity_band(-0.5), -9);
        assert_eq!(selectivity_band(f64::NAN), -9);
        assert_eq!(selectivity_band(1e-30), -9);
        assert_eq!(selectivity_band(2.0), 0);
    }
}
