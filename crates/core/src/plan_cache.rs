//! Shared plan cache: canonical query text → a *family* of optimized
//! plans, one per bind-selectivity bucket.
//!
//! The paper's §3.4.2 cost annotations memoize query-block costs
//! *within* one CBQT search; this module memoizes the *whole* search
//! across queries — the analogue of Oracle's shared cursor cache, and
//! the piece a serving path needs once transformation cost dominates
//! repeated traffic.
//!
//! Design:
//!
//! - **Keying**: one cache key per *query family* — the canonical
//!   render of the parameterized AST (literals extracted into bind
//!   slots), so `salary > 100` and `salary > 200` share a key. Callers
//!   that cache un-parameterized text use [`normalize_sql`] instead
//!   (case-folded outside string literals, whitespace collapsed,
//!   trailing semicolons stripped). The full key string is the map key,
//!   so hash collisions can never serve the wrong plan.
//! - **Adaptive cursor sharing**: a family holds one plan *variant* per
//!   selectivity bucket. Each family records the [`BindSite`]s of its
//!   bind slots (which table/column/operator each slot filters); on a
//!   probe the caller re-buckets the incoming bind values against
//!   catalog statistics and only a variant compiled for the same bucket
//!   signature is served. A family without a variant for the incoming
//!   bucket reports [`Lookup::BindMismatch`] — a mismatched plan is
//!   never served; the caller compiles and caches a sibling.
//! - **Invalidation**: a plan depends on a table's *shape*, not its
//!   data. Every variant records a [`TableDep`] per table it reads: the
//!   table's shape version and its live rows at compile time. CREATE
//!   INDEX and ANALYZE bump the shape of the tables they touch, and so
//!   invalidate the plans over them; a commit does not. The caller's
//!   check also rejects a variant once a table's live row count has
//!   drifted from the recorded one by the feedback divergence ratio, so
//!   a plan costed for 50 rows does not keep serving 5 000. Like an
//!   Oracle shared cursor, a plan survives ordinary DML. A probe whose
//!   dependencies fail the check evicts the variant and reports
//!   [`Lookup::Invalidated`]; such a plan is never served.
//! - **Concurrency**: the cache is sharded over `std::sync::Mutex`es
//!   (the build stays hermetic — no external lock crates) with atomic
//!   hit/miss/invalidation counters, so `&self` lookups from many
//!   threads contend only within a shard. Plans are stored behind
//!   `Arc<BlockPlan>`: immutable, shareable, executed by a fresh
//!   per-query [`Engine`](cbqt_exec::Engine) that owns all mutable
//!   execution state.
//! - **Bounding**: a stamp-based LRU per shard, bounded by *estimated
//!   plan bytes* ([`BlockPlan::estimated_bytes`] plus the compiled
//!   program set, key and column overhead), not entry count. Eviction
//!   is per *variant* (across families); a family whose last variant
//!   is evicted is removed.
//!   A plan larger than the whole shard budget is never retained.
//! - **Statement-shape recipes**: beside the families, a shard keeps
//!   [`Recipe`]s keyed by the full masked text of a statement's
//!   [`Shape`] (never by its hash alone). A recipe turns a statement of
//!   its shape into the family key and bind vector without a parse; see
//!   [`cbqt_sql::shape`]. Recipes are charged to the byte budget and
//!   the LRU like variants, and [`PlanCache::clear`] drops them.
//! - **Fault tolerance**: a panic while a shard lock is held (a bug, or
//!   an injected fault — see `cbqt_common::failpoint`) poisons that
//!   mutex. Every lock site recovers by clearing the poisoned shard —
//!   its entries may be half-updated, and plans are always
//!   recompilable — and continuing; the other shards are untouched.

use cbqt_catalog::TableId;
use cbqt_common::hash::{HashMap, KeyHasher};
use cbqt_common::Value;
use cbqt_exec::ProgramSet;
use cbqt_optimizer::{BlockPlan, FeedbackShape, PlanEntity, PlanIndex, PlanNode, PlanNodeId};
use cbqt_qgm::BindSite;
use cbqt_sql::{Recipe, RecipeKind, Shape};
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of independently locked shards.
pub const DEFAULT_SHARDS: usize = 8;
/// Default byte budget per shard (cache-wide bound = shards × this):
/// room for over a thousand one-table selects (about 2 KB each with
/// their compiled program sets) spread unevenly over the shards.
pub const DEFAULT_SHARD_BYTES: usize = 384 * 1024;

/// A family variant's selectivity bucket: one decimal band per bind
/// site (`log10(selectivity)` rounded to the nearest integer, clamped).
/// Two bind vectors that land in the same bands share a plan; a vector
/// landing elsewhere compiles a sibling.
pub type BucketSig = Vec<i8>;

/// What a cached plan assumed about one table it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableDep {
    pub table: TableId,
    /// The table's shape version at compile time.
    pub shape: u64,
    /// The table's committed live rows at compile time.
    pub rows: u64,
}

/// One cached compilation: the immutable physical plan plus the output
/// column names (so a cache hit skips query-tree construction entirely).
#[derive(Clone)]
pub struct CachedPlan {
    pub plan: Arc<BlockPlan>,
    pub columns: Arc<Vec<String>>,
    /// Global catalog version the plan was compiled under (kept for
    /// trace-event display; validation uses `deps`).
    pub version: u64,
    /// The tables the plan reads, as they were when it was compiled.
    pub deps: Arc<Vec<TableDep>>,
    /// What every execution of the plan needs.
    pub(crate) runtime: Arc<Runtime>,
}

/// What every execution of a plan needs, derived once when the plan is
/// compiled, so an execution of a cached plan derives nothing again: the
/// batch engine's [`ProgramSet`] with the plan's position index, which
/// an engine threads element ids through, and — for the feedback
/// harvest — every feedback-eligible base scan with the half of its key
/// no bind value moves.
#[derive(Debug)]
pub(crate) struct Runtime {
    pub(crate) programs: Arc<ProgramSet>,
    /// Per eligible base scan, in plan order: its position, its
    /// estimated rows and its key's shape.
    pub(crate) scans: Vec<(PlanNodeId, f64, FeedbackShape)>,
}

impl Runtime {
    pub(crate) fn of(plan: &BlockPlan) -> Runtime {
        let mut scans = Vec::new();
        plan.visit_entities(&mut |id, entity| {
            if let PlanEntity::Node(PlanNode::ScanBase {
                table,
                refid,
                filter,
                rows,
                ..
            }) = entity
            {
                if let Some(shape) = FeedbackShape::of(*table, *refid, filter) {
                    scans.push((id, *rows, shape));
                }
            }
        });
        Runtime {
            programs: Arc::new(ProgramSet::of(plan)),
            scans,
        }
    }

    /// The plan's position index.
    pub(crate) fn index(&self) -> &Arc<PlanIndex> {
        self.programs.index()
    }

    /// Estimated bytes: the program set, the index's subtree sizes and a
    /// scan's fixed part (its predicate text is not counted).
    fn estimated_bytes(&self) -> usize {
        size_of::<Runtime>()
            + self.programs.estimated_bytes()
            + self.index().len() * size_of::<u32>()
            + self.scans.len() * size_of::<(PlanNodeId, f64, FeedbackShape)>()
    }
}

struct Entry {
    cached: CachedPlan,
    /// Last-touch stamp from the shard clock (LRU order).
    stamp: u64,
    /// Estimated bytes this entry holds (plan + key + sig + columns).
    bytes: usize,
    /// Runtime actuals diverged from this plan's estimates beyond the
    /// configured ratio: the next probe recompiles with feedback
    /// ([`Lookup::Reoptimize`]) instead of serving it.
    suspect: bool,
    /// Re-optimization of this variant already failed to improve it
    /// (degraded search, or the feedback-informed plan still diverged):
    /// keep serving the plan and ignore further suspect marks, so a
    /// stubborn estimation gap cannot cause a re-optimize storm.
    reopt_blocked: bool,
}

/// All cached plan variants for one canonical query text.
struct Family {
    /// Which table/column/operator each bind slot filters — recorded at
    /// first insert so a probe can re-bucket incoming binds without
    /// rebuilding the query tree.
    sites: Arc<Vec<BindSite>>,
    variants: HashMap<BucketSig, Entry>,
}

/// A recipe and its LRU bookkeeping.
struct RecipeEntry {
    recipe: Arc<Recipe>,
    stamp: u64,
    bytes: usize,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Family>,
    /// Recipes by the full masked text of their shape.
    recipes: HashMap<String, RecipeEntry>,
    clock: u64,
    /// Sum of the bytes of every variant and recipe (the LRU bound's
    /// currency).
    bytes: usize,
}

impl Shard {
    fn clear(&mut self) {
        self.map.clear();
        self.recipes.clear();
        self.bytes = 0;
    }

    /// Evicts least-recently-used variants and recipes until the shard
    /// holds at most `budget` bytes. A family whose last variant goes is
    /// removed.
    fn evict_to(&mut self, budget: usize) {
        while self.bytes > budget {
            let variant = self
                .map
                .iter()
                .flat_map(|(k, f)| f.variants.iter().map(move |(s, e)| (e.stamp, k, Some(s))))
                .min_by_key(|&(stamp, _, _)| stamp);
            let recipe = self
                .recipes
                .iter()
                .map(|(k, e)| (e.stamp, k, None))
                .min_by_key(|&(stamp, _, _)| stamp);
            let Some((_, key, sig)) = variant.into_iter().chain(recipe).min_by_key(|v| v.0) else {
                break;
            };
            let (key, sig) = (key.clone(), sig.cloned());
            let freed = match sig {
                Some(sig) => {
                    let family = self.map.get_mut(&key).unwrap();
                    let evicted = family.variants.remove(&sig).unwrap();
                    if family.variants.is_empty() {
                        self.map.remove(&key);
                    }
                    evicted.bytes
                }
                None => self.recipes.remove(&key).unwrap().bytes,
            };
            self.bytes -= freed;
        }
    }
}

/// Estimated bytes one cached variant pins in memory.
fn entry_bytes(key: &str, sig: &[i8], cached: &CachedPlan) -> usize {
    size_of::<Entry>()
        + key.len()
        + sig.len()
        + cached.plan.estimated_bytes()
        + cached.deps.len() * size_of::<TableDep>()
        + cached.runtime.estimated_bytes()
        + cached
            .columns
            .iter()
            .map(|c| size_of::<String>() + c.len())
            .sum::<usize>()
}

/// Estimated bytes one recipe pins under its shape text.
fn recipe_bytes(shape: &str, recipe: &Recipe) -> usize {
    size_of::<RecipeEntry>() + shape.len() + recipe.estimated_bytes()
}

/// Outcome of a cache probe.
pub enum Lookup {
    /// A still-valid plan for the incoming bucket signature was found.
    Hit(CachedPlan),
    /// A still-valid plan exists but was marked suspect by cardinality
    /// feedback: the caller must recompile (with the feedback store
    /// consulted) and republish. The suspect flag is cleared by this
    /// probe — exactly one probe triggers the recompile; concurrent
    /// probes of the same variant keep getting `Hit`, and the stale
    /// `cached` plan is returned so a failed recompile can still serve.
    Reoptimize { cached: CachedPlan, sig: BucketSig },
    /// No family for this key.
    Miss,
    /// A variant existed for this bucket but a table it reads changed
    /// shape or drifted in size since compilation; it has been evicted.
    Invalidated { cached_version: u64 },
    /// The family exists but holds no variant for the incoming binds'
    /// selectivity bucket; `variants` is the family's current variant
    /// count (for the FAMILY SPLIT trace event after the sibling is
    /// compiled).
    BindMismatch { sig: BucketSig, variants: usize },
}

/// Monotonic counters describing cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    /// Probes that found the family but no variant for the incoming
    /// bind bucket (each also counts as a miss).
    pub bind_mismatches: u64,
    /// Current number of cached plan variants across all shards.
    pub entries: usize,
    /// Current number of query families across all shards.
    pub families: usize,
    /// Current estimated bytes cached across all shards.
    pub bytes: usize,
    /// Total byte budget (shards × per-shard budget).
    pub capacity_bytes: usize,
    /// Shards cleared after a lock-poisoning panic.
    pub poison_recoveries: u64,
    /// Probes that found a suspect variant and triggered a
    /// feedback-informed recompilation (each also counts as a miss).
    pub reoptimizations: u64,
    /// Statements served from a shape's recipe, without a parse.
    pub recipe_hits: u64,
    /// Current number of statement-shape recipes across all shards.
    pub recipes: usize,
}

/// A bounded, sharded, invalidation-correct plan cache. `Send + Sync`;
/// all operations take `&self`.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    shard_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    bind_mismatches: AtomicU64,
    poison_recoveries: AtomicU64,
    reoptimizations: AtomicU64,
    recipe_hits: AtomicU64,
}

/// Outcome of a recipe probe ([`PlanCache::recipe`]).
pub enum RecipeProbe {
    /// The shape's recipe served the statement: `recipe` holds the
    /// family key and query, `binds` the statement's bind values.
    Hit {
        recipe: Arc<Recipe>,
        binds: Vec<Value>,
    },
    /// The shape has a recipe, but it declined the statement (a literal
    /// that is not a slot is spelled differently).
    Declined,
    /// The shape has no recipe.
    Absent,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_SHARDS, DEFAULT_SHARD_BYTES)
    }
}

impl PlanCache {
    /// A cache with `shards` independently locked shards, each holding
    /// at most `shard_bytes` estimated plan bytes.
    pub fn new(shards: usize, shard_bytes: usize) -> PlanCache {
        PlanCache {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            shard_bytes: shard_bytes.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            bind_mismatches: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            reoptimizations: AtomicU64::new(0),
            recipe_hits: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut h = KeyHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Locks a shard, recovering from poisoning: a panic under the lock
    /// may have left this shard's bookkeeping half-updated, so its
    /// entries are dropped (they are only caches) and service continues.
    fn lock_shard<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        shard.lock().unwrap_or_else(|poisoned| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            // un-poison so later locks see a healthy (empty) shard
            // instead of clearing it again on every access
            shard.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        })
    }

    /// Probes the cache. `sig_of` re-buckets the incoming bind values
    /// against the family's recorded bind sites (called only when the
    /// family exists); `deps_current` checks a variant's table
    /// dependencies against the live catalog. A variant that fails it
    /// is evicted and reported `Invalidated`; a bucket with no
    /// variant is reported `BindMismatch`. A stale or mismatched plan
    /// is never returned.
    pub fn lookup(
        &self,
        key: &str,
        sig_of: impl FnOnce(&[BindSite]) -> BucketSig,
        deps_current: impl Fn(&[TableDep]) -> bool,
    ) -> Lookup {
        let result = {
            let mut shard = self.lock_shard(self.shard(key));
            shard.clock += 1;
            let stamp = shard.clock;
            match shard.map.get_mut(key) {
                Some(family) => {
                    let sig = sig_of(&family.sites);
                    match family.variants.get_mut(&sig) {
                        Some(e) if deps_current(&e.cached.deps) => {
                            e.stamp = stamp;
                            if e.suspect && !e.reopt_blocked {
                                // single-shot: this probe owns the
                                // recompile; everyone else keeps hitting
                                e.suspect = false;
                                Lookup::Reoptimize {
                                    cached: e.cached.clone(),
                                    sig,
                                }
                            } else {
                                Lookup::Hit(e.cached.clone())
                            }
                        }
                        Some(_) => {
                            let stale = family.variants.remove(&sig).unwrap();
                            if family.variants.is_empty() {
                                shard.map.remove(key);
                            }
                            shard.bytes -= stale.bytes;
                            Lookup::Invalidated {
                                cached_version: stale.cached.version,
                            }
                        }
                        None => Lookup::BindMismatch {
                            variants: family.variants.len(),
                            sig,
                        },
                    }
                }
                None => Lookup::Miss,
            }
        };
        match &result {
            Lookup::Hit(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            Lookup::Reoptimize { .. } => {
                self.reoptimizations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            Lookup::Invalidated { .. } => {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            Lookup::BindMismatch { .. } => {
                self.bind_mismatches.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            Lookup::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Inserts a freshly compiled plan as the `sig` variant of `key`'s
    /// family (creating the family, with its bind sites, on first
    /// insert), then evicts least-recently-used variants across all
    /// families until the shard is back under its byte budget. A plan
    /// whose own estimated size exceeds the whole budget is evicted
    /// immediately (i.e. never retained).
    pub fn insert(
        &self,
        key: String,
        sig: BucketSig,
        sites: Arc<Vec<BindSite>>,
        cached: CachedPlan,
    ) {
        let bytes = entry_bytes(&key, &sig, &cached);
        let mut shard = self.lock_shard(self.shard(&key));
        shard.clock += 1;
        let stamp = shard.clock;
        let family = shard.map.entry(key).or_insert_with(|| Family {
            sites: Arc::clone(&sites),
            variants: HashMap::default(),
        });
        // refresh sites: deterministic per key, but stats/DDL may have
        // changed what the slots resolve to since the family was created
        family.sites = sites;
        if let Some(old) = family.variants.insert(
            sig,
            Entry {
                cached,
                stamp,
                bytes,
                suspect: false,
                reopt_blocked: false,
            },
        ) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        shard.evict_to(self.shard_bytes);
    }

    /// Probes for the recipe of `shape`, the shape of statement `src`,
    /// and applies it: a [`RecipeProbe::Hit`] carries the statement's
    /// family key, family query and bind values. A recipe whose kind
    /// the caller does not `admit` declines the statement.
    pub fn recipe(
        &self,
        src: &str,
        shape: &Shape,
        admit: impl FnOnce(&RecipeKind) -> bool,
    ) -> RecipeProbe {
        let recipe = {
            let mut shard = self.lock_shard(self.shard(shape.text()));
            shard.clock += 1;
            let stamp = shard.clock;
            match shard.recipes.get_mut(shape.text()) {
                Some(e) => {
                    e.stamp = stamp;
                    Arc::clone(&e.recipe)
                }
                None => return RecipeProbe::Absent,
            }
        };
        let binds = admit(recipe.kind()).then(|| recipe.binds(src, shape));
        match binds.flatten() {
            Some(binds) => {
                self.recipe_hits.fetch_add(1, Ordering::Relaxed);
                RecipeProbe::Hit { recipe, binds }
            }
            None => RecipeProbe::Declined,
        }
    }

    /// Records `recipe` under `shape`, then evicts like
    /// [`insert`](PlanCache::insert). A shape keeps the first recipe
    /// recorded for it.
    pub fn insert_recipe(&self, shape: Shape, recipe: Recipe) {
        let key = shape.into_text();
        let bytes = recipe_bytes(&key, &recipe);
        let mut shard = self.lock_shard(self.shard(&key));
        if shard.recipes.contains_key(&key) {
            return;
        }
        shard.clock += 1;
        let stamp = shard.clock;
        let recipe = Arc::new(recipe);
        shard.recipes.insert(
            key,
            RecipeEntry {
                recipe,
                stamp,
                bytes,
            },
        );
        shard.bytes += bytes;
        shard.evict_to(self.shard_bytes);
    }

    /// Marks the `sig` variant of `key`'s family suspect: its runtime
    /// actuals diverged from its estimates beyond the configured ratio,
    /// so the next probe should recompile with feedback. A no-op when
    /// the variant does not exist or re-optimization of it is blocked.
    pub fn mark_suspect(&self, key: &str, sig: &BucketSig) {
        let mut shard = self.lock_shard(self.shard(key));
        if let Some(e) = shard.map.get_mut(key).and_then(|f| f.variants.get_mut(sig)) {
            if !e.reopt_blocked {
                e.suspect = true;
            }
        }
    }

    /// Pins the `sig` variant of `key`'s family against further
    /// re-optimization: recompiling it did not produce a better plan
    /// (the search degraded, or the feedback-informed plan still
    /// diverged), so the cached plan keeps serving and later suspect
    /// marks are ignored — no re-optimize loop. Republishing the
    /// variant (a fresh insert) lifts the block.
    pub fn block_reopt(&self, key: &str, sig: &BucketSig) {
        let mut shard = self.lock_shard(self.shard(key));
        if let Some(e) = shard.map.get_mut(key).and_then(|f| f.variants.get_mut(sig)) {
            e.suspect = false;
            e.reopt_blocked = true;
        }
    }

    /// Drops every cached plan and recipe (configuration changes
    /// invalidate everything: the same SQL can compile to a different
    /// plan, or key differently).
    pub fn clear(&self) {
        for s in &self.shards {
            self.lock_shard(s).clear();
        }
    }

    pub fn stats(&self) -> PlanCacheStats {
        let (mut entries, mut families, mut recipes, mut bytes) = (0, 0, 0, 0);
        for s in &self.shards {
            let s = self.lock_shard(s);
            families += s.map.len();
            entries += s.map.values().map(|f| f.variants.len()).sum::<usize>();
            recipes += s.recipes.len();
            bytes += s.bytes;
        }
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            bind_mismatches: self.bind_mismatches.load(Ordering::Relaxed),
            entries,
            families,
            bytes,
            capacity_bytes: self.shards.len() * self.shard_bytes,
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
            reoptimizations: self.reoptimizations.load(Ordering::Relaxed),
            recipe_hits: self.recipe_hits.load(Ordering::Relaxed),
            recipes,
        }
    }
}

/// Normalizes SQL text into a cache key: whitespace runs collapse to
/// one space, everything outside single-quoted string literals is
/// lowercased (`''` escapes respected), and trailing semicolons are
/// stripped. `SELECT  1` and `select 1;` share a plan; `'ABC'` and
/// `'abc'` do not. Used when bind sharing is disabled; the bind-sharing
/// path keys on the canonical render of the parameterized AST instead.
pub fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    let mut in_literal = false;
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        if in_literal {
            out.push(c);
            if c == '\'' {
                if chars.peek() == Some(&'\'') {
                    out.push(chars.next().unwrap());
                } else {
                    in_literal = false;
                }
            }
            continue;
        }
        if c.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space && !out.is_empty() {
            out.push(' ');
        }
        pending_space = false;
        if c == '\'' {
            in_literal = true;
            out.push(c);
        } else {
            out.push(c.to_ascii_lowercase());
        }
    }
    while matches!(out.chars().last(), Some(';') | Some(' ')) {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbqt_optimizer::PlanRoot;
    use cbqt_qgm::{BlockId, SetOp};

    fn plan_v(cost: f64, version: u64) -> CachedPlan {
        let plan = BlockPlan {
            block: BlockId(0),
            root: PlanRoot::SetOp(cbqt_optimizer::SetOpPlan {
                op: SetOp::Union,
                inputs: vec![],
            }),
            cost,
            rows: 0.0,
            out_ndv: vec![],
        };
        CachedPlan {
            runtime: Arc::new(Runtime::of(&plan)),
            plan: Arc::new(plan),
            columns: Arc::new(vec![]),
            version,
            deps: Arc::new(vec![dep(0, version)]),
        }
    }

    fn dep(table: u32, shape: u64) -> TableDep {
        TableDep {
            table: TableId(table),
            shape,
            rows: 0,
        }
    }

    fn plan(cost: f64) -> CachedPlan {
        plan_v(cost, 0)
    }

    /// Probe with an empty bucket signature, validating the single
    /// `TableId(0)` dependency against shape `current`, for tests not
    /// about bind buckets.
    fn probe(cache: &PlanCache, key: &str, current: u64) -> Lookup {
        cache.lookup(
            key,
            |_| Vec::new(),
            |deps| deps.iter().all(|d| d.shape == current),
        )
    }

    fn put(cache: &PlanCache, key: &str, p: CachedPlan) {
        cache.insert(key.into(), Vec::new(), Arc::new(vec![]), p);
    }

    #[test]
    fn normalization_rules() {
        assert_eq!(normalize_sql("SELECT  1"), "select 1");
        assert_eq!(normalize_sql("select 1;"), "select 1");
        assert_eq!(normalize_sql("  SELECT\n\t1 ; "), "select 1");
        assert_eq!(
            normalize_sql("SELECT 'ABC''D'  FROM T"),
            "select 'ABC''D' from t"
        );
        // literal casing is preserved, so these are distinct keys
        assert_ne!(normalize_sql("SELECT 'A'"), normalize_sql("SELECT 'a'"));
        assert_eq!(
            normalize_sql("SELECT * FROM t WHERE a = 'x y  z'"),
            "select * from t where a = 'x y  z'"
        );
    }

    #[test]
    fn hit_miss_invalidate() {
        let cache = PlanCache::default();
        assert!(matches!(probe(&cache, "k", 0), Lookup::Miss));
        put(&cache, "k", plan_v(10.0, 3));
        assert!(matches!(probe(&cache, "k", 3), Lookup::Hit(c) if c.plan.cost == 10.0));
        // dependency moved to a newer version: evicts
        assert!(matches!(
            probe(&cache, "k", 4),
            Lookup::Invalidated { cached_version: 3 }
        ));
        // and the stale entry is gone, not served again
        assert!(matches!(probe(&cache, "k", 4), Lookup::Miss));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 3, 1));
    }

    #[test]
    fn bind_mismatch_compiles_a_sibling_variant() {
        let cache = PlanCache::default();
        let current = |deps: &[TableDep]| deps.iter().all(|d| d.shape == 0);
        cache.insert("k".into(), vec![0], Arc::new(vec![]), plan(1.0));
        // same bucket: served
        assert!(
            matches!(cache.lookup("k", |_| vec![0], current), Lookup::Hit(c) if c.plan.cost == 1.0)
        );
        // different selectivity bucket: family found, no variant
        match cache.lookup("k", |_| vec![-3], current) {
            Lookup::BindMismatch { sig, variants } => {
                assert_eq!(sig, vec![-3]);
                assert_eq!(variants, 1);
            }
            _ => panic!("expected BindMismatch"),
        }
        // caller compiles and caches the sibling; both now coexist
        cache.insert("k".into(), vec![-3], Arc::new(vec![]), plan(2.0));
        let s = cache.stats();
        assert_eq!((s.entries, s.families), (2, 1));
        assert_eq!(s.bind_mismatches, 1);
        assert!(
            matches!(cache.lookup("k", |_| vec![0], current), Lookup::Hit(c) if c.plan.cost == 1.0)
        );
        assert!(
            matches!(cache.lookup("k", |_| vec![-3], current), Lookup::Hit(c) if c.plan.cost == 2.0)
        );
    }

    #[test]
    fn per_table_deps_invalidate_only_dependent_plans() {
        let cache = PlanCache::default();
        let mut p1 = plan(1.0);
        p1.deps = Arc::new(vec![dep(1, 5)]);
        let mut p2 = plan(2.0);
        p2.deps = Arc::new(vec![dep(2, 9)]);
        put(&cache, "q1", p1);
        put(&cache, "q2", p2);
        // "index on table 1": its shape moves to 6; table 2 unchanged
        let live = |deps: &[TableDep]| {
            deps.iter().all(|d| match d.table {
                TableId(1) => d.shape == 6,
                TableId(2) => d.shape == 9,
                _ => false,
            })
        };
        assert!(matches!(
            cache.lookup("q1", |_| Vec::new(), live),
            Lookup::Invalidated { .. }
        ));
        assert!(matches!(
            cache.lookup("q2", |_| Vec::new(), live),
            Lookup::Hit(c) if c.plan.cost == 2.0
        ));
    }

    #[test]
    fn lru_eviction_is_byte_bounded() {
        // budget sized for exactly three of these (identical) entries
        let unit = entry_bytes("q0", &[], &plan(0.0));
        let cache = PlanCache::new(1, 3 * unit);
        for i in 0..3 {
            put(&cache, &format!("q{i}"), plan(i as f64));
        }
        assert_eq!(cache.stats().bytes, 3 * unit);
        // touch q0 so q1 becomes the LRU
        assert!(matches!(probe(&cache, "q0", 0), Lookup::Hit(_)));
        put(&cache, "q3", plan(3.0));
        let s = cache.stats();
        assert_eq!(s.entries, 3);
        assert!(s.bytes <= s.capacity_bytes, "{s:?}");
        assert!(matches!(probe(&cache, "q1", 0), Lookup::Miss));
        assert!(matches!(probe(&cache, "q0", 0), Lookup::Hit(_)));
        assert!(matches!(probe(&cache, "q3", 0), Lookup::Hit(_)));
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.entries, s.families, s.bytes), (0, 0, 0));
    }

    #[test]
    fn oversized_plan_is_not_retained() {
        let unit = entry_bytes("big", &[], &plan(1.0));
        let cache = PlanCache::new(1, unit - 1);
        put(&cache, "big", plan(1.0));
        let s = cache.stats();
        assert_eq!((s.entries, s.families, s.bytes), (0, 0, 0));
        assert!(matches!(probe(&cache, "big", 0), Lookup::Miss));
    }

    #[test]
    fn invalidation_releases_bytes() {
        let cache = PlanCache::default();
        put(&cache, "k", plan_v(1.0, 1));
        assert!(cache.stats().bytes > 0);
        assert!(matches!(probe(&cache, "k", 2), Lookup::Invalidated { .. }));
        let s = cache.stats();
        assert_eq!((s.bytes, s.families), (0, 0));
    }

    #[test]
    fn suspect_variant_reoptimizes_exactly_once() {
        let cache = PlanCache::default();
        put(&cache, "k", plan(10.0));
        assert!(matches!(probe(&cache, "k", 0), Lookup::Hit(_)));
        cache.mark_suspect("k", &Vec::new());
        // the marked probe hands back the stale plan plus its sig...
        match probe(&cache, "k", 0) {
            Lookup::Reoptimize { cached, sig } => {
                assert_eq!(cached.plan.cost, 10.0);
                assert!(sig.is_empty());
            }
            _ => panic!("expected Reoptimize"),
        }
        // ...and clears the flag: the next probe hits again (no storm)
        assert!(matches!(probe(&cache, "k", 0), Lookup::Hit(_)));
        let s = cache.stats();
        assert_eq!(s.reoptimizations, 1);
        // republishing resets to a plain (non-suspect) variant
        put(&cache, "k", plan(5.0));
        assert!(matches!(probe(&cache, "k", 0), Lookup::Hit(c) if c.plan.cost == 5.0));
    }

    #[test]
    fn blocked_variant_ignores_suspect_marks() {
        let cache = PlanCache::default();
        put(&cache, "k", plan(10.0));
        cache.block_reopt("k", &Vec::new());
        cache.mark_suspect("k", &Vec::new());
        // blocked: keeps serving, never reports Reoptimize
        assert!(matches!(probe(&cache, "k", 0), Lookup::Hit(_)));
        assert_eq!(cache.stats().reoptimizations, 0);
        // a fresh publish lifts the block
        put(&cache, "k", plan(5.0));
        cache.mark_suspect("k", &Vec::new());
        assert!(matches!(probe(&cache, "k", 0), Lookup::Reoptimize { .. }));
    }

    #[test]
    fn suspect_marks_are_per_variant() {
        let cache = PlanCache::default();
        let current = |deps: &[TableDep]| deps.iter().all(|d| d.shape == 0);
        cache.insert("k".into(), vec![-1], Arc::new(vec![]), plan(1.0));
        cache.insert("k".into(), vec![-3], Arc::new(vec![]), plan(2.0));
        cache.mark_suspect("k", &vec![-1]);
        // only the marked band reoptimizes; the sibling stays warm
        assert!(matches!(
            cache.lookup("k", |_| vec![-3], current),
            Lookup::Hit(c) if c.plan.cost == 2.0
        ));
        assert!(matches!(
            cache.lookup("k", |_| vec![-1], current),
            Lookup::Reoptimize { sig, .. } if sig == vec![-1]
        ));
    }

    /// The shape of `sql` and the recipe its full route records.
    fn recipe_for(sql: &str) -> (Shape, Recipe) {
        let p = cbqt_sql::parameterize(&cbqt_sql::parse_query(sql).unwrap());
        let shape = Shape::of(sql).unwrap();
        let key = cbqt_sql::render_query(&p.query);
        let kind = RecipeKind::Query;
        let recipe = Recipe::derive(sql, &shape, kind, key, p.query, &p.binds).unwrap();
        (shape, recipe)
    }

    fn probe_recipe(cache: &PlanCache, sql: &str) -> RecipeProbe {
        cache.recipe(sql, &Shape::of(sql).unwrap(), |_| true)
    }

    #[test]
    fn recipes_hit_decline_and_clear() {
        let cache = PlanCache::default();
        let sql = "SELECT a, 9 FROM t WHERE b = 4";
        assert!(matches!(probe_recipe(&cache, sql), RecipeProbe::Absent));
        let (shape, recipe) = recipe_for(sql);
        cache.insert_recipe(shape, recipe);
        match probe_recipe(&cache, "SELECT a, 9 FROM t WHERE b = 5") {
            RecipeProbe::Hit { recipe, binds } => {
                assert_eq!(recipe.key(), "SELECT a, 9 FROM t WHERE (b = ?)");
                assert_eq!(binds, vec![cbqt_common::Value::Int(5)]);
            }
            _ => panic!("expected a recipe hit"),
        }
        // the select-list constant is not a slot
        assert!(matches!(
            probe_recipe(&cache, "SELECT a, 8 FROM t WHERE b = 5"),
            RecipeProbe::Declined
        ));
        // a caller that does not admit the recipe's kind is declined
        let other = "SELECT a, 9 FROM t WHERE b = 6";
        assert!(matches!(
            cache.recipe(other, &Shape::of(other).unwrap(), |_| false),
            RecipeProbe::Declined
        ));
        // a shape keeps its first recipe
        let (shape, recipe) = recipe_for("SELECT a, 8 FROM t WHERE b = 4");
        cache.insert_recipe(shape, recipe);
        let s = cache.stats();
        assert_eq!((s.recipes, s.recipe_hits, s.entries), (1, 1, 0), "{s:?}");
        assert!(s.bytes > 0);
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.recipes, s.bytes), (0, 0), "{s:?}");
        assert!(matches!(probe_recipe(&cache, sql), RecipeProbe::Absent));
    }

    #[test]
    fn recipes_share_the_byte_budget_and_the_lru() {
        let sql = "SELECT a FROM t WHERE b = 4";
        let (shape, recipe) = recipe_for(sql);
        let recipe_bytes = recipe_bytes(shape.text(), &recipe);
        let plan_bytes = entry_bytes("q0", &[], &plan(0.0));
        // room for the recipe and one plan, not two plans
        let cache = PlanCache::new(1, recipe_bytes + plan_bytes);
        cache.insert_recipe(shape, recipe);
        put(&cache, "q0", plan(0.0));
        assert_eq!(cache.stats().bytes, recipe_bytes + plan_bytes);
        // touching the recipe makes the plan the LRU entry
        assert!(matches!(probe_recipe(&cache, sql), RecipeProbe::Hit { .. }));
        put(&cache, "q1", plan(1.0));
        let s = cache.stats();
        assert_eq!((s.recipes, s.entries), (1, 1), "{s:?}");
        assert!(matches!(probe(&cache, "q0", 0), Lookup::Miss));
        // the next insert finds the recipe oldest; the recipe outweighs
        // a plan, so both plans then fit
        put(&cache, "q2", plan(2.0));
        let s = cache.stats();
        assert_eq!((s.recipes, s.entries), (0, 2), "{s:?}");
        assert!(s.bytes <= s.capacity_bytes, "{s:?}");
    }

    #[test]
    fn poisoned_shard_recovers_by_clearing() {
        let cache = Arc::new(PlanCache::new(1, DEFAULT_SHARD_BYTES));
        put(&cache, "k", plan(1.0));
        assert!(matches!(probe(&cache, "k", 0), Lookup::Hit(_)));
        // poison the single shard: panic while holding its lock
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].lock().unwrap();
            panic!("injected panic under the shard lock");
        })
        .join();
        assert!(cache.shards[0].is_poisoned());
        // every operation keeps working; the shard restarts empty
        assert!(matches!(probe(&cache, "k", 0), Lookup::Miss));
        put(&cache, "k2", plan(2.0));
        assert!(matches!(probe(&cache, "k2", 0), Lookup::Hit(_)));
        let s = cache.stats();
        assert!(s.poison_recoveries >= 1, "{s:?}");
        assert_eq!(s.entries, 1);
    }
}
