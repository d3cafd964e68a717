//! Estimation sessions: cached, instrumented synopsis propagation.
//!
//! An [`EstimationContext`] wraps the stateless [`SparsityEstimator`] calls
//! with a byte-budgeted LRU synopsis cache and [`EstimationStats`] counters.
//! Repeated estimation over the same matrices — the planner re-costing a DAG
//! after a rewrite, the chain optimizer probing many parenthesizations, a
//! benchmark sweeping estimators — reuses leaf synopses and propagated
//! intermediates instead of rebuilding them per call.
//!
//! Cache keys combine the estimator's [`cache_key`] (name + config knobs)
//! with a content [`SynopsisKey`]. A leaf is identified by its
//! `Arc<CsrMatrix>` allocation (an `Arc<CsrMatrix>` is immutable, and the
//! key's `Weak` keeps a dropped matrix's address from being reused while
//! the key lives). An intermediate is identified by its operation and the
//! keys of its inputs — a Merkle key. Propagation is pure, so equal keys
//! describe equal synopses whichever DAG, walk or chain DP derived them:
//! a fresh DAG over the same leaves, a clone, and the chain optimizer's
//! subchain of the same parenthesization all share one entry.
//!
//! DAG estimation runs the one [`Walk`] with the context as its synopsis
//! store: the cache answers the walk's probes, the walk opens its spans on
//! the context's recorder around the work itself (on whichever thread does
//! it), and at the walk's merge every build, propagate, and estimate feeds
//! the statistics and histograms, and its synopsis the cache. The chain
//! optimizer's leaves and subchain products go through the same span and
//! timing helper. `mnc-served` drives the same walk without a cache or a
//! recorder. Every estimator call is a pure function of its arguments (MNC
//! seeds each rounding from the propagation's own inputs), so on a cold
//! cache the context answers the service's bits, a leaf root included —
//! asserted by the property tests.
//!
//! [`cache_key`]: SparsityEstimator::cache_key

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Weak};

use mnc_core::{EstimationStats, LruSynopsisCache};
use mnc_estimators::{OpKind, Result, SparsityEstimator, Synopsis};
use mnc_kernels::WorkerPool;
use mnc_matrix::CsrMatrix;
use mnc_obs::{Counter, Gauge, Histogram, Recorder};

use crate::dag::{ExprDag, ExprNode, NodeId};
use crate::walk::{self, NodeEstimate, SynopsisStore, Walk};

/// Cache key: the estimator's [`cache_key`](SparsityEstimator::cache_key)
/// and what the synopsis describes.
pub(crate) type CacheKey = (Arc<str>, SynopsisKey);

/// Default cache budget: plenty for sketches (`O(m+n)` each), while bounding
/// the damage when bitsets or retained samples get cached.
pub const DEFAULT_BYTE_BUDGET: usize = 64 << 20;

/// What a cached synopsis describes (the estimator-independent half of the
/// cache key; the estimator half is [`SparsityEstimator::cache_key`]).
///
/// Keys compare by content. A derived key hashes in O(1) (its hash is
/// computed once, from its inputs' hashes) and compares pointer-equal keys
/// in O(1); otherwise equality walks the structure. Equal hashes alone
/// never make two keys equal.
#[derive(Debug, Clone)]
pub enum SynopsisKey {
    /// A base matrix, identified by its `Arc` allocation. Hashed and
    /// compared by pointer; while any key holds the `Weak`, the allocation
    /// cannot be reused, so a matrix allocated after the original was
    /// dropped never takes over its key.
    Leaf(Weak<CsrMatrix>),
    /// An intermediate: an operation over the keys of its inputs.
    Derived(Arc<DerivedKey>),
    /// A synopsis registered under an external name — the key used by
    /// services whose leaves live in a catalog rather than in-process
    /// `Arc<CsrMatrix>` memory.
    Named {
        /// Catalog name of the synopsis.
        name: Arc<str>,
    },
}

/// The content of a [`SynopsisKey::Derived`] key.
#[derive(Debug)]
pub struct DerivedKey {
    /// Hash of `op` and the inputs' hashes.
    hash: u64,
    /// The operation, including reshape's target shape.
    op: OpKind,
    /// The inputs' keys, in operand order.
    inputs: Box<[SynopsisKey]>,
}

impl SynopsisKey {
    /// Key for a base matrix.
    pub fn leaf(m: &Arc<CsrMatrix>) -> SynopsisKey {
        SynopsisKey::Leaf(Arc::downgrade(m))
    }

    /// Key for the result of `op` over inputs with the given keys.
    pub fn derived(op: &OpKind, inputs: impl IntoIterator<Item = SynopsisKey>) -> SynopsisKey {
        let inputs: Box<[SynopsisKey]> = inputs.into_iter().collect();
        let mut h = DefaultHasher::new();
        // The variant and reshape's target shape; equality still compares
        // the whole op.
        std::mem::discriminant(op).hash(&mut h);
        if let OpKind::Reshape { rows, cols } = op {
            (rows, cols).hash(&mut h);
        }
        for i in inputs.iter() {
            h.write_u64(i.content_hash());
        }
        SynopsisKey::Derived(Arc::new(DerivedKey {
            hash: h.finish(),
            op: op.clone(),
            inputs,
        }))
    }

    /// Key for a named (catalog) synopsis.
    pub fn named(name: &str) -> SynopsisKey {
        SynopsisKey::Named { name: name.into() }
    }

    fn content_hash(&self) -> u64 {
        match self {
            SynopsisKey::Leaf(m) => Weak::as_ptr(m) as usize as u64,
            SynopsisKey::Derived(d) => d.hash,
            SynopsisKey::Named { name } => {
                let mut h = DefaultHasher::new();
                name.hash(&mut h);
                h.finish()
            }
        }
    }

    /// Structural equality. `proven` holds the derived pairs already found
    /// equal, so a subexpression shared along many paths is compared once
    /// per pair of keys rather than once per path.
    fn same(&self, other: &SynopsisKey, proven: &mut Vec<(usize, usize)>) -> bool {
        match (self, other) {
            (SynopsisKey::Leaf(a), SynopsisKey::Leaf(b)) => Weak::ptr_eq(a, b),
            (SynopsisKey::Named { name: a }, SynopsisKey::Named { name: b }) => a == b,
            (SynopsisKey::Derived(a), SynopsisKey::Derived(b)) => {
                if Arc::ptr_eq(a, b) {
                    return true;
                }
                if a.hash != b.hash || a.op != b.op || a.inputs.len() != b.inputs.len() {
                    return false;
                }
                let pair = (Arc::as_ptr(a) as usize, Arc::as_ptr(b) as usize);
                if proven.contains(&pair) {
                    return true;
                }
                let eq = a
                    .inputs
                    .iter()
                    .zip(b.inputs.iter())
                    .all(|(x, y)| x.same(y, proven));
                if eq {
                    proven.push(pair);
                }
                eq
            }
            _ => false,
        }
    }
}

impl PartialEq for SynopsisKey {
    fn eq(&self, other: &SynopsisKey) -> bool {
        self.same(other, &mut Vec::new())
    }
}

impl Eq for SynopsisKey {}

impl Hash for SynopsisKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
    }
}

/// A cached, instrumented estimation session over one or more DAGs.
///
/// ```
/// use mnc_expr::{EstimationContext, ExprDag};
/// use mnc_estimators::MncEstimator;
/// use mnc_matrix::CsrMatrix;
/// use std::sync::Arc;
///
/// let mut dag = ExprDag::new();
/// let a = dag.leaf("A", Arc::new(CsrMatrix::identity(8)));
/// let b = dag.leaf("B", Arc::new(CsrMatrix::identity(8)));
/// let c = dag.matmul(a, b).unwrap();
///
/// let est = MncEstimator::new();
/// let mut ctx = EstimationContext::new();
/// let first = ctx.estimate_root(&est, &dag, c).unwrap();
/// let second = ctx.estimate_root(&est, &dag, c).unwrap();
/// assert_eq!(first, second);
/// assert!(ctx.stats().cache_hits > 0); // leaves came from the cache
/// ```
pub struct EstimationContext {
    cache: LruSynopsisCache<CacheKey, Arc<Synopsis>>,
    stats: EstimationStats,
    /// Reused per-walk memo buffer (cleared, not reallocated, between walks).
    memo: Vec<Option<Arc<Synopsis>>>,
    /// Worker pool for the walk's wavefront levels (1 thread runs them
    /// inline); results are bit-identical regardless of this knob.
    pool: WorkerPool,
    rec: Recorder,
    // Metric handles are resolved once per context (registry lookups take a
    // mutex) and are no-ops when the recorder is disabled.
    m_hit: Counter,
    m_miss: Counter,
    m_evict: Counter,
    g_resident: Gauge,
    h_build: Histogram,
    h_estimate: Histogram,
    h_propagate: Histogram,
}

impl Default for EstimationContext {
    fn default() -> Self {
        Self::new()
    }
}

impl EstimationContext {
    /// Context with the default byte budget ([`DEFAULT_BYTE_BUDGET`]).
    pub fn new() -> Self {
        Self::with_byte_budget(DEFAULT_BYTE_BUDGET)
    }

    /// Context keeping at most `byte_budget` bytes of synopses resident
    /// (sized by [`Synopsis::size_bytes`]).
    pub fn with_byte_budget(byte_budget: usize) -> Self {
        EstimationContext {
            cache: LruSynopsisCache::new(byte_budget),
            stats: EstimationStats::new(),
            memo: Vec::new(),
            pool: WorkerPool::default(),
            rec: Recorder::disabled(),
            m_hit: Counter::noop(),
            m_miss: Counter::noop(),
            m_evict: Counter::noop(),
            g_resident: Gauge::noop(),
            h_build: Histogram::noop(),
            h_estimate: Histogram::noop(),
            h_propagate: Histogram::noop(),
        }
    }

    /// Attaches an observability [`Recorder`]: every build, estimate, and
    /// propagate in this session becomes a span, and the cache feeds the
    /// recorder's metrics registry (`cache.hit`/`cache.miss`/
    /// `cache.evictions` counters, `cache.bytes_resident` gauge,
    /// `session.*_ns` latency histograms). A disabled recorder restores the
    /// zero-overhead path.
    ///
    /// Several contexts may share one recorder: counters and histograms
    /// accumulate across them, and `cache.bytes_resident` reads the sum of
    /// the live contexts' resident bytes (each context adds its deltas and
    /// takes its share back out when dropped).
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.m_hit = rec.counter("cache.hit");
        self.m_miss = rec.counter("cache.miss");
        self.m_evict = rec.counter("cache.evictions");
        let resident = self.resident_share();
        self.g_resident.add(-resident);
        self.g_resident = rec.gauge("cache.bytes_resident");
        self.g_resident.add(resident);
        self.h_build = rec.histogram("session.build_ns");
        self.h_estimate = rec.histogram("session.estimate_ns");
        self.h_propagate = rec.histogram("session.propagate_ns");
        self.rec = rec;
        self
    }

    /// Materializes independent DAG nodes on up to `threads` pool workers
    /// (topological wavefronts; default 1 runs each level inline). Results,
    /// statistics and the first error are bit-identical to `threads == 1`:
    /// estimator calls are pure (MNC seeds its rounding from each
    /// propagation's inputs), and partial results merge in fixed node
    /// order.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = WorkerPool::new(threads);
        self
    }

    /// The configured worker-thread budget (1 runs the walk's levels inline).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The session's recorder (disabled unless [`with_recorder`] was used).
    ///
    /// [`with_recorder`]: EstimationContext::with_recorder
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Session counters collected so far.
    pub fn stats(&self) -> &EstimationStats {
        &self.stats
    }

    /// Resets the counters without dropping cached synopses.
    pub fn reset_stats(&mut self) {
        let resident = self.stats.bytes_resident;
        self.stats = EstimationStats::new();
        self.stats.bytes_resident = resident;
    }

    /// Drops every cached synopsis (counters are kept).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
        self.g_resident.add(-self.resident_share());
        self.stats.bytes_resident = 0;
    }

    /// This context's contribution to the `cache.bytes_resident` gauge.
    fn resident_share(&self) -> i64 {
        i64::try_from(self.stats.bytes_resident).unwrap_or(i64::MAX)
    }

    /// Number of synopses currently cached.
    pub fn cached_synopses(&self) -> usize {
        self.cache.len()
    }

    /// The synopsis of a base matrix under `est`, cached across calls.
    /// This is the entry point for non-DAG consumers such as the chain
    /// optimizer ([`sparse_chain_order_cached`](crate::chain_opt::sparse_chain_order_cached)).
    pub fn leaf_synopsis<E: SparsityEstimator + ?Sized>(
        &mut self,
        est: &E,
        m: &Arc<CsrMatrix>,
    ) -> Result<Arc<Synopsis>> {
        self.keyed_leaf(est, (est.cache_key().into(), SynopsisKey::leaf(m)), m)
    }

    /// [`leaf_synopsis`](Self::leaf_synopsis) under a key the caller
    /// already built.
    pub(crate) fn keyed_leaf<E: SparsityEstimator + ?Sized>(
        &mut self,
        est: &E,
        key: CacheKey,
        m: &Arc<CsrMatrix>,
    ) -> Result<Arc<Synopsis>> {
        if let Some(syn) = self.lookup(&key) {
            return Ok(syn);
        }
        let (syn, ns) = walk::build(est, Some(&self.rec), m)?;
        self.built(key, ns, &syn);
        Ok(syn)
    }

    /// The synopsis of `op` over `ins` under `key` (the derived key of
    /// `op` over the inputs' keys): looked up, else propagated and
    /// admitted. The chain optimizer's subchain products take this path,
    /// so a subchain and a DAG node of the same parenthesization share an
    /// entry.
    pub(crate) fn keyed_op<E: SparsityEstimator + ?Sized>(
        &mut self,
        est: &E,
        key: CacheKey,
        op: &OpKind,
        ins: &[&Synopsis],
    ) -> Result<Arc<Synopsis>> {
        if let Some(syn) = self.lookup(&key) {
            return Ok(syn);
        }
        let (syn, ns) = walk::propagate(est, Some(&self.rec), op, ins)?;
        self.propagated(op, key, ns, &syn);
        Ok(syn)
    }

    /// The synopsis registered under an external `name` for `est`, loading
    /// it through `load` on a miss. This is the leaf entry point for
    /// services whose matrices live in a persistent catalog: the session
    /// keeps hot decoded synopses resident (LRU, byte-budgeted) while cold
    /// ones are re-loaded on demand — never re-*built* from a matrix.
    ///
    /// Loads are timed into the session's build statistics (a load is the
    /// catalog path's analogue of a build) under a `"load"` span.
    pub fn named_synopsis<E: SparsityEstimator + ?Sized>(
        &mut self,
        est: &E,
        name: &str,
        load: impl FnOnce() -> Result<Synopsis>,
    ) -> Result<Arc<Synopsis>> {
        let key = (est.cache_key().into(), SynopsisKey::named(name));
        if let Some(syn) = self.lookup(&key) {
            return Ok(syn);
        }
        let (syn, ns) = walk::timed(
            Some(&self.rec),
            |rec| rec.span("load").op(est.name()),
            || load().map(Arc::new),
        )?;
        self.built(key, ns, &syn);
        Ok(syn)
    }

    /// The synopsis of any DAG node under `est`: leaf synopses are built,
    /// intermediates propagated (memoized), everything consulted against
    /// and admitted to the cache.
    pub fn node_synopsis<E: SparsityEstimator + ?Sized>(
        &mut self,
        est: &E,
        dag: &ExprDag,
        id: NodeId,
    ) -> Result<Arc<Synopsis>> {
        self.walk(est, dag, |w| w.synopsis(id))
    }

    /// Estimates the sparsity of `root`: a leaf root answers its (cached)
    /// synopsis' sparsity, an operation root is *estimated* directly from
    /// the input synopses (never propagated).
    pub fn estimate_root<E: SparsityEstimator + ?Sized>(
        &mut self,
        est: &E,
        dag: &ExprDag,
        root: NodeId,
    ) -> Result<f64> {
        self.walk(est, dag, |w| w.estimate_root(root))
    }

    /// Estimates the sparsity of every operation node in the DAG, in
    /// topological order (the cached counterpart of
    /// [`estimate_all`](crate::estimate_all)).
    pub fn estimate_all<E: SparsityEstimator + ?Sized>(
        &mut self,
        est: &E,
        dag: &ExprDag,
    ) -> Result<Vec<NodeEstimate>> {
        let synopses = self.materialize_all(est, dag)?;
        Ok(dag
            .iter()
            .filter(|(_, node)| matches!(node, ExprNode::Op { .. }))
            .map(|(id, _)| NodeEstimate {
                id,
                sparsity: synopses[id].sparsity(),
            })
            .collect())
    }

    /// Materializes the synopsis of *every* node, returned in topological
    /// order. Used by [`Planner::plan_with_context`](crate::Planner::plan_with_context),
    /// which needs all intermediates to cost and format them.
    pub fn materialize_all<E: SparsityEstimator + ?Sized>(
        &mut self,
        est: &E,
        dag: &ExprDag,
    ) -> Result<Vec<Arc<Synopsis>>> {
        self.walk(est, dag, |w| w.materialize_all())
    }

    /// Runs `f` on a walk over `dag` with this context as its synopsis
    /// store, reusing the context's memo buffer.
    fn walk<E: SparsityEstimator + ?Sized, R>(
        &mut self,
        est: &E,
        dag: &ExprDag,
        f: impl FnOnce(&mut Walk<'_, E, ExprDag, Cached<'_>>) -> Result<R>,
    ) -> Result<R> {
        let pool = self.pool.clone();
        let memo = std::mem::take(&mut self.memo);
        let store = Cached {
            ekey: est.cache_key().into(),
            keys: vec![None; dag.len()],
            ctx: self,
        };
        let mut walk = Walk::new(est, dag, &pool, store, memo);
        let out = f(&mut walk);
        self.memo = walk.into_memo();
        out
    }

    /// Probes the cache, counting the hit or miss.
    fn lookup(&mut self, key: &CacheKey) -> Option<Arc<Synopsis>> {
        let hit = self.cache.get(key).map(Arc::clone);
        if hit.is_some() {
            self.stats.cache_hits += 1;
            self.m_hit.incr();
        } else {
            self.stats.cache_misses += 1;
            self.m_miss.incr();
        }
        hit
    }

    /// Accounts a leaf synopsis built (or loaded) in `ns` and admits it.
    fn built(&mut self, key: CacheKey, ns: u64, syn: &Arc<Synopsis>) {
        self.stats.record_build(ns);
        self.h_build.record(ns);
        self.admit(key, syn);
    }

    /// Accounts an intermediate propagated in `ns` and admits it.
    fn propagated(&mut self, op: &OpKind, key: CacheKey, ns: u64, syn: &Arc<Synopsis>) {
        self.stats.record_propagate(op.name(), ns);
        self.h_propagate.record(ns);
        self.admit(key, syn);
    }

    /// Inserts into the cache and refreshes the cache-derived counters.
    fn admit(&mut self, key: CacheKey, syn: &Arc<Synopsis>) {
        let bytes = usize::try_from(syn.size_bytes()).unwrap_or(usize::MAX);
        self.cache.insert(key, Arc::clone(syn), bytes);
        let evicted = self.cache.evictions() - self.stats.evictions;
        if evicted > 0 {
            self.m_evict.add(evicted);
        }
        self.stats.evictions = self.cache.evictions();
        let before = self.resident_share();
        self.stats.bytes_resident = self.cache.bytes_resident() as u64;
        self.g_resident.add(self.resident_share() - before);
    }
}

impl Drop for EstimationContext {
    /// Takes this context's resident bytes back out of a gauge that other
    /// contexts may share.
    fn drop(&mut self) {
        self.g_resident.add(-self.resident_share());
    }
}

/// The key of node `id` of `dag`, as a walk keys it: a leaf's matrix, or
/// an op over its inputs' keys. `keys` memoizes them by node id.
pub(crate) fn node_key(keys: &mut [Option<SynopsisKey>], dag: &ExprDag, id: NodeId) -> SynopsisKey {
    if let Some(key) = &keys[id] {
        return key.clone();
    }
    let key = match dag.node(id) {
        ExprNode::Leaf { matrix, .. } => SynopsisKey::leaf(matrix),
        ExprNode::Op { op, inputs } => {
            SynopsisKey::derived(op, inputs.iter().map(|&i| node_key(keys, dag, i)))
        }
    };
    keys[id] = Some(key.clone());
    key
}

/// The context as a walk's synopsis store: the cache answers probes and
/// admits results, the recorder gets the walk's spans, and statistics and
/// histograms see every step.
struct Cached<'c> {
    ctx: &'c mut EstimationContext,
    /// The estimator half of every cache key, formatted once per walk.
    ekey: Arc<str>,
    /// Each node's content key, built at most once per walk.
    keys: Vec<Option<SynopsisKey>>,
}

impl Cached<'_> {
    fn cache_key(&mut self, dag: &ExprDag, id: NodeId) -> CacheKey {
        (Arc::clone(&self.ekey), node_key(&mut self.keys, dag, id))
    }
}

impl SynopsisStore<ExprDag> for Cached<'_> {
    type Key = SynopsisKey;

    fn key(&mut self, dag: &ExprDag, id: NodeId) -> Option<SynopsisKey> {
        Some(node_key(&mut self.keys, dag, id))
    }

    fn probe(&mut self, dag: &ExprDag, id: NodeId) -> Option<Arc<Synopsis>> {
        let key = self.cache_key(dag, id);
        self.ctx.lookup(&key)
    }

    fn recorder(&self) -> Option<&Recorder> {
        Some(&self.ctx.rec)
    }

    fn done(&mut self, dag: &ExprDag, id: NodeId, ns: u64, syn: Option<&Arc<Synopsis>>) {
        match (dag.node(id), syn) {
            (ExprNode::Leaf { .. }, Some(syn)) => {
                let key = self.cache_key(dag, id);
                self.ctx.built(key, ns, syn);
            }
            (ExprNode::Op { op, .. }, Some(syn)) => {
                let key = self.cache_key(dag, id);
                self.ctx.propagated(op, key, ns, syn);
            }
            (ExprNode::Op { op, .. }, None) => {
                self.ctx.stats.record_estimate(op.name(), ns);
                self.ctx.h_estimate.record(ns);
            }
            (ExprNode::Leaf { .. }, None) => unreachable!("a leaf is built, never estimated"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_estimators::{BitsetEstimator, MncEstimator, OpKind};
    use mnc_matrix::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn chain_dag(seed: u64) -> (ExprDag, NodeId) {
        let mut r = rng(seed);
        let mut dag = ExprDag::new();
        let a = dag.leaf("A", Arc::new(gen::rand_uniform(&mut r, 40, 30, 0.1)));
        let b = dag.leaf("B", Arc::new(gen::rand_uniform(&mut r, 30, 50, 0.08)));
        let c = dag.leaf("C", Arc::new(gen::rand_uniform(&mut r, 50, 20, 0.12)));
        let ab = dag.matmul(a, b).unwrap();
        let root = dag.matmul(ab, c).unwrap();
        (dag, root)
    }

    #[test]
    fn cold_context_matches_uncached_estimate() {
        let (dag, root) = chain_dag(1);
        for threads in [1, 4] {
            let uncached = crate::walk::estimate_root(
                &MncEstimator::new().with_build_threads(threads),
                &dag,
                root,
            )
            .unwrap();
            let mut ctx = EstimationContext::new();
            let cached = ctx
                .estimate_root(&MncEstimator::new().with_build_threads(threads), &dag, root)
                .unwrap();
            assert_eq!(uncached, cached, "threads={threads}");
        }
    }

    #[test]
    fn second_estimate_hits_the_cache_and_agrees() {
        let (dag, root) = chain_dag(2);
        let est = MncEstimator::new();
        let mut ctx = EstimationContext::new();
        let first = ctx.estimate_root(&est, &dag, root).unwrap();
        let misses = ctx.stats().cache_misses;
        assert_eq!(ctx.stats().cache_hits, 0);
        let second = ctx.estimate_root(&est, &dag, root).unwrap();
        assert_eq!(first, second);
        // Second walk: the AB intermediate hits (short-circuiting its
        // leaves) and the C leaf hits.
        assert_eq!(ctx.stats().cache_hits, 2);
        assert_eq!(ctx.stats().cache_misses, misses);
        assert_eq!(ctx.stats().builds, 3);
    }

    #[test]
    fn estimators_do_not_share_cache_entries() {
        let (dag, root) = chain_dag(3);
        let mut ctx = EstimationContext::new();
        ctx.estimate_root(&MncEstimator::new(), &dag, root).unwrap();
        let misses_after_mnc = ctx.stats().cache_misses;
        // A different estimator must not see MNC's synopses...
        ctx.estimate_root(&BitsetEstimator::default(), &dag, root)
            .unwrap();
        assert_eq!(ctx.stats().cache_misses, misses_after_mnc * 2);
        // ...and neither must a differently-configured MNC.
        ctx.estimate_root(&MncEstimator::basic(), &dag, root)
            .unwrap();
        assert_eq!(ctx.stats().cache_misses, misses_after_mnc * 3);
        // Re-running the originals hits for all three.
        let hits = ctx.stats().cache_hits;
        ctx.estimate_root(&MncEstimator::new(), &dag, root).unwrap();
        assert!(ctx.stats().cache_hits > hits);
    }

    #[test]
    fn shared_leaf_is_cached_across_dags() {
        let mut r = rng(4);
        let shared = Arc::new(gen::rand_uniform(&mut r, 30, 30, 0.1));
        let est = MncEstimator::new();
        let mut ctx = EstimationContext::new();

        let mut dag1 = ExprDag::new();
        let a = dag1.leaf("A", Arc::clone(&shared));
        let t = dag1.transpose(a).unwrap();
        ctx.estimate_root(&est, &dag1, t).unwrap();

        let mut dag2 = ExprDag::new();
        let a2 = dag2.leaf("A", Arc::clone(&shared));
        let b2 = dag2.leaf("B", Arc::new(gen::rand_uniform(&mut r, 30, 30, 0.2)));
        let root2 = dag2.matmul(a2, b2).unwrap();
        ctx.estimate_root(&est, &dag2, root2).unwrap();

        // The shared Arc'd matrix was built once, hit once; dag2's second
        // leaf was a fresh build.
        assert_eq!(ctx.stats().builds, 2);
        assert_eq!(ctx.stats().cache_hits, 1);
    }

    #[test]
    fn intermediates_are_keyed_by_content() {
        let (dag, root) = chain_dag(5);
        let est = MncEstimator::new();
        let mut ctx = EstimationContext::new();
        ctx.estimate_root(&est, &dag, root).unwrap();
        let (misses, builds) = (ctx.stats().cache_misses, ctx.stats().builds);

        // A clone, and a DAG built afresh over the same matrices, describe
        // the same expression: the AB intermediate and the C leaf hit.
        let mut fresh = ExprDag::new();
        let leaves: Vec<NodeId> = (0..3)
            .map(|i| {
                let ExprNode::Leaf { name, matrix } = dag.node(i) else {
                    unreachable!("chain_dag adds its leaves first")
                };
                fresh.leaf(name.clone(), Arc::clone(matrix))
            })
            .collect();
        let ab = fresh.matmul(leaves[0], leaves[1]).unwrap();
        let fresh_root = fresh.matmul(ab, leaves[2]).unwrap();
        for (other, other_root) in [(dag.clone(), root), (fresh, fresh_root)] {
            let hits = ctx.stats().cache_hits;
            ctx.estimate_root(&est, &other, other_root).unwrap();
            assert_eq!(ctx.stats().cache_hits, hits + 2);
            assert_eq!(ctx.stats().cache_misses, misses);
            assert_eq!(ctx.stats().builds, builds);
        }
    }

    #[test]
    fn a_dropped_leaf_never_answers_for_a_new_matrix() {
        // Same shape and nnz: a diagonal, then one full row. Without the
        // key pinning the first allocation, the second matrix could reuse
        // its address and be answered with the diagonal's sketch.
        let n = 100;
        let est = MncEstimator::new();
        let mut ctx = EstimationContext::new();
        let a = Arc::new(CsrMatrix::identity(n));
        let sa = ctx.leaf_synopsis(&est, &a).unwrap();
        drop(a);
        let b = Arc::new(CsrMatrix::from_triples(n, n, (0..n).map(|j| (0, j, 1.0))).unwrap());
        assert_eq!(b.nnz(), n);
        let sb = ctx.leaf_synopsis(&est, &b).unwrap();
        let hr = |syn: &Synopsis| match syn {
            Synopsis::Mnc(s) => s.sketch.hr.clone(),
            _ => unreachable!("MNC synopsis"),
        };
        assert_eq!(hr(&sa), vec![1; n]);
        assert_eq!(hr(&sb), hr(&est.build(&b).unwrap()));
        assert_eq!(ctx.stats().builds, 2);
        assert_eq!(ctx.stats().cache_hits, 0);
    }

    #[test]
    fn reshapes_to_different_shapes_never_share_an_entry() {
        let mut r = rng(15);
        let m = Arc::new(gen::rand_uniform(&mut r, 12, 10, 0.2));
        let est = MncEstimator::new();
        let mut ctx = EstimationContext::new();
        let mut shapes = Vec::new();
        for (rows, cols) in [(24, 5), (5, 24), (24, 5)] {
            let mut dag = ExprDag::new();
            let a = dag.leaf("A", Arc::clone(&m));
            let re = dag.reshape(a, rows, cols).unwrap();
            shapes.push(ctx.node_synopsis(&est, &dag, re).unwrap().shape());
        }
        assert_eq!(shapes, [(24, 5), (5, 24), (24, 5)]);
        // Two distinct reshapes propagated; the third hit the first's.
        let props: u64 = ctx.stats().per_op().map(|(_, s)| s.propagations).sum();
        assert_eq!(props, 2);
        assert_eq!(ctx.stats().cache_hits, 2); // the leaf, then reshape(24, 5)
    }

    #[test]
    fn equal_keys_need_equal_structure_not_just_equal_hashes() {
        let mut r = rng(16);
        let a = Arc::new(gen::rand_uniform(&mut r, 6, 6, 0.3));
        let b = Arc::new(gen::rand_uniform(&mut r, 6, 6, 0.3));
        let (ka, kb) = (SynopsisKey::leaf(&a), SynopsisKey::leaf(&b));
        let ab = SynopsisKey::derived(&OpKind::MatMul, [ka.clone(), kb.clone()]);
        assert_eq!(
            ab,
            SynopsisKey::derived(&OpKind::MatMul, [ka.clone(), kb.clone()])
        );
        assert_ne!(
            ab,
            SynopsisKey::derived(&OpKind::MatMul, [kb.clone(), ka.clone()])
        );
        assert_ne!(
            ab,
            SynopsisKey::derived(&OpKind::EwMul, [ka.clone(), kb.clone()])
        );
        assert_ne!(ka, SynopsisKey::named("A"));
        // Forge a hash collision: same hash, different operation.
        let SynopsisKey::Derived(d) = &ab else {
            unreachable!()
        };
        let forged = SynopsisKey::Derived(Arc::new(DerivedKey {
            hash: d.hash,
            op: OpKind::EwAdd,
            inputs: vec![ka, kb].into(),
        }));
        assert_ne!(ab, forged);
        // A deep doubling expression compares in linear time.
        let double = |k: SynopsisKey| SynopsisKey::derived(&OpKind::EwAdd, [k.clone(), k]);
        let (mut x, mut y) = (SynopsisKey::leaf(&a), SynopsisKey::leaf(&a));
        for _ in 0..64 {
            x = double(x);
            y = double(y);
        }
        assert_eq!(x, y);
    }

    #[test]
    fn estimate_all_matches_uncached() {
        let (dag, _) = chain_dag(6);
        let uncached = crate::walk::estimate_all(&MncEstimator::new(), &dag).unwrap();
        let mut ctx = EstimationContext::new();
        let cached = ctx.estimate_all(&MncEstimator::new(), &dag).unwrap();
        assert_eq!(uncached.len(), cached.len());
        for (u, c) in uncached.iter().zip(&cached) {
            assert_eq!(u.id, c.id);
            assert_eq!(u.sparsity, c.sparsity);
        }
    }

    #[test]
    fn tiny_budget_still_estimates_correctly() {
        let (dag, root) = chain_dag(7);
        let baseline = crate::walk::estimate_root(&MncEstimator::new(), &dag, root).unwrap();
        // A budget too small to hold anything: every walk rebuilds, the
        // answer must not change.
        let mut ctx = EstimationContext::with_byte_budget(1);
        let est = MncEstimator::new();
        let a = ctx.estimate_root(&est, &dag, root).unwrap();
        assert_eq!(a, baseline);
        assert_eq!(ctx.stats().cache_hits, 0);
        assert_eq!(ctx.cached_synopses(), 0);
    }

    #[test]
    fn stats_expose_per_op_timings_and_reset() {
        let (dag, root) = chain_dag(8);
        let est = MncEstimator::new();
        let mut ctx = EstimationContext::new();
        ctx.estimate_root(&est, &dag, root).unwrap();
        let matmul = ctx
            .stats()
            .per_op()
            .find(|(op, _)| *op == OpKind::MatMul.name())
            .map(|(_, s)| s.clone())
            .expect("matmul bucket");
        assert_eq!(matmul.estimates, 1); // root estimated
        assert_eq!(matmul.propagations, 1); // AB propagated
        assert!(ctx.stats().bytes_resident > 0);

        ctx.reset_stats();
        assert_eq!(ctx.stats().builds, 0);
        assert!(
            ctx.stats().bytes_resident > 0,
            "resident bytes survive reset"
        );
        ctx.clear_cache();
        assert_eq!(ctx.stats().bytes_resident, 0);
        assert_eq!(ctx.cached_synopses(), 0);
    }

    #[test]
    fn recorder_attached_session_traces_without_changing_results() {
        let (dag, root) = chain_dag(10);

        let est = MncEstimator::new();
        let mut plain = EstimationContext::new();
        let baseline = plain.estimate_root(&est, &dag, root).unwrap();

        let rec = Recorder::enabled();
        let mut traced = EstimationContext::new().with_recorder(rec.clone());
        let s = traced.estimate_root(&est, &dag, root).unwrap();
        assert_eq!(s.to_bits(), baseline.to_bits(), "tracing must not perturb");

        // Cold walk: 3 builds, 1 propagate (AB), 1 root estimate.
        let spans = rec.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "build").count(), 3);
        assert_eq!(spans.iter().filter(|s| s.name == "propagate").count(), 1);
        assert_eq!(spans.iter().filter(|s| s.name == "estimate").count(), 1);
        let prop = spans.iter().find(|s| s.name == "propagate").unwrap();
        assert_eq!(prop.op.as_deref(), Some("matmul"));
        assert!(prop.synopsis_bytes.is_some());

        // Registry mirrors the session stats.
        let snap = rec.registry().unwrap().snapshot();
        assert_eq!(snap.counters["cache.miss"], traced.stats().cache_misses);
        assert_eq!(snap.histograms["session.build_ns"].count(), 3);
        assert_eq!(
            snap.gauges["cache.bytes_resident"],
            traced.stats().bytes_resident as i64
        );

        // Warm walk adds hits to both views.
        traced.estimate_root(&est, &dag, root).unwrap();
        let snap = rec.registry().unwrap().snapshot();
        assert_eq!(snap.counters["cache.hit"], traced.stats().cache_hits);
        assert!(snap.counters["cache.hit"] > 0);
    }

    #[test]
    fn resident_gauge_sums_the_live_contexts_on_a_shared_recorder() {
        let (dag, root) = chain_dag(10);
        let rec = Recorder::enabled();
        let gauge = || rec.registry().unwrap().snapshot().gauges["cache.bytes_resident"];

        let mut a = EstimationContext::new().with_recorder(rec.clone());
        a.estimate_root(&MncEstimator::new(), &dag, root).unwrap();
        let (other, other_root) = chain_dag(14);
        let mut b = EstimationContext::new().with_recorder(rec.clone());
        b.estimate_root(&MncEstimator::new(), &other, other_root)
            .unwrap();
        let share_a = a.stats().bytes_resident as i64;
        let share_b = b.stats().bytes_resident as i64;
        assert!(share_a > 0 && share_b > 0);
        assert_eq!(gauge(), share_a + share_b);

        // Clearing or dropping a context takes out only its own share.
        b.clear_cache();
        assert_eq!(gauge(), share_a);
        b.estimate_root(&MncEstimator::new(), &other, other_root)
            .unwrap();
        assert_eq!(gauge(), share_a + share_b);
        drop(a);
        assert_eq!(gauge(), share_b);
        drop(b);
        assert_eq!(gauge(), 0);
    }

    #[test]
    fn named_synopses_cache_per_estimator_and_reload_on_miss() {
        let mut r = rng(12);
        let m = Arc::new(gen::rand_uniform(&mut r, 24, 18, 0.15));
        let est = MncEstimator::new();
        let basic = MncEstimator::basic();
        let mut ctx = EstimationContext::new();

        let loads = std::cell::Cell::new(0u32);
        let load = |e: &MncEstimator| {
            loads.set(loads.get() + 1);
            e.build(&m)
        };

        let s1 = ctx.named_synopsis(&est, "A", || load(&est)).unwrap();
        let s2 = ctx.named_synopsis(&est, "A", || load(&est)).unwrap();
        assert_eq!(loads.get(), 1, "second lookup must hit the cache");
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(ctx.stats().cache_hits, 1);

        // A differently-configured estimator gets its own entry...
        ctx.named_synopsis(&basic, "A", || load(&basic)).unwrap();
        assert_eq!(loads.get(), 2);
        // ...and a different name under the first estimator loads again.
        ctx.named_synopsis(&est, "B", || load(&est)).unwrap();
        assert_eq!(loads.get(), 3);

        // Named entries obey the byte budget like every other synopsis.
        let mut tiny = EstimationContext::with_byte_budget(1);
        tiny.named_synopsis(&est, "A", || est.build(&m)).unwrap();
        tiny.named_synopsis(&est, "A", || est.build(&m)).unwrap();
        assert_eq!(tiny.stats().cache_hits, 0);
        assert_eq!(tiny.stats().cache_misses, 2);
    }

    /// Two independent matmul branches joined by an ew-add: a DAG with a
    /// genuinely parallel wavefront (4 leaves at level 0, 2 matmuls at
    /// level 1) plus a sequential tail.
    fn wide_dag(seed: u64) -> (ExprDag, NodeId) {
        let mut r = rng(seed);
        let mut dag = ExprDag::new();
        let a = dag.leaf("A", Arc::new(gen::rand_uniform(&mut r, 40, 32, 0.1)));
        let b = dag.leaf("B", Arc::new(gen::rand_uniform(&mut r, 32, 28, 0.08)));
        let c = dag.leaf("C", Arc::new(gen::rand_uniform(&mut r, 40, 32, 0.12)));
        let d = dag.leaf("D", Arc::new(gen::rand_uniform(&mut r, 32, 28, 0.15)));
        let ab = dag.matmul(a, b).unwrap();
        let cd = dag.matmul(c, d).unwrap();
        let sum = dag.ew_add(ab, cd).unwrap();
        let root = dag.transpose(sum).unwrap();
        (dag, root)
    }

    fn deterministic_mnc() -> MncEstimator {
        MncEstimator::with_config(
            "MNC",
            mnc_core::MncConfig {
                probabilistic_rounding: false,
                ..mnc_core::MncConfig::default()
            },
        )
    }

    #[test]
    fn parallel_wavefront_is_bit_identical_and_stats_match() {
        let (dag, root) = wide_dag(20);
        // Baseline: one worker per estimator.
        let run = |threads: usize, est: &dyn SparsityEstimator| {
            let mut ctx = EstimationContext::new().with_threads(threads);
            let cold = ctx.estimate_root(est, &dag, root).unwrap();
            let props: u64 = ctx.stats().per_op().map(|(_, s)| s.propagations).sum();
            let cold_stats = (
                ctx.stats().builds,
                props,
                ctx.stats().cache_hits,
                ctx.stats().cache_misses,
            );
            let warm = ctx.estimate_root(est, &dag, root).unwrap();
            let warm_hits = ctx.stats().cache_hits;
            (cold, cold_stats, warm, warm_hits)
        };
        let estimators: Vec<Box<dyn SparsityEstimator>> = vec![
            Box::new(MncEstimator::new()),
            Box::new(deterministic_mnc()),
            Box::new(mnc_estimators::DensityMapEstimator::default()),
            // DynDMap omitted: it does not support MatMul *propagation*
            // (only direct estimates); its threads bit-identity is covered
            // in the estimators crate.
            Box::new(BitsetEstimator::default()),
            Box::new(mnc_estimators::MetaAcEstimator),
        ];
        for est in &estimators {
            let baseline = run(1, est.as_ref());
            for threads in [2, 8] {
                let par = run(threads, est.as_ref());
                assert_eq!(
                    baseline.0.to_bits(),
                    par.0.to_bits(),
                    "{} cold, threads={threads}",
                    est.name()
                );
                assert_eq!(baseline.1, par.1, "{} stats, threads={threads}", est.name());
                assert_eq!(baseline.2.to_bits(), par.2.to_bits());
                assert_eq!(baseline.3, par.3);
            }
        }
    }

    /// Default MNC, recording the threads its propagations run on.
    struct ThreadSpy {
        inner: MncEstimator,
        threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    }

    impl SparsityEstimator for ThreadSpy {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn build(&self, m: &Arc<CsrMatrix>) -> Result<Synopsis> {
            self.inner.build(m)
        }
        fn estimate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<f64> {
            self.inner.estimate(op, inputs)
        }
        fn propagate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<Synopsis> {
            let id = std::thread::current().id();
            self.threads.lock().unwrap().push(id);
            self.inner.propagate(op, inputs)
        }
    }

    #[test]
    fn default_mnc_takes_the_wavefront_bit_identically() {
        // Probabilistic rounding seeds from each propagation's inputs, so
        // default MNC runs the parallel wavefront and still answers the
        // one-worker walk's bits.
        let (dag, root) = wide_dag(21);
        let spy = ThreadSpy {
            inner: MncEstimator::new(),
            threads: Default::default(),
        };
        let seq = EstimationContext::new()
            .estimate_root(&MncEstimator::new(), &dag, root)
            .unwrap();
        let mut ctx = EstimationContext::new().with_threads(8);
        let par = ctx.estimate_root(&spy, &dag, root).unwrap();
        assert_eq!(seq.to_bits(), par.to_bits());
        let here = std::thread::current().id();
        let off_caller = spy.threads.lock().unwrap().iter().any(|&t| t != here);
        assert!(off_caller, "no propagation ran on a pool worker");
        let all = ctx.materialize_all(&spy, &dag).unwrap();
        let seq_all = EstimationContext::new()
            .materialize_all(&MncEstimator::new(), &dag)
            .unwrap();
        for (p, s) in all.iter().zip(&seq_all) {
            assert_eq!(p.sparsity().to_bits(), s.sparsity().to_bits());
        }
    }

    #[test]
    fn a_shared_mnc_estimator_answers_like_fresh_ones() {
        // No state outlives a call: interleaving walks of different DAGs
        // through one estimator never moves an answer.
        let dags: Vec<_> = (30..34).map(wide_dag).collect();
        let fresh: Vec<u64> = dags
            .iter()
            .map(|(dag, root)| {
                let est = MncEstimator::new();
                let mut ctx = EstimationContext::new();
                ctx.estimate_root(&est, dag, *root).unwrap().to_bits()
            })
            .collect();
        let shared = MncEstimator::new();
        for order in [[0, 1, 2, 3], [3, 1, 0, 2], [2, 2, 0, 3]] {
            for i in order {
                let (dag, root) = &dags[i];
                let got = EstimationContext::new()
                    .estimate_root(&shared, dag, *root)
                    .unwrap();
                assert_eq!(got.to_bits(), fresh[i], "dag {i} in order {order:?}");
            }
        }
    }

    #[test]
    fn parallel_materialize_all_and_node_synopsis_agree_with_sequential() {
        let (dag, root) = wide_dag(22);
        let est = deterministic_mnc();
        let mut seq = EstimationContext::new();
        let mut par = EstimationContext::new().with_threads(4);
        let s_all = seq.materialize_all(&est, &dag).unwrap();
        let p_all = par.materialize_all(&est, &dag).unwrap();
        assert_eq!(s_all.len(), p_all.len());
        for (s, p) in s_all.iter().zip(&p_all) {
            assert_eq!(s.sparsity().to_bits(), p.sparsity().to_bits());
        }
        assert_eq!(seq.stats().builds, par.stats().builds);
        let props = |ctx: &EstimationContext| -> u64 {
            ctx.stats().per_op().map(|(_, s)| s.propagations).sum()
        };
        assert_eq!(props(&seq), props(&par));
        // node_synopsis on a warm parallel context hits everywhere.
        let hits = par.stats().cache_hits;
        let syn = par.node_synopsis(&est, &dag, root).unwrap();
        assert_eq!(
            syn.sparsity().to_bits(),
            s_all.last().unwrap().sparsity().to_bits()
        );
        assert!(par.stats().cache_hits > hits);
    }

    #[test]
    fn parallel_walk_traces_the_same_span_counts() {
        let (dag, root) = wide_dag(23);
        let est = deterministic_mnc();
        let rec = Recorder::enabled();
        let mut ctx = EstimationContext::new()
            .with_threads(4)
            .with_recorder(rec.clone());
        ctx.estimate_root(&est, &dag, root).unwrap();
        let spans = rec.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "build").count(), 4);
        assert_eq!(spans.iter().filter(|s| s.name == "propagate").count(), 3);
        assert_eq!(spans.iter().filter(|s| s.name == "estimate").count(), 1);
        let snap = rec.registry().unwrap().snapshot();
        assert_eq!(snap.counters["cache.miss"], ctx.stats().cache_misses);
        assert_eq!(snap.histograms["session.build_ns"].count(), 4);
    }

    #[test]
    fn leaf_root_answers_its_cached_synopsis() {
        let mut r = rng(9);
        let m = gen::rand_uniform(&mut r, 10, 10, 0.23);
        let s = m.sparsity();
        let mut dag = ExprDag::new();
        let leaf = dag.leaf("A", Arc::new(m));
        let mut ctx = EstimationContext::new();
        let est = MncEstimator::new();
        // MNC's leaf synopsis counts the matrix's non-zeros exactly.
        assert_eq!(ctx.estimate_root(&est, &dag, leaf).unwrap(), s);
        assert_eq!((ctx.stats().builds, ctx.stats().cache_misses), (1, 1));
        assert_eq!(ctx.estimate_root(&est, &dag, leaf).unwrap(), s);
        assert_eq!((ctx.stats().builds, ctx.stats().cache_hits), (1, 1));
    }
}
