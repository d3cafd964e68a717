//! Per-client estimation sessions for long-running services.
//!
//! A service front-end handles requests from many clients concurrently;
//! each client may want its own [`EstimationContext`] so that
//! one client's synopsis working set cannot evict another's, and so cache
//! statistics are attributable per client. [`SessionPool`] owns those
//! contexts, keyed by an opaque client id, with two eviction policies
//! layered on top:
//!
//! * **idle TTL** — sessions untouched for longer than
//!   [`SessionPoolConfig::idle_ttl`] are dropped on the next [`SessionPool::sweep`]
//!   (services call it from their periodic tick);
//! * **LRU overflow** — creating a session beyond
//!   [`SessionPoolConfig::max_sessions`] evicts the least-recently-used one,
//!   bounding resident memory to `max_sessions x session_byte_budget` plus
//!   slack.
//!
//! Dropping a session only discards *cached* synopses (and its stats) — the
//! authoritative sketches live in the service's persistent catalog, so an
//! evicted client transparently re-loads on its next request.
//!
//! `mnc-served` does not use a pool: its catalog holds one immutable copy
//! of every leaf sketch, which every request shares.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::session::EstimationContext;

/// Sizing and retention policy for a [`SessionPool`].
#[derive(Debug, Clone)]
pub struct SessionPoolConfig {
    /// Hard cap on concurrently resident sessions; creating one more evicts
    /// the least-recently-used session.
    pub max_sessions: usize,
    /// Synopsis byte budget handed to each session's [`EstimationContext`].
    pub session_byte_budget: usize,
    /// Sessions idle for longer than this are dropped by [`SessionPool::sweep`].
    pub idle_ttl: Duration,
}

impl Default for SessionPoolConfig {
    fn default() -> Self {
        SessionPoolConfig {
            max_sessions: 64,
            session_byte_budget: 16 << 20,
            idle_ttl: Duration::from_secs(300),
        }
    }
}

/// Lifetime counters for a pool (monotonic; never reset by eviction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionPoolStats {
    /// Sessions ever created.
    pub created: u64,
    /// Sessions dropped by the idle-TTL sweep.
    pub evicted_idle: u64,
    /// Sessions dropped to make room under `max_sessions`.
    pub evicted_lru: u64,
    /// Requests checked out across all sessions, ever.
    pub requests: u64,
}

struct ClientSession {
    ctx: EstimationContext,
    last_used: Instant,
    requests: u64,
}

/// Owns one [`EstimationContext`] per active client.
///
/// The pool itself is single-threaded; services wrap it in a `Mutex` and
/// hold the lock only long enough to run one request's estimation walk
/// (synopsis loads and propagation are cheap relative to connection I/O).
pub struct SessionPool {
    config: SessionPoolConfig,
    sessions: HashMap<Arc<str>, ClientSession>,
    stats: SessionPoolStats,
}

impl SessionPool {
    /// Empty pool with the given policy. `max_sessions` is clamped to at
    /// least 1 — a pool that can hold nothing would evict the session it
    /// just created.
    pub fn new(mut config: SessionPoolConfig) -> Self {
        config.max_sessions = config.max_sessions.max(1);
        SessionPool {
            config,
            sessions: HashMap::new(),
            stats: SessionPoolStats::default(),
        }
    }

    /// Checks out `client`'s context, creating it on first sight (evicting
    /// the LRU session if the pool is full). Marks the session used *now*.
    pub fn session(&mut self, client: &str) -> &mut EstimationContext {
        self.session_at(client, Instant::now())
    }

    /// [`Self::session`] with an explicit clock, for deterministic tests.
    pub fn session_at(&mut self, client: &str, now: Instant) -> &mut EstimationContext {
        self.session_init_at(client, now, |ctx| ctx)
    }

    /// [`Self::session_at`] with a decoration hook applied to **newly
    /// created** contexts only — services use it to attach each session to
    /// their telemetry daemon's recorder
    /// (`EstimationContext::with_recorder`).
    pub fn session_init_at(
        &mut self,
        client: &str,
        now: Instant,
        init: impl FnOnce(EstimationContext) -> EstimationContext,
    ) -> &mut EstimationContext {
        if !self.sessions.contains_key(client) {
            if self.sessions.len() >= self.config.max_sessions {
                self.evict_lru();
            }
            self.stats.created += 1;
            self.sessions.insert(
                Arc::from(client),
                ClientSession {
                    ctx: init(EstimationContext::with_byte_budget(
                        self.config.session_byte_budget,
                    )),
                    last_used: now,
                    requests: 0,
                },
            );
        }
        self.stats.requests += 1;
        let s = self.sessions.get_mut(client).expect("just inserted");
        s.last_used = now;
        s.requests += 1;
        &mut s.ctx
    }

    /// Drops every session — services call this when the underlying data
    /// changes (a catalog entry replaced or deleted) so no session serves a
    /// stale cached synopsis under a reused name.
    pub fn clear(&mut self) {
        self.sessions.clear();
    }

    /// Drops sessions idle for longer than the configured TTL; returns how
    /// many were evicted.
    pub fn sweep(&mut self) -> usize {
        self.sweep_at(Instant::now())
    }

    /// [`Self::sweep`] with an explicit clock, for deterministic tests.
    pub fn sweep_at(&mut self, now: Instant) -> usize {
        let ttl = self.config.idle_ttl;
        let before = self.sessions.len();
        self.sessions
            .retain(|_, s| now.saturating_duration_since(s.last_used) <= ttl);
        let evicted = before - self.sessions.len();
        self.stats.evicted_idle += evicted as u64;
        evicted
    }

    /// Drops `client`'s session if present (e.g. an explicit reset).
    pub fn remove(&mut self, client: &str) -> bool {
        self.sessions.remove(client).is_some()
    }

    /// Number of resident sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no sessions are resident.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SessionPoolStats {
        self.stats
    }

    /// Request count for `client`, if resident.
    pub fn requests(&self, client: &str) -> Option<u64> {
        self.sessions.get(client).map(|s| s.requests)
    }

    fn evict_lru(&mut self) {
        if let Some(name) = self
            .sessions
            .iter()
            .min_by_key(|(_, s)| s.last_used)
            .map(|(name, _)| Arc::clone(name))
        {
            self.sessions.remove(&*name);
            self.stats.evicted_lru += 1;
        }
    }
}

// A service shares the pool across connection threads behind a mutex.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SessionPool>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_estimators::{MncEstimator, SparsityEstimator};
    use mnc_matrix::gen;
    use rand::SeedableRng;

    fn pool(max: usize, ttl_secs: u64) -> SessionPool {
        SessionPool::new(SessionPoolConfig {
            max_sessions: max,
            session_byte_budget: 16 << 20,
            idle_ttl: Duration::from_secs(ttl_secs),
        })
    }

    #[test]
    fn sessions_are_isolated_per_client() {
        let mut r = rand::rngs::StdRng::seed_from_u64(7);
        let m = Arc::new(gen::rand_uniform(&mut r, 30, 20, 0.1));
        let est = MncEstimator::new();
        let mut p = pool(8, 300);

        // Client "a" warms its cache; client "b" must still miss.
        p.session("a")
            .named_synopsis(&est, "X", || est.build(&m))
            .unwrap();
        p.session("a")
            .named_synopsis(&est, "X", || est.build(&m))
            .unwrap();
        assert_eq!(p.session("a").stats().cache_hits, 1);

        p.session("b")
            .named_synopsis(&est, "X", || est.build(&m))
            .unwrap();
        assert_eq!(p.session("b").stats().cache_hits, 0);
        assert_eq!(p.session("b").stats().cache_misses, 1);

        assert_eq!(p.len(), 2);
        assert_eq!(p.stats().created, 2);
        assert_eq!(p.requests("a"), Some(3));
    }

    #[test]
    fn idle_sessions_are_swept() {
        let mut p = pool(8, 60);
        let t0 = Instant::now();
        p.session_at("a", t0);
        p.session_at("b", t0 + Duration::from_secs(50));

        // At t0+100s, "a" is 100s idle (out), "b" is 50s idle (kept).
        assert_eq!(p.sweep_at(t0 + Duration::from_secs(100)), 1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.requests("a"), None);
        assert_eq!(p.requests("b"), Some(1));
        assert_eq!(p.stats().evicted_idle, 1);

        // Touching "b" resets its clock.
        p.session_at("b", t0 + Duration::from_secs(120));
        assert_eq!(p.sweep_at(t0 + Duration::from_secs(150)), 0);
    }

    #[test]
    fn overflow_evicts_least_recently_used() {
        let mut p = pool(2, 3600);
        let t0 = Instant::now();
        p.session_at("a", t0);
        p.session_at("b", t0 + Duration::from_secs(1));
        p.session_at("a", t0 + Duration::from_secs(2)); // "b" is now LRU
        p.session_at("c", t0 + Duration::from_secs(3));

        assert_eq!(p.len(), 2);
        assert!(p.requests("b").is_none(), "LRU session must be evicted");
        assert!(p.requests("a").is_some() && p.requests("c").is_some());
        assert_eq!(p.stats().evicted_lru, 1);
        assert_eq!(p.stats().created, 3);
    }

    #[test]
    fn evicted_client_recreates_transparently() {
        let mut p = pool(1, 3600);
        let t0 = Instant::now();
        p.session_at("a", t0);
        p.session_at("b", t0 + Duration::from_secs(1));
        // "a" was evicted; asking again just creates a fresh session.
        p.session_at("a", t0 + Duration::from_secs(2));
        assert_eq!(p.requests("a"), Some(1));
        assert_eq!(p.stats().created, 3);
        assert_eq!(p.stats().evicted_lru, 2);
    }

    #[test]
    fn remove_and_zero_capacity_clamp() {
        let mut p = pool(0, 3600); // clamped to 1
        p.session("only");
        assert_eq!(p.len(), 1);
        assert!(p.remove("only"));
        assert!(!p.remove("only"));
        assert!(p.is_empty());
    }
}
