//! Dependence-graph construction for the vectorizer.
//!
//! For every pair of references to the same array (with at least one
//! write), a Section 2 dependence problem is built over the union of both
//! statements' normalized loop variables, tested — delinearization first —
//! and turned into direction-vector-labelled edges. Dependences whose
//! leftmost non-`=` direction is `>` flow backwards and are reversed;
//! loop-independent (all-`=`) dependences follow textual order. Edge kinds
//! (true/anti/output) are assigned *after* testing, as the paper notes.
//!
//! The pair-testing loop is the scalability bottleneck of the whole
//! pipeline, so [`build_dependence_graph_with`] shards the reference-pair
//! worklist across scoped worker threads ([`EngineConfig::workers`]) and
//! memoizes verdicts of canonicalized problems ([`crate::cache`]). Results
//! are folded back into the graph in source-pair order, so the emitted
//! edges are identical for any worker count; `workers = 1` runs the exact
//! serial code path.

use crate::cache::{CacheLookup, CachedOutcome, KeyMode, VerdictCache};
use crate::chaos::{ChaosCtx, FaultKind};
use delin_core::DelinearizationTest;
use delin_dep::acyclic::AcyclicTest;
use delin_dep::banerjee::BanerjeeTest;
use delin_dep::budget::{BudgetSpec, DegradeReason, ResourceBudget};
use delin_dep::dirvec::{summarize, Dir, DirVec};
use delin_dep::exact::SubtreeStore;
use delin_dep::gcd::GcdTest;
use delin_dep::hierarchy;
use delin_dep::problem::{DependenceProblem, ProblemArena, ProblemBuilder};
use delin_dep::residue::LoopResidueTest;
use delin_dep::siv::SivTest;
use delin_dep::svpc::SvpcTest;
use delin_dep::verdict::{DependenceTest, Verdict};
use delin_frontend::access::{AccessKind, AccessSite, Subscript};
use delin_frontend::ast::{Program, StmtId};
use delin_numeric::{Assumptions, SymPoly};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// The classification of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Write then read (flow).
    True,
    /// Read then write.
    Anti,
    /// Write then write.
    Output,
}

/// One dependence edge of the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEdge {
    /// Source statement.
    pub src: StmtId,
    /// Sink statement.
    pub dst: StmtId,
    /// Kind (true/anti/output).
    pub kind: DepKind,
    /// The involved array (or scalar).
    pub array: String,
    /// Direction vectors over the common loops (summarized; all leading
    /// atoms are `<` or `=` after reversal).
    pub dir_vecs: Vec<DirVec>,
    /// Carrying level: 1-based index of the outermost loop that carries the
    /// dependence; `None` for loop-independent edges.
    pub level: Option<usize>,
    /// Which dependence test decided this pair.
    pub tested_by: &'static str,
}

/// Statistics from graph construction.
///
/// Every field except the wall-clock timings is deterministic for a given
/// program/configuration, independent of the worker count — see
/// [`DepStats::verdict_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepStats {
    /// Reference pairs examined.
    pub pairs_tested: usize,
    /// Pairs proven independent.
    pub proven_independent: usize,
    /// Pairs proven independent, per deciding test.
    pub independent_by: BTreeMap<&'static str, usize>,
    /// Pairs that fell back to the conservative all-`*` answer.
    pub conservative_pairs: usize,
    /// Pairs decided by each test (any verdict), cache hits included.
    pub decided_by: BTreeMap<&'static str, usize>,
    /// Test invocations charged to this run, per technique. With caching
    /// enabled each distinct canonical problem is charged exactly once, at
    /// its *first reference in source-pair order* — not at whichever pair's
    /// worker happened to compute it — so the counts are deterministic for
    /// any worker count, and a run against a shared cross-unit cache
    /// reports the same numbers as a run with a private cache (the shared
    /// cache changes who *executes*, never what a unit is charged).
    pub attempts_by: BTreeMap<&'static str, usize>,
    /// Pairs whose canonical problem was already charged to this run (see
    /// [`DepStats::attempts_by`] for the attribution rule).
    pub cache_hits: usize,
    /// Pairs charged as this run's first reference of their canonical
    /// problem.
    pub cache_misses: usize,
    /// Exact-solver search nodes charged across all decisions (same
    /// attribution rule as [`DepStats::attempts_by`]).
    pub solver_nodes: u64,
    /// Direction-refinement queries issued against the incremental
    /// solve-tree store (same attribution rule as
    /// [`DepStats::attempts_by`]: each canonical problem charged once, at
    /// its first reference in source-pair order).
    pub refine_queries: u64,
    /// Refinement queries answered by replaying a memoized subtree instead
    /// of re-enumerating. Zero when incremental solving is disabled.
    pub subtree_reuses: u64,
    /// Exact-solver nodes the subtree replays avoided re-spending (the
    /// incremental win; compare against [`DepStats::solver_nodes`]).
    pub nodes_saved: u64,
    /// Entries evicted from the verdict cache while this run executed, to
    /// respect [`DepStats::cache_capacity`]. Deterministic for a serial run
    /// with a fixed arrival order; under concurrent workers (or a cache
    /// shared with concurrently-running units) the victim choice depends on
    /// scheduling. Deliberately **excluded** from [`VerdictStats`] and every
    /// determinism-checked report — eviction never changes verdicts or
    /// attribution, only who re-computes. `0` with an unbounded cache.
    pub cache_evictions: u64,
    /// The verdict-cache entry capacity in force (`0` = unbounded; see
    /// `DELIN_CACHE_CAP`).
    pub cache_capacity: usize,
    /// Pairs whose verdict was reached under an exhausted resource budget
    /// and therefore degraded to a conservative answer. Deterministic for
    /// node-limit budgets; deadline and cancellation trips depend on wall
    /// clock by nature.
    pub degraded_pairs: usize,
    /// Degraded pairs broken down by the budget axis that tripped.
    pub degraded_by: BTreeMap<DegradeReason, usize>,
    /// Total wall-clock nanoseconds spent testing pairs. Not deterministic.
    pub test_nanos: u128,
    /// Wall-clock nanoseconds per deciding test. Not deterministic.
    pub nanos_by: BTreeMap<&'static str, u128>,
}

/// The scheduling-independent subset of [`DepStats`]: equal between serial
/// and parallel runs of the same configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerdictStats {
    /// Reference pairs examined.
    pub pairs_tested: usize,
    /// Pairs proven independent.
    pub proven_independent: usize,
    /// Pairs proven independent, per deciding test.
    pub independent_by: BTreeMap<&'static str, usize>,
    /// Pairs that fell back to the conservative all-`*` answer.
    pub conservative_pairs: usize,
    /// Pairs decided by each test.
    pub decided_by: BTreeMap<&'static str, usize>,
    /// Executed test invocations per technique.
    pub attempts_by: BTreeMap<&'static str, usize>,
    /// Pairs answered from the verdict cache.
    pub cache_hits: usize,
    /// Pairs that had to be solved.
    pub cache_misses: usize,
    /// Exact-solver search nodes spent across all decisions.
    pub solver_nodes: u64,
    /// Direction-refinement queries issued.
    pub refine_queries: u64,
    /// Refinement queries answered from a memoized subtree.
    pub subtree_reuses: u64,
    /// Exact-solver nodes the subtree replays avoided.
    pub nodes_saved: u64,
    /// Pairs degraded by budget exhaustion.
    pub degraded_pairs: usize,
    /// Degraded pairs per tripped budget axis.
    pub degraded_by: BTreeMap<DegradeReason, usize>,
}

impl DepStats {
    /// Everything except wall-clock timings.
    ///
    /// Each distinct canonical problem is computed exactly once even under
    /// parallel construction (racing workers block on the same cache cell),
    /// so hit/miss counts, executed attempts, and solver node totals are
    /// all deterministic — only the `nanos` fields vary run to run.
    pub fn verdict_stats(&self) -> VerdictStats {
        VerdictStats {
            pairs_tested: self.pairs_tested,
            proven_independent: self.proven_independent,
            independent_by: self.independent_by.clone(),
            conservative_pairs: self.conservative_pairs,
            decided_by: self.decided_by.clone(),
            attempts_by: self.attempts_by.clone(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            solver_nodes: self.solver_nodes,
            refine_queries: self.refine_queries,
            subtree_reuses: self.subtree_reuses,
            nodes_saved: self.nodes_saved,
            degraded_pairs: self.degraded_pairs,
            degraded_by: self.degraded_by.clone(),
        }
    }

    /// A compact multi-line human-readable summary, used by the bench
    /// binaries.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pairs: {} tested, {} independent, {} conservative",
            self.pairs_tested, self.proven_independent, self.conservative_pairs
        );
        let _ = writeln!(
            out,
            "cache: {} hits / {} misses, solver nodes: {}, test time: {:.3} ms",
            self.cache_hits,
            self.cache_misses,
            self.solver_nodes,
            self.test_nanos as f64 / 1.0e6
        );
        // Only rendered when the incremental solver actually refined, so
        // battery-only (and incremental-off, reuse-free) runs keep the
        // historical summary shape.
        if self.refine_queries > 0 {
            let _ = writeln!(
                out,
                "refines: {} queries, {} subtree reuses, {} nodes saved",
                self.refine_queries, self.subtree_reuses, self.nodes_saved
            );
        }
        // Only rendered when a bounded cache actually evicted, keeping the
        // historical summary shape for unbounded runs.
        if self.cache_evictions > 0 {
            let _ = writeln!(
                out,
                "evictions: {} (capacity {})",
                self.cache_evictions, self.cache_capacity
            );
        }
        // Only rendered when something actually degraded, so budget-clean
        // runs keep the historical byte-identical summary.
        if self.degraded_pairs > 0 {
            let by: Vec<String> =
                self.degraded_by.iter().map(|(reason, n)| format!("{reason}={n}")).collect();
            let _ = writeln!(out, "degraded: {} pairs ({})", self.degraded_pairs, by.join(", "));
        }
        let names: std::collections::BTreeSet<&'static str> =
            self.decided_by.keys().chain(self.attempts_by.keys()).copied().collect();
        let mut by_test: Vec<String> = Vec::new();
        for name in names {
            let decided = self.decided_by.get(name).copied().unwrap_or(0);
            let attempts = self.attempts_by.get(name).copied().unwrap_or(0);
            let nanos = self.nanos_by.get(name).copied().unwrap_or(0);
            by_test.push(format!(
                "{name}: {decided} decided, {attempts} ran, {:.3} ms",
                nanos as f64 / 1.0e6
            ));
        }
        let _ = writeln!(out, "per-test: {}", by_test.join("; "));
        out
    }

    /// Accumulates another run's statistics into this one. The bench
    /// binaries use this to aggregate over a whole corpus.
    pub fn merge(&mut self, other: &DepStats) {
        self.pairs_tested += other.pairs_tested;
        self.proven_independent += other.proven_independent;
        self.conservative_pairs += other.conservative_pairs;
        for (name, n) in &other.independent_by {
            *self.independent_by.entry(name).or_insert(0) += n;
        }
        for (name, n) in &other.decided_by {
            *self.decided_by.entry(name).or_insert(0) += n;
        }
        for (name, n) in &other.attempts_by {
            *self.attempts_by.entry(name).or_insert(0) += n;
        }
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.cache_capacity = self.cache_capacity.max(other.cache_capacity);
        self.solver_nodes += other.solver_nodes;
        self.refine_queries += other.refine_queries;
        self.subtree_reuses += other.subtree_reuses;
        self.nodes_saved += other.nodes_saved;
        self.degraded_pairs += other.degraded_pairs;
        for (reason, n) in &other.degraded_by {
            *self.degraded_by.entry(*reason).or_insert(0) += n;
        }
        self.test_nanos += other.test_nanos;
        for (name, n) in &other.nanos_by {
            *self.nanos_by.entry(name).or_insert(0) += n;
        }
    }

    /// Folds one pair's outcome in, attributing cached work to the first
    /// reference of each canonical problem in fold (source-pair) order.
    /// `seen_keys` is the per-run set of already-charged key fingerprints.
    fn absorb(&mut self, pair: &PairOutcome, seen_keys: &mut HashSet<u64>) {
        let outcome = &*pair.outcome;
        self.pairs_tested += 1;
        *self.decided_by.entry(outcome.tested_by).or_insert(0) += 1;
        let charged = match pair.key_fp {
            Some(fp) => {
                let first = seen_keys.insert(fp);
                if first {
                    self.cache_misses += 1;
                } else {
                    self.cache_hits += 1;
                }
                first
            }
            // Cache disabled: every pair executed its own decision.
            None => true,
        };
        if charged {
            for name in &outcome.attempts {
                *self.attempts_by.entry(name).or_insert(0) += 1;
            }
            self.solver_nodes += outcome.solver_nodes;
            // The reuse counters ride the same single-charge rule: a pair
            // that hits the verdict cache contributes *nothing* here even
            // though the entry it reused also reused subtrees — otherwise a
            // refinement could be double-counted (once as a cache hit, once
            // as a subtree reuse). See `cache_hits_charge_reuse_counters_once`.
            self.refine_queries += outcome.refine_queries;
            self.subtree_reuses += outcome.subtree_reuses;
            self.nodes_saved += outcome.nodes_saved;
        }
        if let Some(reason) = outcome.degraded {
            self.degraded_pairs += 1;
            *self.degraded_by.entry(reason).or_insert(0) += 1;
        }
        self.test_nanos += pair.nanos;
        *self.nanos_by.entry(outcome.tested_by).or_insert(0) += pair.nanos;
    }
}

/// The dependence graph of a program.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Statements in source order.
    pub stmts: Vec<StmtId>,
    /// Edges.
    pub edges: Vec<DepEdge>,
    /// Construction statistics.
    pub stats: DepStats,
    /// Sorted fingerprints of the canonical problems charged to this run
    /// (empty when the verdict cache is disabled). The batch layer unions
    /// these across units to count corpus-wide distinct problems without
    /// consulting live cache state — which keeps the count deterministic
    /// even when some units fail or are retried.
    pub charged_keys: Vec<u64>,
}

impl DepGraph {
    /// Edges out of a statement.
    pub fn successors(&self, s: StmtId) -> impl Iterator<Item = &DepEdge> {
        self.edges.iter().filter(move |e| e.src == s)
    }

    /// `true` when some edge connects the pair in either direction.
    pub fn connected(&self, a: StmtId, b: StmtId) -> bool {
        self.edges.iter().any(|e| (e.src == a && e.dst == b) || (e.src == b && e.dst == a))
    }
}

/// Which dependence tests drive the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TestChoice {
    /// Delinearization first; classical battery on `Unknown` (the VIC
    /// configuration).
    #[default]
    DelinearizationFirst,
    /// Delinearization only.
    DelinearizationOnly,
    /// Classical battery only (the ablation baseline: GCD + Banerjee +
    /// exact single-index tests + SVPC + Acyclic + Loop Residue).
    BatteryOnly,
}

/// Configuration of the dependence-graph engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Which dependence tests drive the analysis.
    pub choice: TestChoice,
    /// Worker threads for the pair worklist; `0` means one per available
    /// CPU. `1` runs the serial code path (bit-for-bit the pre-parallel
    /// behaviour); any other count produces identical edges and verdict
    /// stats because results are folded in source-pair order.
    pub workers: usize,
    /// Memoize verdicts of canonicalized problems (see [`crate::cache`]).
    pub cache: bool,
    /// Key representation for the verdict cache (see [`KeyMode`]): 128-bit
    /// structural fingerprints (the default hot path) or eagerly rendered
    /// canonical strings (the A/B baseline). Pure perf knob — hits, misses,
    /// verdicts and edges are identical either way. Defaults to
    /// [`KeyMode::Fp`]. Ignored when a shared cache is passed in (the cache
    /// carries its own mode).
    pub keying: KeyMode,
    /// Incremental exact solving: direction-refinement queries replay
    /// memoized solve subtrees (see [`delin_dep::exact::SubtreeStore`])
    /// instead of re-enumerating, and the verdict cache stores each
    /// problem's solver state alongside its verdict. Off reproduces the
    /// fresh-solve engine node for node — the A/B baseline; verdicts and
    /// edges are identical either way. On by default.
    pub incremental: bool,
    /// Entry capacity for the private verdict cache (`0` = unbounded; see
    /// [`crate::cache::cache_cap_from_env`] / `DELIN_CACHE_CAP`). Bounded
    /// caches evict least-recently-used entries; edges, verdicts and all
    /// determinism-checked statistics are identical under any capacity.
    /// Ignored when a shared cache is passed in (the cache carries its own
    /// capacity).
    pub cache_cap: usize,
    /// The arena miss path: decisions lease their working problems from a
    /// per-worker [`ProblemArena`] (capacity-reusing `clone_from` instead
    /// of builder rebuilds) and the exact solvers reuse per-worker DFS
    /// scratch. Off reproduces the allocate-per-step engine — the A/B
    /// baseline; edges, verdicts, node counts and every
    /// determinism-checked statistic are identical either way. On by
    /// default.
    pub arena: bool,
    /// Resource budget specification. Armed once per graph construction
    /// (the deadline covers the whole run); each pair then observes the
    /// armed limits through a fresh trip flag, so exhaustion degrades that
    /// pair to a conservative verdict without corrupting its neighbours.
    pub budget: BudgetSpec,
    /// Deterministic fault injection, threaded in by the batch layer.
    /// `None` (always, unless the `chaos` cargo feature is enabled *and* a
    /// seed was requested) runs the engine unfaulted.
    pub chaos: Option<ChaosCtx>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            choice: TestChoice::default(),
            workers: workers_from_env(),
            cache: true,
            keying: KeyMode::Fp,
            incremental: true,
            arena: true,
            cache_cap: crate::cache::cache_cap_from_env(),
            budget: BudgetSpec::default(),
            chaos: None,
        }
    }
}

/// The default worker count: the `DELIN_WORKERS` environment variable when
/// set to a number, else `0` (one worker per available CPU).
///
/// CI runs the whole test suite under `DELIN_WORKERS=1` and
/// `DELIN_WORKERS=4` so that any scheduling-dependence in code using
/// default configurations fails the determinism gate.
pub fn workers_from_env() -> usize {
    std::env::var("DELIN_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

impl EngineConfig {
    /// The worker-thread count after resolving `0` to the machine's
    /// available parallelism and clamping by the worklist length.
    pub fn effective_workers(&self, worklist_len: usize) -> usize {
        let auto = || std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let requested = if self.workers == 0 { auto() } else { self.workers };
        requested.max(1).min(worklist_len.max(1))
    }
}

/// Builds the dependence graph of a program with the default engine
/// configuration (all cores, verdict cache enabled) and the given test
/// choice.
pub fn build_dependence_graph(
    program: &Program,
    assumptions: &Assumptions,
    choice: TestChoice,
) -> DepGraph {
    build_dependence_graph_with(
        program,
        assumptions,
        &EngineConfig { choice, ..EngineConfig::default() },
    )
}

/// The outcome of testing one reference pair, recorded off-thread and
/// folded into the graph in source-pair order.
///
/// Holds the cache's `Arc` directly: a cache hit costs one reference-count
/// bump, never a clone of the outcome payload (the per-entry `attempts`
/// vector in particular). Verdict, attempts and the incremental-solving
/// counters are pure functions of the cache key; the fold charges them to
/// the first reference of the key in source-pair order, never to later
/// hits.
struct PairOutcome {
    outcome: Arc<CachedOutcome>,
    /// Wall-clock spent by *this* pair (lookup included), not by whoever
    /// computed the entry.
    nanos: u128,
    /// Fingerprint of the canonical cache key; `None` when the cache is
    /// disabled (every pair then counts as its own first reference).
    key_fp: Option<u64>,
}

/// Builds the dependence graph of a program under an explicit engine
/// configuration, with a private verdict cache (when enabled).
pub fn build_dependence_graph_with(
    program: &Program,
    assumptions: &Assumptions,
    config: &EngineConfig,
) -> DepGraph {
    build_dependence_graph_in(program, assumptions, config, None)
}

/// Builds the dependence graph of a program under an explicit engine
/// configuration, optionally against a shared cross-unit verdict cache
/// (see [`crate::batch`]).
///
/// When `shared` is given it is used regardless of `config.cache`; lookups
/// key on this unit's `assumptions`, so units with conflicting assumption
/// environments can safely share one cache. The emitted edges and the
/// [`DepStats::verdict_stats`] subset are identical whether the cache is
/// private, shared, or shared-and-pre-populated by other units: verdicts
/// are pure functions of the cache key, and cached work is charged to the
/// first reference in source-pair order (not to whoever computed it).
pub fn build_dependence_graph_in(
    program: &Program,
    assumptions: &Assumptions,
    config: &EngineConfig,
    shared: Option<&VerdictCache>,
) -> DepGraph {
    let sites = delin_frontend::access::collect_accesses(program, assumptions);
    let mut stmts: Vec<StmtId> = Vec::new();
    program.visit_assigns(&mut |a| stmts.push(a.id));
    let mut graph = DepGraph { stmts, ..DepGraph::default() };

    // The worklist: every unordered pair of sites on the same array with at
    // least one write; same-site pairs only for writes (self output deps
    // are subsumed by the W-W pair of the same site, which `i == j`
    // covers).
    let mut worklist: Vec<(usize, usize)> = Vec::new();
    for i in 0..sites.len() {
        for j in i..sites.len() {
            let a = &sites[i];
            let b = &sites[j];
            if a.array != b.array {
                continue;
            }
            if a.kind != AccessKind::Write && b.kind != AccessKind::Write {
                continue;
            }
            if i == j && a.kind != AccessKind::Write {
                continue;
            }
            worklist.push((i, j));
        }
    }

    let private = (shared.is_none() && config.cache)
        .then(|| VerdictCache::shared_with_cap(config.keying, config.cache_cap));
    let cache = shared.or(private.as_ref());
    // Snapshot so a shared cache only charges this run the evictions that
    // happened during it (best-effort attribution under concurrency; exact
    // for private caches — and excluded from all determinism contracts).
    let evictions_before = cache.map_or(0, VerdictCache::evictions);
    let workers = config.effective_workers(worklist.len());
    // Arm once: the deadline clock covers the whole construction. Pairs
    // derive per-pair trip flags from this via `ResourceBudget::fresh`.
    let budget = config.budget.arm();
    let ctx = PairCtx {
        assumptions,
        choice: config.choice,
        cache,
        incremental: config.incremental,
        arena: config.arena,
        budget: &budget,
        chaos: config.chaos.as_ref(),
    };

    // Site-pair blocks: maximal runs of worklist entries sharing a source
    // site. The sharded path hands out whole blocks, so one worker tests a
    // block's pairs back to back — consecutive misses share subscript
    // structure, and the canonicalizer/fingerprint pass streams over one
    // block's similarly-shaped problems instead of ping-ponging between
    // unrelated sites. (The serial path already walks blocks in order.)
    let mut blocks: Vec<(usize, usize)> = Vec::new();
    let mut block_start = 0;
    for k in 1..=worklist.len() {
        if k == worklist.len() || worklist[k].0 != worklist[block_start].0 {
            blocks.push((block_start, k));
            block_start = k;
        }
    }

    let outcomes: Vec<PairOutcome> = if workers <= 1 {
        worklist.iter().map(|&(i, j)| test_pair(&sites[i], &sites[j], (i, j), &ctx)).collect()
    } else {
        run_sharded(&sites, &worklist, &blocks, &ctx, workers)
    };

    let mut seen_keys: HashSet<u64> = HashSet::new();
    for (&(i, j), outcome) in worklist.iter().zip(&outcomes) {
        graph.stats.absorb(outcome, &mut seen_keys);
        fold_outcome(&sites[i], &sites[j], outcome, &mut graph);
    }
    let mut charged: Vec<u64> = seen_keys.into_iter().collect();
    charged.sort_unstable();
    graph.charged_keys = charged;
    graph.stats.cache_capacity = cache.map_or(0, VerdictCache::capacity);
    graph.stats.cache_evictions =
        cache.map_or(0, VerdictCache::evictions).saturating_sub(evictions_before);
    graph
}

/// Everything a pair decision needs besides the pair itself; one borrow
/// bundle shared by the serial and sharded paths.
#[derive(Clone, Copy)]
struct PairCtx<'a> {
    assumptions: &'a Assumptions,
    choice: TestChoice,
    cache: Option<&'a VerdictCache>,
    incremental: bool,
    arena: bool,
    /// The run-armed budget; pairs observe it via `fresh()`.
    budget: &'a ResourceBudget,
    chaos: Option<&'a ChaosCtx>,
}

/// Runs the worklist on `workers` scoped threads with work stealing: an
/// atomic cursor hands out site-pair *blocks* (runs of pairs sharing a
/// source site — see the block construction in
/// [`build_dependence_graph_in`]), each worker keeps `(index, outcome)`
/// locally, and the merged results are re-ordered by index so the fold is
/// independent of scheduling (block handout changes who computes, never
/// what is computed).
///
/// A panicking worker (a bug in a dependence test, or an injected chaos
/// fault) does not bring the process down here: every worker is joined
/// first — so no outcome is silently dropped and the scope never detaches
/// a thread — and then exactly one captured payload is re-raised with
/// [`std::panic::resume_unwind`]. The batch layer catches it at the unit
/// boundary and converts it into a per-unit failure.
fn run_sharded(
    sites: &[AccessSite],
    worklist: &[(usize, usize)],
    blocks: &[(usize, usize)],
    ctx: &PairCtx<'_>,
    workers: usize,
) -> Vec<PairOutcome> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<PairOutcome>> = Vec::with_capacity(worklist.len());
    slots.resize_with(worklist.len(), || None);

    let chunks: Vec<Vec<(usize, PairOutcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, PairOutcome)> = Vec::new();
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= blocks.len() {
                            break;
                        }
                        let (start, end) = blocks[b];
                        for (off, &(i, j)) in worklist[start..end].iter().enumerate() {
                            let outcome = test_pair(&sites[i], &sites[j], (i, j), ctx);
                            local.push((start + off, outcome));
                        }
                    }
                    local
                })
            })
            .collect();
        let mut done: Vec<Vec<(usize, PairOutcome)>> = Vec::with_capacity(handles.len());
        let mut payload: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(local) => done.push(local),
                Err(p) => payload = Some(p),
            }
        }
        if let Some(p) = payload {
            std::panic::resume_unwind(p);
        }
        done
    });

    for (k, outcome) in chunks.into_iter().flatten() {
        slots[k] = Some(outcome);
    }
    // Every worklist index should have produced exactly one outcome. If a
    // slot is nevertheless empty (a worker ended without reporting — which
    // the join/re-raise above is designed to prevent), substitute the
    // conservative degraded outcome instead of crashing the engine: the
    // pair keeps every direction vector and is attributed to
    // [`DegradeReason::Lost`].
    slots.into_iter().map(|s| s.unwrap_or_else(lost_outcome)).collect()
}

/// The conservative stand-in for a pair whose outcome never arrived:
/// `Unknown` (all directions survive), charged as its own reference,
/// degraded by [`DegradeReason::Lost`] so reports attribute the gap.
fn lost_outcome() -> PairOutcome {
    PairOutcome {
        outcome: Arc::new(CachedOutcome {
            verdict: Verdict::Unknown,
            tested_by: "degraded",
            attempts: Vec::new(),
            solver_nodes: 0,
            refine_queries: 0,
            subtree_reuses: 0,
            nodes_saved: 0,
            solver_state: None,
            degraded: Some(DegradeReason::Lost),
        }),
        nanos: 0,
        key_fp: None,
    }
}

/// Tests one reference pair, through the verdict cache when enabled.
///
/// Chaos pair faults are applied *here*, outside the cache: a panic fault
/// unwinds before any lookup, and a budget fault bypasses the cache
/// entirely (computing under the exhausted budget, charging the pair as
/// its own reference) so injected degradation can never leak into — or be
/// masked by — memoized full-budget entries.
fn test_pair(
    a: &AccessSite,
    b: &AccessSite,
    pair: (usize, usize),
    ctx: &PairCtx<'_>,
) -> PairOutcome {
    let started = std::time::Instant::now();
    if let Some(chaos) = ctx.chaos {
        match chaos.pair_fault(pair.0, pair.1) {
            Some(FaultKind::Panic) => panic!("{}", crate::chaos::CHAOS_PANIC_MSG),
            Some(fault) => {
                let spec =
                    ChaosCtx::faulted_spec(fault, &BudgetSpec::nodes_only(ctx.budget.node_limit()));
                let problem = pair_problem(a, b);
                let computed = decide_counted(
                    &problem,
                    ctx.assumptions,
                    ctx.choice,
                    &spec.arm(),
                    ctx.incremental,
                    ctx.arena,
                );
                return PairOutcome {
                    outcome: Arc::new(computed),
                    nanos: started.elapsed().as_nanos(),
                    key_fp: None,
                };
            }
            None => {}
        }
    }
    let problem = if ctx.arena { pair_problem_pooled(a, b) } else { pair_problem(a, b) };
    let outcome = match ctx.cache {
        Some(cache) => {
            let CacheLookup { outcome, key_fp, .. } =
                cache.lookup(ctx.assumptions, &problem, |canonical| {
                    // The per-pair budget is armed inside the compute slot:
                    // only a miss spends solver effort, so a hit never pays
                    // for the tracker.
                    decide_counted(
                        canonical,
                        ctx.assumptions,
                        ctx.choice,
                        &ctx.budget.fresh(),
                        ctx.incremental,
                        ctx.arena,
                    )
                });
            // A hit shares the cache entry's `Arc` — no payload clone.
            PairOutcome { outcome, nanos: 0, key_fp: Some(key_fp) }
        }
        None => {
            let computed = decide_counted(
                &problem,
                ctx.assumptions,
                ctx.choice,
                &ctx.budget.fresh(),
                ctx.incremental,
                ctx.arena,
            );
            PairOutcome { outcome: Arc::new(computed), nanos: 0, key_fp: None }
        }
    };
    if ctx.arena {
        recycle_pair_problem(problem);
    }
    PairOutcome { nanos: started.elapsed().as_nanos(), ..outcome }
}

/// Runs [`decide`] with exact-solver node and refinement accounting
/// around it.
///
/// When `incremental` is on the decision refines through a private
/// [`SubtreeStore`] created here — private, so the counters stay pure
/// functions of the canonical problem regardless of scheduling — and the
/// store is stowed in the returned outcome: the verdict cache memoizes it
/// alongside the verdict, which is how sibling refinements across a unit
/// (and across units sharing one cache) reach the same subtrees.
fn decide_counted(
    problem: &DependenceProblem<SymPoly>,
    assumptions: &Assumptions,
    choice: TestChoice,
    budget: &ResourceBudget,
    incremental: bool,
    arena: bool,
) -> CachedOutcome {
    let _ = delin_dep::exact::take_thread_nodes();
    delin_dep::exact::reset_thread_refine();
    let store = incremental.then(|| Arc::new(SubtreeStore::new()));
    let (verdict, tested_by, attempts) =
        decide(problem, assumptions, choice, budget, incremental, arena, store.as_ref());
    let refine = delin_dep::exact::take_thread_refine();
    CachedOutcome {
        verdict,
        tested_by,
        attempts,
        solver_nodes: delin_dep::exact::take_thread_nodes(),
        refine_queries: refine.refine_queries,
        subtree_reuses: refine.subtree_reuses,
        nodes_saved: refine.nodes_saved,
        solver_state: store,
        degraded: budget.tripped(),
    }
}

/// Builds the dependence problem for a pair of sites: variables are the
/// source loops then the sink loops; one equation per array dimension
/// where both subscripts are affine.
pub fn pair_problem(a: &AccessSite, b: &AccessSite) -> DependenceProblem<SymPoly> {
    let mut builder = DependenceProblem::<SymPoly>::builder();
    let common = a.common_loops_with(b);
    let src_vars: Vec<usize> =
        a.loops.iter().map(|l| builder.var(format!("{}1", l.var), l.upper.clone())).collect();
    let snk_vars: Vec<usize> =
        b.loops.iter().map(|l| builder.var(format!("{}2", l.var), l.upper.clone())).collect();
    for k in 0..common {
        builder.common_pair(src_vars[k], snk_vars[k]);
    }
    for (sa, sb) in a.subscripts.iter().zip(&b.subscripts) {
        if let (Subscript::Affine(fa), Subscript::Affine(fb)) = (sa, sb) {
            let _ = builder.equation_from_subscripts(fa, &src_vars, fb, &snk_vars);
        }
    }
    builder.build()
}

/// The worker's recycled storage for per-pair problem construction (arena
/// path): a builder that overwrites retired slots in place plus the pool
/// of retired problems feeding it. Per thread, so no locking on the pair
/// hot path.
#[derive(Default)]
struct PairScratch {
    builder: ProblemBuilder<SymPoly>,
    free: Vec<DependenceProblem<SymPoly>>,
    src_vars: Vec<usize>,
    snk_vars: Vec<usize>,
}

/// Retired problems a worker keeps for pair construction; one is in
/// flight at a time, the rest cover shape churn across site-pair blocks.
const PAIR_SLABS: usize = 4;

thread_local! {
    static PAIR_SCRATCH: RefCell<PairScratch> = RefCell::new(PairScratch::default());
}

/// [`pair_problem`] through the worker's recycled storage: byte-identical
/// problems, but the builder overwrites the previous pair's vectors, rows
/// and name strings instead of allocating fresh ones. Falls back to the
/// allocating path if the scratch is unavailable (re-entrancy).
fn pair_problem_pooled(a: &AccessSite, b: &AccessSite) -> DependenceProblem<SymPoly> {
    PAIR_SCRATCH.with(|cell| {
        let Ok(mut scratch) = cell.try_borrow_mut() else {
            return pair_problem(a, b);
        };
        let s = &mut *scratch;
        if let Some(slab) = s.free.pop() {
            s.builder.recycle(slab);
        }
        let common = a.common_loops_with(b);
        s.src_vars.clear();
        s.snk_vars.clear();
        for l in &a.loops {
            s.src_vars.push(s.builder.var_suffixed(&l.var, '1', &l.upper));
        }
        for l in &b.loops {
            s.snk_vars.push(s.builder.var_suffixed(&l.var, '2', &l.upper));
        }
        for k in 0..common {
            s.builder.common_pair(s.src_vars[k], s.snk_vars[k]);
        }
        for (sa, sb) in a.subscripts.iter().zip(&b.subscripts) {
            if let (Subscript::Affine(fa), Subscript::Affine(fb)) = (sa, sb) {
                let _ = s.builder.equation_from_subscripts(fa, &s.src_vars, fb, &s.snk_vars);
            }
        }
        s.builder.build()
    })
}

/// Returns a pair problem's storage to the worker's pool once its verdict
/// is in, closing the recycle loop of [`pair_problem_pooled`].
fn recycle_pair_problem(problem: DependenceProblem<SymPoly>) {
    PAIR_SCRATCH.with(|cell| {
        if let Ok(mut s) = cell.try_borrow_mut() {
            if s.free.len() < PAIR_SLABS {
                s.free.push(problem);
            }
        }
    });
}

/// Converts a symbolic problem to a concrete one when every quantity is a
/// known integer.
pub fn concretize(p: &DependenceProblem<SymPoly>) -> Option<DependenceProblem<i128>> {
    if !p.is_concrete() {
        return None;
    }
    let mut b = DependenceProblem::<i128>::builder();
    for v in p.vars() {
        b.var(v.name.clone(), v.upper.as_constant()?);
    }
    for eq in p.equations() {
        b.equation(
            eq.c0.as_constant()?,
            eq.coeffs.iter().map(|c| c.as_constant()).collect::<Option<Vec<_>>>()?,
        );
    }
    for (x, y) in p.common_loops() {
        b.common_pair(*x, *y);
    }
    Some(b.build())
}

/// Runs the configured tests; returns the verdict, the deciding test's
/// name, and the names of the test invocations that executed.
///
/// Budget checks bracket every expensive phase: an exhausted budget at
/// entry, between the delinearization pass and the classical battery, or
/// before direction-vector refinement short-circuits to the conservative
/// `Unknown` with `tested_by = "degraded"`. Inside the delinearization
/// pass the same budget throttles the exact solver node by node.
fn decide(
    problem: &DependenceProblem<SymPoly>,
    assumptions: &Assumptions,
    choice: TestChoice,
    budget: &ResourceBudget,
    incremental: bool,
    arena: bool,
    store: Option<&Arc<SubtreeStore>>,
) -> (Verdict, &'static str, Vec<&'static str>) {
    if budget.exhausted().is_some() {
        return (Verdict::Unknown, "degraded", Vec::new());
    }
    // The decision works on a copy of the canonical problem with this
    // unit's assumptions installed. The arena path leases that copy from
    // the worker's recycled pool and installs the assumptions in place;
    // the legacy path reproduces the old engine — a clone followed by a
    // full rebuild through a fresh builder (the builder clears assumptions
    // on build(), hence the round trip).
    let sym = if arena {
        let mut sym = DECIDE_ARENA.with(|a| a.borrow_mut().lease_clone(problem));
        sym.set_assumptions(assumptions.clone());
        sym
    } else {
        let sym = problem.clone();
        let mut b = DependenceProblem::<SymPoly>::builder();
        for v in sym.vars() {
            b.var(v.name.clone(), v.upper.clone());
        }
        for eq in sym.equations() {
            b.equation(eq.c0.clone(), eq.coeffs.clone());
        }
        for (x, y) in sym.common_loops() {
            b.common_pair(*x, *y);
        }
        b.assumptions(assumptions.clone());
        b.build()
    };
    let concrete = concretize(&sym);

    let mut delin = DelinearizationTest::with_budget(budget.clone());
    delin.config.incremental = incremental;
    delin.config.arena = arena;
    delin.config.solve_store = store.map(Arc::clone);
    let delin = delin;
    let run_delin =
        |name: &'static str, attempts: &mut Vec<&'static str>| -> (Verdict, &'static str) {
            attempts.push(name);
            match &concrete {
                Some(c) => (DependenceTest::<i128>::test(&delin, c), name),
                None => (DependenceTest::<SymPoly>::test(&delin, &sym), name),
            }
        };
    let run_battery = |attempts: &mut Vec<&'static str>| -> (Verdict, &'static str) {
        if let Some(c) = &concrete {
            let tests: Vec<(&'static str, Verdict)> = vec![
                ("gcd", GcdTest.test(c)),
                ("siv", SivTest.test(c)),
                ("svpc", SvpcTest.test(c)),
                ("acyclic", AcyclicTest.test(c)),
                ("loop-residue", LoopResidueTest.test(c)),
                ("banerjee", BanerjeeTest.test(c)),
            ];
            for (name, _) in &tests {
                attempts.push(name);
            }
            for (name, v) in &tests {
                if v.is_independent() {
                    return (Verdict::Independent, name);
                }
            }
            if budget.exhausted().is_some() {
                return (Verdict::Unknown, "degraded");
            }
            // Direction vectors through the Banerjee hierarchy in the
            // classical mode: exact on single-index equations, real-valued
            // (the paper's reading) on coupled multi-index equations.
            attempts.push("dir-vectors");
            let oracle = hierarchy::banerjee_oracle_classical();
            let dirs = hierarchy::direction_vectors(c, &oracle);
            if dirs.is_empty() {
                return (Verdict::Independent, "banerjee");
            }
            (Verdict::dependent_with_dirs(dirs), "banerjee")
        } else {
            attempts.push("gcd");
            let v = GcdTest.test(&sym);
            if v.is_independent() {
                return (Verdict::Independent, "gcd");
            }
            if budget.exhausted().is_some() {
                return (Verdict::Unknown, "degraded");
            }
            attempts.push("dir-vectors");
            let oracle = hierarchy::banerjee_oracle_classical();
            let dirs = hierarchy::direction_vectors(&sym, &oracle);
            if dirs.is_empty() {
                return (Verdict::Independent, "banerjee");
            }
            (Verdict::dependent_with_dirs(dirs), "banerjee")
        }
    };

    let mut attempts: Vec<&'static str> = Vec::new();
    let (verdict, tested_by) = match choice {
        TestChoice::DelinearizationOnly => run_delin("delinearization", &mut attempts),
        TestChoice::BatteryOnly => run_battery(&mut attempts),
        TestChoice::DelinearizationFirst => {
            let (v, name) = run_delin("delinearization", &mut attempts);
            if v.is_unknown() {
                if budget.exhausted().is_some() {
                    (Verdict::Unknown, "degraded")
                } else {
                    run_battery(&mut attempts)
                }
            } else {
                (v, name)
            }
        }
    };
    if arena {
        DECIDE_ARENA.with(|a| a.borrow_mut().recycle(sym));
    }
    (verdict, tested_by, attempts)
}

thread_local! {
    /// The worker's recycled pool for [`decide`]'s working problems (arena
    /// path): each decision leases its assumption-installed copy of the
    /// canonical problem here and returns it on exit, so after warmup the
    /// install step reuses the previous decision's buffers.
    static DECIDE_ARENA: RefCell<ProblemArena<SymPoly>> = RefCell::new(ProblemArena::new());
}

/// Applies one pair's outcome to the graph: bumps verdict counters and
/// emits the classified edges. Called in source-pair order.
fn fold_outcome(a: &AccessSite, b: &AccessSite, pair: &PairOutcome, graph: &mut DepGraph) {
    let outcome = &*pair.outcome;
    let common = a.common_loops_with(b);
    match &outcome.verdict {
        Verdict::Independent => {
            graph.stats.proven_independent += 1;
            *graph.stats.independent_by.entry(outcome.tested_by).or_insert(0) += 1;
        }
        Verdict::Dependent { info, .. } => {
            let dirs = if info.dir_vecs.is_empty() {
                vec![DirVec::any(common)]
            } else {
                info.dir_vecs.clone()
            };
            emit_edges(a, b, &dirs, outcome.tested_by, graph);
        }
        Verdict::Unknown => {
            graph.stats.conservative_pairs += 1;
            emit_edges(a, b, &[DirVec::any(common)], "conservative", graph);
        }
    }
}

/// Splits direction vectors into atomic forward/backward/loop-independent
/// classes and emits oriented, classified edges.
fn emit_edges(
    a: &AccessSite,
    b: &AccessSite,
    dirs: &[DirVec],
    tested_by: &'static str,
    graph: &mut DepGraph,
) {
    let mut forward: Vec<DirVec> = Vec::new(); // a -> b
    let mut backward: Vec<DirVec> = Vec::new(); // b -> a (reversed vectors)
    let mut loop_independent = false;
    for dv in dirs {
        for atom in dv.atomic_decompositions() {
            if atom.0.iter().all(|d| *d == Dir::Eq) {
                loop_independent = true;
            } else if atom.is_backward() {
                backward.push(atom.reverse());
            } else {
                forward.push(atom);
            }
        }
    }
    forward.sort();
    forward.dedup();
    backward.sort();
    backward.dedup();

    let mut push = |src: &AccessSite, dst: &AccessSite, dirs: Vec<DirVec>, level: Option<usize>| {
        if src.stmt == dst.stmt && level.is_none() {
            return; // intra-statement, same iteration: not a dependence edge
        }
        let kind = match (src.kind, dst.kind) {
            (AccessKind::Write, AccessKind::Read) => DepKind::True,
            (AccessKind::Read, AccessKind::Write) => DepKind::Anti,
            (AccessKind::Write, AccessKind::Write) => DepKind::Output,
            (AccessKind::Read, AccessKind::Read) => return,
        };
        graph.edges.push(DepEdge {
            src: src.stmt,
            dst: dst.stmt,
            kind,
            array: src.array.clone(),
            dir_vecs: summarize(dirs),
            level,
            tested_by,
        });
    };

    // Carried dependences, grouped by carrying level.
    for (vectors, (src, dst)) in [(forward, (a, b)), (backward, (b, a))] {
        let mut by_level: BTreeMap<usize, Vec<DirVec>> = BTreeMap::new();
        for v in vectors {
            let level = v.0.iter().position(|d| *d == Dir::Lt).map(|p| p + 1);
            if let Some(l) = level {
                by_level.entry(l).or_default().push(v);
            }
        }
        for (level, vs) in by_level {
            push(src, dst, vs, Some(level));
        }
    }
    // Loop-independent dependence follows textual order.
    if loop_independent {
        let eq = vec![DirVec(vec![Dir::Eq; a.common_loops_with(b)])];
        if a.stmt <= b.stmt {
            push(a, b, eq, None);
        } else {
            push(b, a, eq, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delin_frontend::parse_program;

    fn graph(src: &str) -> DepGraph {
        let p = parse_program(src).unwrap();
        build_dependence_graph(&p, &Assumptions::new(), TestChoice::DelinearizationFirst)
    }

    #[test]
    fn intro_dependent_loop() {
        // D(i+1) = D(i): true dependence carried by the loop, distance 1.
        let g = graph(
            "
            REAL D(0:9)
            DO 1 i = 0, 8
        1   D(i + 1) = D(i)
            END
        ",
        );
        assert_eq!(g.stats.pairs_tested, 2); // W-W and W-R
        let true_edges: Vec<_> = g.edges.iter().filter(|e| e.kind == DepKind::True).collect();
        assert_eq!(true_edges.len(), 1);
        assert_eq!(true_edges[0].level, Some(1));
        assert_eq!(true_edges[0].dir_vecs, vec![DirVec(vec![Dir::Lt])]);
        // The W-W pair (same site with itself) is independent:
        // i1 + 1 = i2 + 1 with i1 != i2 impossible... actually i1 = i2 is
        // the only solution: loop-independent self-output-dep is dropped.
        assert!(g.edges.iter().all(|e| !(e.kind == DepKind::Output && e.src == e.dst)));
    }

    #[test]
    fn intro_independent_loop() {
        // D(i) = D(i+5) over i in [0,4]: no dependence at all.
        let g = graph(
            "
            REAL D(0:9)
            DO 1 i = 0, 4
        1   D(i) = D(i + 5)
            END
        ",
        );
        let array_edges: Vec<_> = g.edges.iter().filter(|e| e.array == "D").collect();
        assert!(array_edges.iter().all(|e| e.kind == DepKind::Output), "{array_edges:?}");
        assert!(g.stats.proven_independent >= 1);
    }

    #[test]
    fn motivating_example_needs_delinearization() {
        let src = "
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
        1   C(i + 10*j) = C(i + 10*j + 5)
            END
        ";
        let p = parse_program(src).unwrap();
        // With delinearization: the W-R pair is proven independent.
        let g = build_dependence_graph(&p, &Assumptions::new(), TestChoice::DelinearizationFirst);
        assert!(g.edges.iter().all(|e| e.kind != DepKind::True), "{:?}", g.edges);
        assert_eq!(g.stats.independent_by.get("delinearization"), Some(&1));
        // Battery only: the pair cannot be disproven; a true or anti edge
        // appears.
        let g = build_dependence_graph(&p, &Assumptions::new(), TestChoice::BatteryOnly);
        assert!(g.edges.iter().any(|e| e.kind != DepKind::Output));
    }

    #[test]
    fn backward_vectors_are_reversed() {
        // A(i) = A(i+1): the write at i touches what iteration i-1 read;
        // raw direction is '>', so the edge is an anti dependence read->write
        // with '<'.
        let g = graph(
            "
            REAL A(0:9)
            DO 1 i = 0, 8
        1   A(i) = A(i + 1)
            END
        ",
        );
        let anti: Vec<_> = g.edges.iter().filter(|e| e.kind == DepKind::Anti).collect();
        assert_eq!(anti.len(), 1);
        assert_eq!(anti[0].dir_vecs, vec![DirVec(vec![Dir::Lt])]);
        assert_eq!(anti[0].level, Some(1));
        assert!(g.edges.iter().all(|e| e.kind != DepKind::True));
    }

    #[test]
    fn loop_independent_ordering() {
        // S1 writes A(i); S2 reads A(i): loop-independent true dep S1->S2.
        let g = graph(
            "
            REAL A(0:9), B(0:9)
            DO 1 i = 0, 9
              A(i) = 1
        1   B(i) = A(i)
            END
        ",
        );
        let t: Vec<_> = g.edges.iter().filter(|e| e.kind == DepKind::True).collect();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].level, None);
        assert!(t[0].src < t[0].dst);
    }

    #[test]
    fn scalar_dependences() {
        // Q accumulates: true, anti, and output deps on Q.
        let g = graph(
            "
            REAL A(0:9)
            DO 1 i = 0, 9
        1   Q = Q + A(i)
            END
        ",
        );
        let kinds: Vec<DepKind> =
            g.edges.iter().filter(|e| e.array == "Q").map(|e| e.kind).collect();
        assert!(kinds.contains(&DepKind::True));
        assert!(kinds.contains(&DepKind::Output));
    }

    #[test]
    fn symbolic_bounds_analyzed() {
        // Independent even with symbolic N (needs N >= 1 to know bounds
        // behave; without assumptions the conservative answer is kept).
        let src = "
            REAL A(0:N + N)
            DO 1 i = 0, N - 1
        1   A(i) = A(i + N)
            END
        ";
        let p = parse_program(src).unwrap();
        let mut assume = Assumptions::new();
        assume.set_lower_bound("N", 1);
        let g = build_dependence_graph(&p, &assume, TestChoice::DelinearizationFirst);
        // A(i1) = A(i2 + N) requires i1 - i2 = N with i's in [0, N-1]:
        // Banerjee range [-(N-1) - N, (N-1) - N] = [.., -1] < 0: independent.
        assert!(g.edges.iter().all(|e| e.kind == DepKind::Output), "{:?}", g.edges);
    }

    #[test]
    fn opaque_subscripts_are_conservative() {
        // Fully opaque subscripts: no equations at all, so every direction
        // survives and carried edges appear in both orientations.
        let g = graph(
            "
            REAL A(0:9)
            DO 1 i = 0, 9
        1   A(IFUN(i)) = A(IFUN(i + 1)) + 1
            END
        ",
        );
        assert!(g.edges.iter().any(|e| e.level == Some(1)), "{:?}", g.edges);
        // A second dimension with an affine subscript restores precision:
        // A(IFUN(i), i) can only collide within an iteration.
        let g = graph(
            "
            REAL A(0:9, 0:9)
            DO 1 i = 0, 9
        1   A(IFUN(i), i) = A(IFUN(i + 1), i) + 1
            END
        ",
        );
        assert!(g.edges.iter().all(|e| e.level.is_none()), "{:?}", g.edges);
    }

    /// A zero-node budget starves the exact solver, so the motivating
    /// example's delinearization proof is out of reach — the pair must
    /// degrade to a conservative answer (counted per tripped axis), never
    /// to a bogus independence claim.
    #[test]
    fn zero_node_budget_degrades_but_stays_sound() {
        let src = "
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
        1   C(i + 10*j) = C(i + 10*j + 5)
            END
        ";
        let p = parse_program(src).unwrap();
        let config = EngineConfig {
            workers: 1,
            budget: BudgetSpec::nodes_only(0),
            ..EngineConfig::default()
        };
        let g = build_dependence_graph_with(&p, &Assumptions::new(), &config);
        assert!(g.stats.degraded_pairs > 0, "{:?}", g.stats);
        assert!(g.stats.degraded_by.contains_key(&DegradeReason::Nodes), "{:?}", g.stats);
        // Independence may still be proven by solver-free interval
        // reasoning (that proof is sound under any budget) — only the
        // starved solver's own answers degrade, and those surface as
        // degraded pairs above, never as extra independence.
        let rendered = g.stats.render_summary();
        assert!(rendered.contains("degraded:"), "{rendered}");
    }

    /// An already-expired deadline short-circuits every decision at entry:
    /// all pairs degrade, all edges are the conservative all-`*` answer,
    /// and the outcome is identical for any worker count.
    #[test]
    fn expired_deadline_degrades_every_pair() {
        let src = "
            REAL A(0:9)
            DO 1 i = 0, 8
        1   A(i + 1) = A(i)
            END
        ";
        let p = parse_program(src).unwrap();
        let spec = BudgetSpec { node_limit: 1_000_000, deadline_ms: Some(0), cancel: None };
        let run = |workers: usize| {
            let config = EngineConfig { workers, budget: spec.clone(), ..EngineConfig::default() };
            build_dependence_graph_with(&p, &Assumptions::new(), &config)
        };
        let g = run(1);
        assert_eq!(g.stats.degraded_pairs, g.stats.pairs_tested);
        assert_eq!(g.stats.conservative_pairs, g.stats.pairs_tested);
        assert_eq!(g.stats.decided_by.get("degraded"), Some(&g.stats.pairs_tested));
        assert_eq!(g.stats.degraded_by.get(&DegradeReason::Deadline), Some(&g.stats.pairs_tested));
        let g4 = run(4);
        assert_eq!(g.stats.verdict_stats(), g4.stats.verdict_stats());
        assert_eq!(g.edges, g4.edges);
    }

    /// Satellite bugfix audit: a pair that hits the verdict cache reuses an
    /// entry whose own refinements reused subtrees. The fold must charge
    /// the entry's attempts, solver nodes, *and* reuse counters exactly
    /// once — at the key's first reference in source-pair order — never
    /// once per referencing pair, and never a second time because the hit
    /// "also" reused a subtree.
    #[test]
    fn cache_hits_charge_reuse_counters_once() {
        // B's pairs canonicalize to exactly A's problems (variable names
        // and array names are dropped), so the second statement's pairs are
        // pure verdict-cache hits.
        let doubled = parse_program(
            "
            REAL A(0:9), B(0:9)
            DO 1 i = 0, 8
              A(i + 1) = A(i)
        1   B(i + 1) = B(i)
            END
        ",
        )
        .unwrap();
        let single = parse_program(
            "
            REAL A(0:9)
            DO 1 i = 0, 8
        1   A(i + 1) = A(i)
            END
        ",
        )
        .unwrap();
        let config = EngineConfig { workers: 1, incremental: true, ..EngineConfig::default() };
        let g2 = build_dependence_graph_with(&doubled, &Assumptions::new(), &config);
        let g1 = build_dependence_graph_with(&single, &Assumptions::new(), &config);

        assert_eq!(g2.stats.pairs_tested, 2 * g1.stats.pairs_tested);
        assert_eq!(g2.stats.cache_hits, g1.stats.pairs_tested, "B's pairs must hit");
        assert_eq!(g2.stats.cache_misses, g1.stats.cache_misses);
        // The dependent W-R problem refines and reuses; the counters (and
        // every other charged quantity) must match the single-array run
        // exactly — cache hits charge nothing.
        assert!(g2.stats.refine_queries > 0, "{:?}", g2.stats);
        assert!(g2.stats.subtree_reuses > 0, "{:?}", g2.stats);
        assert_eq!(g2.stats.refine_queries, g1.stats.refine_queries);
        assert_eq!(g2.stats.subtree_reuses, g1.stats.subtree_reuses);
        assert_eq!(g2.stats.nodes_saved, g1.stats.nodes_saved);
        assert_eq!(g2.stats.solver_nodes, g1.stats.solver_nodes);
        assert_eq!(g2.stats.attempts_by, g1.stats.attempts_by);
    }

    /// The incremental toggle is a pure perf knob: identical edges and
    /// verdicts, strictly fewer solver nodes when refinements reuse.
    #[test]
    fn incremental_toggle_preserves_graphs_and_saves_nodes() {
        let p = parse_program(
            "
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
        1   C(i + 10*j) = C(i + 10*j + 1)
            END
        ",
        )
        .unwrap();
        let run = |incremental: bool| {
            let config = EngineConfig { workers: 1, incremental, ..EngineConfig::default() };
            build_dependence_graph_with(&p, &Assumptions::new(), &config)
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.edges, off.edges);
        assert_eq!(on.stats.proven_independent, off.stats.proven_independent);
        assert_eq!(on.stats.conservative_pairs, off.stats.conservative_pairs);
        assert_eq!(on.stats.decided_by, off.stats.decided_by);
        assert_eq!(on.stats.refine_queries, off.stats.refine_queries);
        assert_eq!(off.stats.subtree_reuses, 0);
        assert_eq!(off.stats.nodes_saved, 0);
        assert!(on.stats.subtree_reuses > 0, "{:?}", on.stats);
        assert!(on.stats.nodes_saved > 0, "{:?}", on.stats);
        assert!(on.stats.solver_nodes < off.stats.solver_nodes, "{:?}", (on.stats, off.stats));
        let rendered = on.stats.render_summary();
        assert!(rendered.contains("refines:"), "{rendered}");
    }

    #[test]
    fn graph_helpers() {
        let g = graph(
            "
            REAL A(0:9)
            DO 1 i = 0, 8
        1   A(i + 1) = A(i)
            END
        ",
        );
        let s = g.stmts[0];
        assert!(g.connected(s, s) || !g.edges.is_empty());
        assert!(g.successors(s).count() >= 1);
    }
}
