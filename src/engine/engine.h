// The evaluation engine: candidate scoring as a batched, parallel,
// memoised, *incremental* service.
//
// Design-space exploration (paper Section IX) and the mapping search
// evaluate thousands of candidate architectures, each requiring a
// model -> fault tree -> BDD -> exact probability pipeline.  The engine
// makes that pipeline scale:
//   * a fixed thread pool evaluates independent candidates
//     concurrently — every evaluation owns its BddManagers, so no locks
//     sit on the apply path (see core/thread_pool.h);
//   * every canonical tree is split into independent modules
//     (ftree/modules.h) and evaluated module-by-module: each module's
//     local region compiles to its own small BDD, nested modules enter
//     as pseudo-variables — exact, since modules share no basic events
//     with the rest of the tree;
//   * an evaluation cache memoises at two granularities: whole
//     canonical trees (a hit skips everything) and individual modules —
//     so a candidate move that perturbs one region of the tree replays
//     every untouched module from cache and recompiles only the modules
//     its basic events intersect (see eval_cache.h);
//   * every worker thread keeps ONE incremental tree builder
//     (ftree::IncrementalTreeBuilder): a candidate edit regenerates only
//     the component fragments whose model facts changed, and a repeat
//     composition reuses the finished canonical tree, hashes and module
//     decomposition by reference (see docs/ftree.md);
//   * every worker thread keeps ONE module-evaluation workspace
//     (bdd::ModuleEvaluator): a BddManager reset per module plus reused
//     ordering and compile scratch, so a module miss allocates nothing
//     in steady state (see docs/bdd.md);
//   * a rate variant of a structure the builder has met before is bound
//     to that structure's canonical skeleton instead of built: its rates
//     arrive as a lambda span in canonical event order, next to its own
//     structural hash and module hashes;
//   * analyze_batch additionally groups candidates by structure — rate
//     variants, ubiquitous in sensitivity sweeps — and pushes each
//     group's modules through the batched multi-lambda probability
//     kernel: the lanes are lambda spans over one shared skeleton, so
//     one compilation and one SoA sweep give k results.
//
// Determinism contract: for a fixed model and options, results are
// bitwise identical regardless of thread count and cache capacity.  The
// modular evaluation order is always used, so a whole-tree hit, a
// per-module replay and a fresh evaluation all produce the same doubles;
// callers that batch through the pool reduce their results in input
// order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/sync.h"
#include "core/thread_pool.h"

#include "analysis/probability.h"
#include "bdd/from_fault_tree.h"
#include "engine/eval_cache.h"
#include "ftree/cft.h"
#include "ftree/modules.h"
#include "model/architecture.h"
#include "obs/metrics.h"

namespace asilkit::engine {

struct EngineOptions {
    /// Evaluation lanes (including the calling thread).  0 = take the
    /// ASILKIT_THREADS environment variable, falling back to
    /// std::thread::hardware_concurrency().
    unsigned threads = 0;
    /// Maximum number of cached evaluations; 0 disables the cache.
    std::size_t cache_capacity = std::size_t{1} << 16;
};

class EvalEngine {
public:
    explicit EvalEngine(const EngineOptions& options = {});

    /// Evaluation lanes actually available, env var applied.
    [[nodiscard]] unsigned threads() const noexcept { return pool_.thread_count(); }

    /// Drop-in replacement for analysis::analyze_failure_probability,
    /// memoised by the structural hash of the generated fault tree.
    /// Thread-safe: may be called concurrently from pool tasks.
    [[nodiscard]] analysis::ProbabilityResult analyze(const ArchitectureModel& m,
                                                      const analysis::ProbabilityOptions& options);

    /// Scores every model of a batch concurrently; results in input
    /// order.  Null entries are skipped (default-constructed result).
    [[nodiscard]] std::vector<analysis::ProbabilityResult> analyze_batch(
        std::span<const ArchitectureModel* const> models,
        const analysis::ProbabilityOptions& options);

    /// The pool, for callers that parallelise more than the analysis
    /// itself (e.g. building the trial model inside the task).
    [[nodiscard]] core::ThreadPool& pool() noexcept { return pool_; }

    /// Everything the engine counts, in one snapshot.  `cache` is the
    /// raw lookup ledger (tree + module lookups combined); the engine
    /// counters split it by granularity: a tree hit ends the evaluation,
    /// a tree miss decomposes into modules, each of which hits (replayed
    /// from a previous evaluation) or misses (recompiled).
    ///
    /// The counters themselves live in the process-global obs registry
    /// (ids "engine.analyze_calls", "engine.tree_hits", ... — see
    /// docs/observability.md); this snapshot is the per-instance view,
    /// computed against the registry values captured at construction.
    struct Stats {
        EvalCache::Stats cache;
        std::uint64_t analyze_calls = 0;
        std::uint64_t tree_hits = 0;
        std::uint64_t tree_misses = 0;
        std::uint64_t module_hits = 0;
        std::uint64_t module_misses = 0;
        /// Candidates the lint pre-filter rejected before fault-tree
        /// generation (explore::search_mapping reports them here so DSE
        /// accounting stays in one snapshot).
        std::uint64_t lint_rejections = 0;
        /// Batched multi-lambda kernel view: same-structure groups
        /// analyze_batch formed and the lanes they carried
        /// ("engine.batch_groups" / "engine.batch_lanes").
        std::uint64_t batch_groups = 0;
        std::uint64_t batch_lanes = 0;
        /// Incremental tree generation view: component fragments
        /// regenerated vs reused by the per-thread builders
        /// ("ftree.fragment.built" / "ftree.fragment.reused") and
        /// candidates served from a memoized structure, whole or bound
        /// ("ftree.memo_hits").
        std::uint64_t fragments_built = 0;
        std::uint64_t fragments_reused = 0;
        std::uint64_t ftree_memo_hits = 0;
    };
    [[nodiscard]] Stats stats() const;

    /// Adds to the lint-rejection counter; called by search layers that
    /// discard candidates before they reach analyze().
    void note_lint_rejections(std::uint64_t n) noexcept { lint_rejections_.add(n); }

private:
    /// One model through build -> canonical -> keys, the thread-safe
    /// front half of analyze(); `finish` / `finish_group` are the back
    /// half (cache lookups, modular evaluation, inserts).
    struct PreparedModel {
        analysis::ProbabilityResult result;  ///< ft_stats / warnings filled
        /// Canonical skeleton, module decomposition, this model's rates
        /// and module hashes — the skeleton and decomposition shared by
        /// reference with the incremental builders' memo (repeat
        /// candidates and rate variants alias ONE immutable tree).
        ftree::IncrementalTreeBuilder::Prepared tree;
        std::uint64_t tree_key = 0;
    };
    [[nodiscard]] PreparedModel prepare(const ArchitectureModel& m,
                                        const analysis::ProbabilityOptions& options);
    void finish(PreparedModel& p, const analysis::ProbabilityOptions& options);
    void finish_group(std::span<PreparedModel* const> lanes,
                      const analysis::ProbabilityOptions& options);

    /// The calling thread's module-evaluation workspace (created on first
    /// use).  Each evaluator is used by exactly one thread; the mutex
    /// guards only the map.
    [[nodiscard]] bdd::ModuleEvaluator& evaluator_lane();

    /// The calling thread's incremental tree builder (created on first
    /// use) — same lane pattern as evaluator_lane().
    [[nodiscard]] ftree::IncrementalTreeBuilder& ftree_lane();

    core::ThreadPool pool_;
    EvalCache cache_;
    // The lane maps are guarded; the lane OBJECTS the unique_ptrs own
    // are not — each is created once under the mutex and then used by
    // exactly one thread (its key), so pointees are thread-confined by
    // construction, not by locking.
    core::Mutex evaluators_mutex_;
    std::unordered_map<std::thread::id, std::unique_ptr<bdd::ModuleEvaluator>>
        evaluators_ GUARDED_BY(evaluators_mutex_);
    core::Mutex ftree_lanes_mutex_;
    std::unordered_map<std::thread::id, std::unique_ptr<ftree::IncrementalTreeBuilder>>
        ftree_lanes_ GUARDED_BY(ftree_lanes_mutex_);
    // Registry-backed counters (relaxed atomic adds: analyze() runs
    // concurrently from pool tasks; stats() is a monitoring snapshot,
    // not a synchronisation point).  `base_` anchors the per-instance
    // stats() view against the process-global registry values.
    obs::Counter& analyze_calls_;
    obs::Counter& tree_hits_;
    obs::Counter& tree_misses_;
    obs::Counter& module_hits_;
    obs::Counter& module_misses_;
    obs::Counter& lint_rejections_;
    obs::Counter& batch_groups_;
    obs::Counter& batch_lanes_;
    obs::Counter& fragments_built_;
    obs::Counter& fragments_reused_;
    obs::Counter& ftree_memo_hits_;
    Stats base_;
};

}  // namespace asilkit::engine
