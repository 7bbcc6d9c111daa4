// Component fault trees (CFT) with dirty-fragment incremental
// recompilation (ROADMAP item 4; ALFRED/ArChes in PAPERS.md).
//
// Each application component owns a *fragment*: its intrinsic basic
// events (one per mapped resource, one per hosting location), the names
// of the gates it will contribute, and its inport wiring — everything
// local that whole-tree generation re-derives from the model on every
// candidate.  A fragment splits into a rate-blind *structure key* over
// the model facts that shape the tree (names, kinds, ASILs, wiring,
// mapping) and a *rate vector* (the resolved rate of each event slot), so
// a candidate edit dirties precisely the fragments whose facts changed,
// and a rate-only edit changes no structure at all.
//
// Assembly stitches fragments along the architecture edges through the
// very same traversal the whole-tree builder runs (assemble_fault_tree
// shares its implementation), so the assembled arena is bitwise
// identical to build_fault_tree() — same events, names, rates, child
// order, warnings and indices.  On top sits a composition memo keyed on
// the *structure* of the whole composition.  Its entry holds the finished
// canonical tree, hashes and module decomposition of the first candidate
// with that structure; a repeat candidate reuses them by reference, and
// — from the structure's second sighting on — a *rate variant* is bound
// to them: its rates run through the canonicalization's rate-blind order
// (RateBlindOrder / RateBinder) and the decomposition's hash plan
// (ModuleHashPlan), which yields its canonical rates, structural hash and
// module hashes without assembling or building a tree.
//
// Exactness contract: assembled trees, canonical forms, structural
// hashes and module decompositions are bitwise identical to full rebuilds,
// and a bound variant's rates and hashes are those of its full rebuild
// (tests/test_cft.cpp, tests/test_rate_bind.cpp); DSE results and Pareto
// fronts are bitwise identical at any thread count
// (tests/test_mapping_search.cpp).  docs/ftree.md gives the argument.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ftree/builder.h"
#include "ftree/fault_tree.h"
#include "ftree/modules.h"
#include "model/architecture.h"

namespace asilkit::ftree {

/// One component's reusable share of the fault tree: the intrinsic base
/// events in mapped order, pre-resolved against the rate table.  Gates
/// are not stored — a component's failure gate wires to its
/// predecessors' gates, so gates materialise at stitch time; what the
/// fragment saves is every model lookup, rate resolution and name
/// construction behind them.
struct ComponentFragment {
    /// Rate-blind structure key (see fragment_structure).
    std::uint64_t key = 0;
    /// Emits the "no mapped resource" warning during assembly.
    bool no_resource = false;
    /// Intrinsic events in mapped order: per resource its res: event,
    /// then one loc: event per hosting location.  Duplicates are kept —
    /// assembly replays them through FaultTree::add_basic_event exactly
    /// as the whole-tree builder does, so arenas stay identical.
    std::vector<BasicEvent> events;
};

/// The rate-blind half of `n`'s fragment key, with the rates as data:
/// appends the resolved rate of each of `n`'s intrinsic event slots to
/// `rates` (fragment order) and returns a hash over every other model
/// fact fragment generation and stitching read for this component — its
/// name, kind and ASIL, the in-order predecessor ids (the inport
/// wiring), the names of its mapped resources and their hosting
/// locations — together with the build-option bits.  Two models agree
/// on a node's structure key iff the node's local share of the generated
/// tree is identical up to rates.  64-bit, so collisions are possible in
/// principle — the same exposure the engine's tree keys already accept
/// (docs/ftree.md).
[[nodiscard]] std::uint64_t fragment_structure(const ArchitectureModel& m, NodeId n,
                                               const FtBuildOptions& options,
                                               std::vector<double>& rates);

/// Content fingerprint of `n`'s fragment: its structure key with its
/// rates folded in.  Two models agree on a node's key iff the node's
/// local share of the generated tree is identical, which is what makes
/// the key a sound dirtiness test: an edit dirties a fragment iff it
/// changes the key.
[[nodiscard]] std::uint64_t fragment_key(const ArchitectureModel& m, NodeId n,
                                         const FtBuildOptions& options);

/// Builds (or rebuilds) the fragment of `n`, structure key included.
[[nodiscard]] ComponentFragment build_fragment(const ArchitectureModel& m, NodeId n,
                                               const FtBuildOptions& options);

/// The delta of an edit: application nodes whose fragment key differs
/// between the two models (symmetric difference of the node sets counts
/// as dirty too).  This is the invalidation rule the incremental
/// builder applies; tests/test_cft.cpp pins down that rate, ASIL and
/// connectivity edits each dirty exactly the expected set.
[[nodiscard]] std::vector<NodeId> dirty_fragments(const ArchitectureModel& before,
                                                  const ArchitectureModel& after,
                                                  const FtBuildOptions& options);

/// build_fault_tree() with intrinsic events sourced from pre-built
/// fragments instead of the model: `fragment_of` returns the fragment
/// of a node (never nullptr for live nodes).  Shares the whole-tree
/// builder's implementation, so the result is bitwise identical to
/// build_fault_tree(m, options) whenever every fragment matches the
/// model (the incremental builder's invariant).
[[nodiscard]] FtBuildResult assemble_fault_tree(
    const ArchitectureModel& m, const FtBuildOptions& options,
    const std::function<const ComponentFragment*(NodeId)>& fragment_of);

/// The incremental front half of candidate evaluation: model -> fragments
/// -> assembled tree -> canonical form -> hashes -> modules, with a
/// per-node fragment cache and a bounded composition memo keyed on
/// structure.  One instance per engine worker thread (not thread-safe),
/// mirroring the per-thread BDD module workspaces.
class IncrementalTreeBuilder {
public:
    /// Composition-memo entries kept (FIFO).  Each entry holds one
    /// canonical tree + module decomposition, so this bounds memory, not
    /// correctness.  Sized to hold a trade-off sweep's full candidate
    /// working set (typically several hundred distinct compositions);
    /// FIFO eviction degrades sharply once the set cycles past capacity.
    static constexpr std::size_t kMemoCapacity = 1024;

    /// Everything the engine needs from tree generation, shareable by
    /// reference across repeat candidates and rate variants.
    struct Prepared {
        /// The canonical tree of the candidate's structure.  A bound rate
        /// variant shares the tree of the candidate that built the
        /// structure, rates included; `lambdas` holds its own.
        std::shared_ptr<const FaultTree> canonical;
        /// Module decomposition of `canonical`; its subtree hashes are
        /// likewise the building candidate's — `module_hashes` holds this
        /// candidate's.
        std::shared_ptr<const ModuleDecomposition> modules;
        /// This candidate's rates in canonical event order.
        std::vector<double> lambdas;
        /// This candidate's module subtree hashes, aligned with
        /// modules->modules.
        std::vector<std::uint64_t> module_hashes;
        /// Rate-blind key of the whole composition: candidates that share
        /// it differ at most in rates.
        std::uint64_t structure_key = 0;
        std::uint64_t structural_hash = 0;
        std::uint64_t shape_hash = 0;
        FaultTreeStats stats;
        std::vector<std::string> warnings;
        std::size_t approximated_blocks = 0;
        std::size_t cycles_cut = 0;
    };

    /// Per-prepare() accounting, for tests and benchmarks.
    struct PassStats {
        std::uint64_t fragments_built = 0;
        std::uint64_t fragments_reused = 0;
        /// The candidate — structure and rates — was served whole from
        /// the memo.
        bool memo_hit = false;
        /// A rate variant of a memoized structure was bound, not built.
        bool bound = false;
        /// A bind was tried and the candidate took the full path instead:
        /// its rates reorder tied siblings into another index structure,
        /// or give two slots of one event different rates.
        bool fallback = false;
    };

    /// One candidate through the incremental pipeline.  Emits the
    /// "assemble" span and the ftree.fragment.{built,reused} /
    /// ftree.memo_hits / ftree.binds / ftree.bind_fallbacks counters.
    [[nodiscard]] Prepared prepare(const ArchitectureModel& m, const FtBuildOptions& options);

    [[nodiscard]] const PassStats& last_pass() const noexcept { return last_; }

private:
    /// Per structure, from its second sighting on: the rate-blind order of
    /// its assembled tree and, per rate slot, the assembled event it feeds
    /// (kNoEvent for slots of components the tree leaves out).
    struct Binding {
        static constexpr std::uint32_t kNoEvent = ~std::uint32_t{0};
        RateBlindOrder order;
        std::vector<std::uint32_t> slot_event;
    };
    struct Entry {
        Prepared prepared;
        std::vector<double> rates;  ///< the building candidate's rate vector
        std::shared_ptr<const Binding> binding;
        ModuleHashPlan module_plan;  ///< of prepared.canonical, with `binding`
    };

    void refresh_fragments(const ArchitectureModel& m, const std::vector<NodeId>& ids,
                           const FtBuildOptions& options);
    [[nodiscard]] std::optional<Prepared> bind(std::uint64_t structure, const Entry& primary);
    void remember(std::uint64_t key, Entry entry);

    /// Indexed by node id: the current fragment, regenerated in place
    /// when its structure key drifts from the model's (key 0 = none).
    std::vector<ComponentFragment> fragments_;
    /// The candidate being prepared: per node its structure key and the
    /// end of its slots in `rates_`.
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> rate_end_;
    std::vector<double> rates_;
    /// Structure key (or, for a variant whose ties reorder into another
    /// index structure, structure and shape) -> entry, FIFO-bounded.
    std::unordered_map<std::uint64_t, Entry> memo_;
    std::deque<std::uint64_t> memo_order_;
    ModuleFinder finder_;
    RateBinder binder_;
    std::vector<double> source_lambdas_;
    std::vector<std::uint8_t> source_set_;
    std::vector<std::uint64_t> module_scratch_;
    PassStats last_{};
};

}  // namespace asilkit::ftree
