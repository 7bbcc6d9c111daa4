// Fault-tree modularization (Dutuit–Rauzy, IEEE Trans. Reliability 1996).
//
// A *module* is a gate whose subtree shares no node with the rest of the
// tree: every basic event and every gate reachable from the module root
// is reachable *only* through it.  Modules are what make evaluation
// compositional — a module's top probability is a function of its own
// subtree alone, so it can be computed once, cached, and replayed when
// the same subtree reappears in a different candidate architecture.
// That is the heart of incremental candidate evaluation: a single
// Expand/Connect/Reduce or resource-merge move perturbs one region of
// the fault tree, and every untouched module replays from cache.
//
// Detection is one DFS over the DAG reachable from top() with visit
// dates, in the style of Dutuit & Rauzy's linear-time algorithm: every
// edge is traversed exactly once (children of an already-visited gate
// are not re-expanded, but the arrival itself is dated), so an edge
// entering a subtree from outside necessarily dates its target outside
// the subtree root's [first-arrival, completion] window.  A gate is a
// module iff the visit dates of all strict descendants stay inside its
// window.  A gate that is itself referenced from several parents can
// still be a module (its own revisits are excluded from its test); its
// pseudo-variable then simply appears several times in the enclosing
// region, which the BDD evaluation handles exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ftree/fault_tree.h"

namespace asilkit::ftree {

/// One module of a decomposition.  `child_modules` lists the directly
/// nested modules (indices into ModuleDecomposition::modules) in
/// first-seen order of a depth-first traversal of the module's local
/// region; evaluation replaces each with a pseudo-variable.
struct Module {
    FtRef root{};
    /// Context-free structural hash of the module's full subtree
    /// (local region composed with nested module hashes): two modules
    /// hash equal only when their subtrees are isomorphic with the same
    /// gate kinds, sharing pattern and failure rates — regardless of
    /// the tree surrounding them.  This is the engine's per-module
    /// cache key material.
    std::uint64_t subtree_hash = 0;
    std::vector<std::uint32_t> child_modules;
    /// Distinct basic events in the local region (excludes nested
    /// modules' events).
    std::size_t basic_events = 0;
};

struct ModuleDecomposition {
    /// Children-before-parents; back() is the top module.
    std::vector<Module> modules;

    [[nodiscard]] std::size_t size() const noexcept { return modules.size(); }
    [[nodiscard]] const Module& top() const { return modules.back(); }
    /// The index in `modules` of the module rooted at gate `gate`, or
    /// nullopt when that gate roots none.  Linear in the module count.
    [[nodiscard]] std::optional<std::uint32_t> module_of(std::uint32_t gate) const noexcept;
};

/// The rate-blind recipe of a decomposition's subtree hashes: for every
/// gate of the tree, in the order the detection walk completes them, its
/// hash seed and, per child slot, the term that slot folds in — an event
/// (its region-local leaf number, salted; the rate is added at fold
/// time), a nested module's pseudo leaf, or an interior gate of the same
/// region.  Everything but the rates is fixed by the tree's index
/// structure, so one plan serves every rate variant of a canonical
/// skeleton.
struct ModuleHashPlan {
    static constexpr std::uint32_t kNotAModule = ~std::uint32_t{0};
    enum class Term : std::uint8_t { Event, Pseudo, Gate };
    struct Slot {
        std::uint64_t salt = 0;
        std::uint32_t index = 0;  ///< event, module or gate index
        Term term = Term::Event;
    };
    struct Step {
        std::uint32_t gate = 0;
        std::uint32_t module = kNotAModule;  ///< the module this gate roots, if any
        std::uint64_t seed = 0;
    };
    std::vector<Step> steps;
    /// Gate g's slots are slots[slot_begin[g], slot_begin[g + 1]).
    std::vector<std::uint32_t> slot_begin;
    std::vector<Slot> slots;
};

/// Writes every module's subtree_hash for the event rates `lambdas`
/// (indexed like the tree's basic events) into `out` (one per module).
/// find_modules() computes its hashes through this very fold, so a
/// plan's hashes for a tree's own rates equal the decomposition's.
/// `gate_scratch` is reused working space.
void module_hashes(const ModuleHashPlan& plan, std::span<const double> lambdas,
                   std::span<std::uint64_t> out, std::vector<std::uint64_t>& gate_scratch);

/// find_modules() with its working arrays kept across calls, so that a
/// caller decomposing many trees allocates only the decompositions.
/// Single-threaded, like the arrays it owns.
class ModuleFinder {
public:
    /// find_modules(ft); with `plan`, also writes the decomposition's
    /// hash recipe there (left empty when the top is a basic event).
    [[nodiscard]] ModuleDecomposition find(const FaultTree& ft, ModuleHashPlan* plan = nullptr);

private:
    struct GateDates {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        std::uint64_t fin = 0;
        std::uint64_t min = 0;
        std::uint64_t max = 0;
    };
    struct GateMarks {
        std::uint32_t region = ~std::uint32_t{0};  ///< region that completed it (interior gate)
        std::uint32_t pseudo_region = ~std::uint32_t{0};  ///< region that numbered its pseudo leaf
        std::uint32_t pseudo_leaf = 0;
        std::uint32_t module = ~std::uint32_t{0};  ///< module index once built
        bool is_module = false;
    };
    struct EventMarks {
        std::uint32_t region = ~std::uint32_t{0};
        std::uint32_t leaf = 0;
    };
    struct Region {
        std::uint32_t id = 0;
        std::uint32_t next_leaf = 0;
        Module module;
    };
    struct Frame {
        std::uint32_t gate = 0;
        std::uint32_t slot = 0;
        bool region_root = false;
    };

    detail::WalkScratch walk_;
    std::vector<std::uint64_t> basic_lo_;
    std::vector<std::uint64_t> basic_hi_;
    std::vector<GateDates> dates_;
    std::vector<std::uint32_t> postorder_;
    std::vector<GateMarks> gate_marks_;
    std::vector<EventMarks> event_marks_;
    std::vector<Region> regions_;
    std::vector<Frame> frames_;
    ModuleHashPlan plan_;
    std::vector<double> lambdas_;
    std::vector<std::uint64_t> hashes_;
    std::vector<std::uint64_t> gate_hashes_;
};

/// Detects the independent modules of the tree reachable from ft.top()
/// in linear time.  The top node is always a module (possibly the only
/// one); a top that is a single basic event yields one leaf module.
[[nodiscard]] ModuleDecomposition find_modules(const FaultTree& ft);

}  // namespace asilkit::ftree
