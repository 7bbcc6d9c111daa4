// Fault-tree -> BDD compilation (paper Section V).
//
// Variable ordering follows the paper: a breadth-first, left-to-right
// traversal of the fault tree from the top event, assigning increasing
// variable indices to basic events in first-seen order "so that the base
// events that impact more directly the Top Level Event come first".
// Gates then become apply() chains: OR children are combined with
// BddOp::Or, AND children with BddOp::And — the "+" and "*" of the
// paper's ITE formulation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bdd/bdd.h"
#include "ftree/fault_tree.h"
#include "ftree/modules.h"

namespace asilkit::bdd {

/// Basic-event indices in the paper's top-down / left-to-right variable
/// order (restricted to events reachable from the top gate).
[[nodiscard]] std::vector<std::uint32_t> ft_variable_order(const ftree::FaultTree& ft);

/// A compiled fault tree: the manager owning the diagram, the root
/// function, and the var -> basic-event-index mapping.
struct CompiledFaultTree {
    BddManager manager;
    BddRef root = kFalse;
    /// event_of_var[v] = index of the basic event assigned to variable v.
    std::vector<std::uint32_t> event_of_var;

    /// Per-variable failure probabilities for a mission of `hours`,
    /// p = 1 - exp(-lambda * t), aligned with the manager's variables.
    [[nodiscard]] std::vector<double> variable_probabilities(const ftree::FaultTree& ft,
                                                             double hours) const;
};

/// Compiles with the paper's default ordering, or with an explicit order
/// (a permutation of reachable basic-event indices) for ordering studies.
[[nodiscard]] CompiledFaultTree compile_fault_tree(const ftree::FaultTree& ft);
[[nodiscard]] CompiledFaultTree compile_fault_tree(const ftree::FaultTree& ft,
                                                   const std::vector<std::uint32_t>& event_order);

/// p = 1 - exp(-lambda * hours); for lambda*t << 1 this is ~= lambda * t,
/// which is why the paper quotes probabilities numerically equal to rates
/// at t = 1 h.
[[nodiscard]] double basic_event_probability(double lambda, double hours) noexcept;

/// Result of evaluating one module of a ftree::ModuleDecomposition: the
/// module's local region compiled to its own (small) BDD with nested
/// modules as pseudo-variables, Shannon-evaluated with the child
/// modules' probabilities.  Exact: a module's basic events are disjoint
/// from the rest of the tree, so a nested module is an independent
/// boolean variable of the local region — even when it is referenced
/// several times, because the BDD keeps the repeated-variable
/// dependence that a naive sum/product combination would lose.
struct ModuleEvalResult {
    double probability = 0.0;
    std::size_t bdd_nodes = 0;        ///< interior nodes reachable from the local root
    std::size_t bdd_total_nodes = 0;  ///< interior nodes the evaluation created
    std::size_t variables = 0;        ///< real basic events in the local region
};

/// Evaluates module `module_index` of `dec` on `ft` (the tree `dec` was
/// detected on).  `child_probabilities` must align with
/// dec.modules[module_index].child_modules — the values previously
/// computed for the nested modules, children before parents.  The local
/// variable order follows the paper within the module: breadth-first,
/// left-to-right from the module root over basic events and
/// pseudo-variables in first-seen order, so the evaluation is a pure
/// function of the module's subtree (the cache-replay guarantee).  The
/// engine-free reference: a call on a fresh ModuleEvaluator.
[[nodiscard]] ModuleEvalResult evaluate_module(const ftree::FaultTree& ft,
                                               const ftree::ModuleDecomposition& dec,
                                               std::size_t module_index,
                                               std::span<const double> child_probabilities,
                                               double mission_hours);

/// Reusable module-evaluation workspace: ONE BddManager, reset at the
/// start of every module evaluation, plus the per-module scratch — the
/// ordering tables, the per-gate compile slots and the lane probability
/// vectors — kept across calls.  Gate and event slots are generation-
/// stamped, so starting a module costs O(1) for the scratch and
/// O(initial table size) for the manager (BddManager::reset), never
/// O(tree) or O(largest module seen so far).
///
/// An evaluation is a pure function of its arguments: a reused evaluator
/// returns field for field what a fresh one returns (same ordering, same
/// apply sequence, hence the same diagram, node numbering and
/// probability bits) — the free evaluate_module() above is exactly a
/// call on a fresh evaluator.
///
/// Single-threaded by contract, like the manager it owns: the engine
/// keeps one evaluator per worker thread and never shares them.
class ModuleEvaluator {
public:
    ModuleEvaluator() = default;
    ModuleEvaluator(const ModuleEvaluator&) = delete;
    ModuleEvaluator& operator=(const ModuleEvaluator&) = delete;

    /// See the free evaluate_module(): rates read from `ft`.
    [[nodiscard]] ModuleEvalResult evaluate_module(const ftree::FaultTree& ft,
                                                   const ftree::ModuleDecomposition& dec,
                                                   std::size_t module_index,
                                                   std::span<const double> child_probabilities,
                                                   double mission_hours);

    /// The lane edition: evaluates module `module_index` of `dec`
    /// (detected on `skeleton`) for k lanes in ONE compilation and ONE
    /// SoA probability sweep, writing lane j's result to out[j].  The
    /// skeleton supplies the structure only: lane j's event rates come
    /// from lane_lambdas[j], indexed like the skeleton's basic events (for
    /// a canonical skeleton: canonical event order), and its
    /// pseudo-variable probabilities from lane_child_probabilities[j],
    /// aligned with the module's child_modules.  Rate variants that share
    /// a canonical skeleton (ftree::IncrementalTreeBuilder::Prepared)
    /// are lanes of it.  Lane j's result is bitwise identical to
    /// evaluate_module on the skeleton with lane j's rates written in.
    void evaluate_module_lanes(const ftree::FaultTree& skeleton,
                               const ftree::ModuleDecomposition& dec, std::size_t module_index,
                               std::span<const std::span<const double>> lane_lambdas,
                               std::span<const std::span<const double>> lane_child_probabilities,
                               double mission_hours, std::span<ModuleEvalResult> out);

private:
    /// Both editions; empty `lane_lambdas` means one lane with ft's rates.
    void evaluate(const ftree::FaultTree& ft, const ftree::ModuleDecomposition& dec,
                  std::size_t module_index, std::span<const std::span<const double>> lane_lambdas,
                  std::span<const std::span<const double>> lane_child_probabilities,
                  double mission_hours, std::span<ModuleEvalResult> out);
    /// Numbers the module's leaves in the paper's local order (BFS from
    /// the module root, basic events and pseudo-variables in first-seen
    /// order) into leaves_, stamping every slot it touches.
    void order(const ftree::FaultTree& ft, const ftree::ModuleDecomposition& dec,
               const ftree::Module& mod);
    [[nodiscard]] BddRef compile(const ftree::FaultTree& ft, ftree::FtRef r);

    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    /// Per-gate scratch; fields other than `stamp` are meaningful only
    /// while stamp == stamp_ (the current module).
    struct GateSlot {
        std::uint32_t stamp = 0;
        std::uint32_t pseudo = kNone;  ///< position in child_modules when a nested module root
        std::uint32_t var = kNone;     ///< pseudo-variable index once numbered
        bool queued = false;           ///< interior gate visited by the ordering BFS
        bool compiled = false;
        BddRef bdd = kFalse;
    };
    struct EventSlot {
        std::uint32_t stamp = 0;
        std::uint32_t var = kNone;
    };
    struct Leaf {
        bool pseudo = false;
        /// Basic-event index, or (pseudo) position in mod.child_modules.
        std::uint32_t index = 0;
    };
    [[nodiscard]] GateSlot& gate_slot(std::uint32_t gate) {
        GateSlot& s = gates_[gate];
        if (s.stamp != stamp_) s = GateSlot{stamp_};
        return s;
    }

    BddManager manager_{0};
    std::uint32_t stamp_ = 0;
    std::vector<GateSlot> gates_;
    std::vector<EventSlot> events_;
    std::vector<ftree::FtRef> queue_;
    std::vector<Leaf> leaves_;
    std::size_t real_events_ = 0;
    std::vector<ProbVector> lanes_;
    std::vector<double> lane_out_;
};

}  // namespace asilkit::bdd
