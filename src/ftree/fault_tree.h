// Fault-tree data structure (paper Section V).
//
// A fault tree here is a rooted DAG: interior nodes are AND/OR gates,
// leaves are basic events with a failure rate lambda (failures/hour).
// DAG — not tree — because a resource shared by several application nodes
// contributes ONE basic event referenced from several gates; that sharing
// is precisely what the Common-Cause-Fault analysis looks for and what
// makes the Fig. 9 mapping experiment behave.
//
// Nodes are index-addressed within the owning FaultTree; FtRef is a typed
// (kind, index) handle.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/error.h"

namespace asilkit::ftree {

enum class GateKind : std::uint8_t { Or, And };

[[nodiscard]] std::string_view to_string(GateKind k) noexcept;

/// Reference to a node inside a FaultTree.
struct FtRef {
    enum class Kind : std::uint8_t { Basic, Gate } kind = Kind::Basic;
    std::uint32_t index = 0;

    friend bool operator==(const FtRef&, const FtRef&) = default;
};

struct BasicEvent {
    std::string name;
    double lambda = 0.0;  ///< failures/hour
};

struct Gate {
    std::string name;
    GateKind kind = GateKind::Or;
    std::vector<FtRef> children;
};

/// Statistics of a fault tree; `dag_nodes` counts each shared node once,
/// `expanded_nodes` and `paths` treat the structure as a tree (the
/// quantities the paper reports: the Fig. 3 example goes from 87 to 51
/// nodes under the approximation, and the number of root-to-leaf paths
/// doubles per ASIL decomposition without it).
struct FaultTreeStats {
    std::size_t basic_events = 0;
    std::size_t gates = 0;
    std::size_t dag_nodes = 0;
    std::uint64_t expanded_nodes = 0;  ///< saturates at 2^62
    std::uint64_t paths = 0;           ///< saturates at 2^62
    std::size_t depth = 0;

    friend bool operator==(const FaultTreeStats&, const FaultTreeStats&) = default;
};

std::ostream& operator<<(std::ostream& os, const FaultTreeStats& s);

struct CanonicalTree;
struct RateBlindOrder;

namespace detail {
/// detail::walk_gates' per-gate visit states and frame stack (dag_walk.h),
/// reusable across walks so that a caller walking many trees allocates
/// once.
struct WalkScratch {
    std::vector<std::uint8_t> state;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> frames;  // (gate, next child slot)
};
}  // namespace detail

class FaultTree {
public:
    /// Adds (or finds) a basic event by name.  Re-adding an existing name
    /// with a different lambda is an error: one physical cause, one rate.
    /// The name is looked up before anything is stored, so finding an
    /// existing event never allocates; the rvalue overload moves a new
    /// name in instead of copying it.
    FtRef add_basic_event(std::string_view name, double lambda);
    FtRef add_basic_event(std::string&& name, double lambda);
    FtRef add_basic_event(const char* name, double lambda) {
        return add_basic_event(std::string_view(name), lambda);
    }

    /// Adds a gate.  Children may be added later via add_child.
    FtRef add_gate(std::string name, GateKind kind, std::vector<FtRef> children = {});

    void add_child(FtRef gate, FtRef child);

    /// Reserves room for `basic_events` events (arena and name index) and
    /// `gates` gates, so a builder that knows its sizes up front never
    /// regrows or rehashes.  Never shrinks; does not change the tree.
    void reserve(std::size_t basic_events, std::size_t gates);

    void set_top(FtRef top);
    [[nodiscard]] FtRef top() const;
    [[nodiscard]] bool has_top() const noexcept { return has_top_; }

    [[nodiscard]] const BasicEvent& basic_event(std::uint32_t index) const;
    [[nodiscard]] const Gate& gate(std::uint32_t index) const;
    [[nodiscard]] const BasicEvent& basic_event(FtRef r) const;
    [[nodiscard]] const Gate& gate(FtRef r) const;

    [[nodiscard]] std::span<const BasicEvent> basic_events() const noexcept { return basics_; }
    [[nodiscard]] std::span<const Gate> gates() const noexcept { return gates_; }

    /// Finds a basic event by name; returns {Basic, index} or throws.
    [[nodiscard]] FtRef find_basic_event(std::string_view name) const;
    [[nodiscard]] bool has_basic_event(std::string_view name) const noexcept;

    /// Statistics over the subtree reachable from top().
    [[nodiscard]] FaultTreeStats stats() const;

    /// 64-bit structural hash of the DAG reachable from top().
    ///
    /// Two fault trees hash equal when they are isomorphic as shared
    /// DAGs with identical gate kinds, child order, event sharing and
    /// failure rates — event *names* are deliberately ignored, since the
    /// top-event probability is a function of structure and rates only.
    /// Sharing matters: OR(a, a) and OR(a, b) hash differently even when
    /// a and b carry the same rate, because basic events are numbered by
    /// first occurrence in a depth-first traversal from the top.  This
    /// is the key of the engine's evaluation cache: candidate moves that
    /// generate isomorphic trees (ubiquitous in steepest-descent mapping
    /// search) reuse a previously computed probability.  Throws when the
    /// tree has no top event.
    [[nodiscard]] std::uint64_t structural_hash() const;

    /// structural_hash() with the failure rates left out: two trees
    /// share a shape hash when they are isomorphic as shared DAGs with
    /// identical gate kinds, child order and event sharing, whatever
    /// their lambdas.  Like any 64-bit key it can collide, so sharing
    /// anything between same-shape trees is confirmed with
    /// identical_shape().  Throws when the tree has no top event.
    [[nodiscard]] std::uint64_t shape_hash() const;

    /// The basic events reachable from `root` (deduplicated, by index).
    [[nodiscard]] std::vector<std::uint32_t> reachable_basic_events(FtRef root) const;

private:
    /// The slot of name_slots_ holding `name`'s event, or the empty slot
    /// where it would go.  Requires a non-empty table.
    [[nodiscard]] std::size_t name_slot(std::string_view name) const noexcept;
    /// `name`'s event index + 1, or 0 when no event has that name.
    [[nodiscard]] std::uint32_t name_entry(std::string_view name) const noexcept;
    /// The event `name` if it exists (checking its lambda), else nullopt.
    [[nodiscard]] std::optional<FtRef> existing_event(std::string_view name, double lambda) const;
    /// Appends an event whose name is not in the index yet.
    FtRef append_basic_event(std::string&& name, double lambda);
    /// Rebuilds name_slots_ with `capacity` slots (a power of two).
    void rehash_names(std::size_t capacity);

    /// Moves names and child lists out of the discarded source tree.
    friend CanonicalTree canonicalize(FaultTree&& ft, RateBlindOrder* order);

    std::vector<BasicEvent> basics_;
    std::vector<Gate> gates_;
    /// Name index over basics_: open addressing with linear probing; a
    /// slot holds event index + 1 (0 = empty).  The capacity is a power
    /// of two, at least twice the event count.
    std::vector<std::uint32_t> name_slots_;
    FtRef top_{};
    bool has_top_ = false;
};

/// Canonical form under gate commutativity: rebuilds the DAG reachable
/// from top() with every gate's children stably sorted by a
/// sharing-blind bottom-up subtree hash.  AND/OR are commutative, so
/// the canonical tree represents the same boolean function and the same
/// top-event probability — but candidate architectures that differ only
/// by a symmetry (a merge in branch 1 vs the mirror merge in branch 2,
/// a merge of sibling chains in a sensor fan) collapse onto ONE
/// canonical tree.  Evaluating the canonical form therefore makes
/// structural_hash() a sound memoisation key for exact probabilities:
/// equal hashes mean the same canonical tree, hence bit-identical BDD
/// construction and Shannon evaluation.  This is how the engine's eval
/// cache turns the steepest-descent candidate sweep — where symmetric
/// moves are ubiquitous — into cache hits.
///
/// The ordering keys are refined with a context signature (each event's
/// sorted multiset of parent-gate hashes), so the canonical tree — and
/// with it structural_hash()/shape_hash() — is invariant under the
/// component and edge *declaration order* of the source model even when
/// distinct shared events carry equal rates and reference counts (the
/// Table-I norm).  tests/test_ftree.cpp and tests/test_cft.cpp hold
/// shuffled-but-isomorphic builds to hash equality.
///
/// Cost: linear in the reachable DAG plus the per-gate child sorts —
/// one iterative walk for reference counts, two flat hashing sweeps over
/// the gates in children-first order (preliminary, then context-refined;
/// each computes the rate-blind and rate-inclusive hash together), and
/// one explicit-stack rebuild.  docs/ftree.md gives the details.
[[nodiscard]] FaultTree canonical_form(const FaultTree& ft);

/// canonical_form() together with what the rebuild computes as it goes:
/// `structural_hash` and `shape_hash` equal tree.structural_hash() and
/// tree.shape_hash(), and `stats` equals tree.stats() — which is also
/// ft.stats(), since the statistics do not depend on child order.
struct CanonicalTree {
    FaultTree tree;
    std::uint64_t structural_hash = 0;
    std::uint64_t shape_hash = 0;
    FaultTreeStats stats;
};
[[nodiscard]] CanonicalTree canonicalize(const FaultTree& ft);
/// The same canonical tree, built by moving the names and child lists out
/// of `ft` instead of copying them; `ft` is left fit only for destruction
/// or assignment.  With `order`, also keeps the rate-blind half of the
/// work there, so that rate variants of `ft` can be bound (RateBinder)
/// instead of canonicalized; a basic-event top leaves `order` empty.
[[nodiscard]] CanonicalTree canonicalize(FaultTree&& ft, RateBlindOrder* order = nullptr);

/// The rate-blind half of one canonicalization, indexed like its source
/// tree.  A *rate variant* of that source — the same arenas and child
/// lists, other lambdas — orders its children by the same rate-blind
/// keys; only siblings tied on the rate-blind key are ordered by rates
/// (the rate-inclusive key, then the original position).  So the order
/// keeps, per reachable gate, its children in rate-blind sorted order and
/// the runs of them that tie, together with what the rate-inclusive
/// ordering hashes are computed from: the children-first gate order, the
/// gates' seeds (kind and reference count), the events' reference counts
/// and the event -> parent-gate lists.
struct RateBlindOrder {
    std::uint32_t root = 0;
    std::size_t basic_count = 0;
    std::size_t gate_count = 0;
    std::vector<std::uint32_t> postorder;      ///< reachable gates, children first
    std::vector<GateKind> kinds;               ///< per gate
    std::vector<std::uint64_t> seeds;          ///< per gate: ordering-hash seed
    std::vector<std::uint32_t> reached_basics;  ///< first-reached order
    std::vector<std::uint32_t> basic_refs;     ///< per event: parent slots
    /// Event e's parent gates: parents[parent_begin[e], parent_begin[e + 1]).
    std::vector<std::uint32_t> parent_begin;
    std::vector<std::uint32_t> parents;
    /// Gate g's children in rate-blind order: sorted[range.first, range.second).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_range;
    std::vector<FtRef> sorted;
    /// Each sorted child as one node number: an event's index, or
    /// basic_count + a gate's index.
    std::vector<std::uint32_t> sorted_node;
    std::vector<std::uint32_t> sorted_position;  ///< each sorted child's slot in its gate
    /// Runs [begin, end) of `sorted` whose children tie on the rate-blind key.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ties;
};

/// Canonicalizes rate variants without building a tree.  bind() replays
/// canonicalize() on the source a RateBlindOrder was captured from, with
/// other lambdas: it recomputes only the rate-inclusive ordering hashes,
/// re-sorts only the tied runs, and replays the rebuild's numbering over
/// the result.  The structural and shape hashes, and the rates in
/// canonical event order, are then bit-identical to what canonicalize()
/// returns for the variant's tree; matches() tells whether that tree is
/// also index-identical to a given canonical tree (rates aside), i.e.
/// whether the variant can share it as its skeleton.  Reusable and
/// single-threaded: its working arrays are kept across binds.
class RateBinder {
public:
    /// `lambdas` is indexed like the source tree's basic events.  The
    /// order must outlive the results' use.
    void bind(const RateBlindOrder& order, std::span<const double> lambdas);

    [[nodiscard]] std::uint64_t structural_hash() const noexcept { return structural_hash_; }
    /// Folded on first request after a bind: a variant that matches its
    /// skeleton has the skeleton's shape hash and never asks.
    [[nodiscard]] std::uint64_t shape_hash();
    /// The last bind's rates in canonical event order.
    [[nodiscard]] std::span<const double> lambdas() const noexcept { return lambdas_; }
    /// Whether the last bind's canonical tree has `skeleton`'s gate kinds,
    /// child lists, event count and top.
    [[nodiscard]] bool matches(const FaultTree& skeleton) const;

private:
    struct TieEntry {
        std::uint64_t full = 0;
        std::uint32_t position = 0;
        FtRef ref{};
    };
    [[nodiscard]] std::span<const FtRef> children(std::uint32_t gate) const noexcept;

    const RateBlindOrder* order_ = nullptr;
    std::vector<FtRef> sorted_;
    std::vector<std::uint64_t> full_;  ///< per node: rate-inclusive ordering hash
    std::vector<std::uint64_t> values_;
    std::vector<TieEntry> entries_;
    std::vector<std::uint32_t> basic_map_;
    std::vector<std::uint32_t> gate_map_;
    std::vector<std::uint64_t> out_;  ///< per gate: rebuild hash term
    std::vector<double> lambdas_;
    detail::WalkScratch walk_;
    std::uint64_t structural_hash_ = 0;
    std::optional<std::uint64_t> shape_hash_;
};

/// Exact index-wise structural equality ignoring names and failure
/// rates: same gate count/kinds/child lists, same basic-event count,
/// same top reference.  Conservative for arbitrary trees (isomorphic
/// trees with permuted indices compare unequal — never the unsafe
/// direction), and exact for trees built by canonical_form(), whose
/// rebuild numbers nodes in a structure-determined traversal order:
/// shape-identical canonical trees are index-identical.  This is the
/// collision-proof confirmation behind sharing one canonical skeleton
/// (or one cut-set enumeration) among rate variants: an event/gate index
/// in one tree addresses the corresponding node of every tree sharing it.
[[nodiscard]] bool identical_shape(const FaultTree& a, const FaultTree& b);

}  // namespace asilkit::ftree
