#include "ftree/fault_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <ostream>
#include <type_traits>
#include <unordered_set>

#include "core/hash.h"
#include "ftree/dag_walk.h"

namespace asilkit::ftree {

std::string_view to_string(GateKind k) noexcept {
    return k == GateKind::Or ? "OR" : "AND";
}

std::ostream& operator<<(std::ostream& os, const FaultTreeStats& s) {
    return os << "{basic_events=" << s.basic_events << ", gates=" << s.gates
              << ", dag_nodes=" << s.dag_nodes << ", expanded_nodes=" << s.expanded_nodes
              << ", paths=" << s.paths << ", depth=" << s.depth << "}";
}

std::size_t FaultTree::name_slot(std::string_view name) const noexcept {
    const std::size_t mask = name_slots_.size() - 1;
    std::size_t slot = std::hash<std::string_view>{}(name) & mask;
    while (name_slots_[slot] != 0 && basics_[name_slots_[slot] - 1].name != name) {
        slot = (slot + 1) & mask;
    }
    return slot;
}

std::uint32_t FaultTree::name_entry(std::string_view name) const noexcept {
    return name_slots_.empty() ? 0 : name_slots_[name_slot(name)];
}

std::optional<FtRef> FaultTree::existing_event(std::string_view name, double lambda) const {
    const std::uint32_t found = name_entry(name);
    if (found == 0) return std::nullopt;
    const BasicEvent& existing = basics_[found - 1];
    if (existing.lambda != lambda) {
        throw AnalysisError("basic event '" + std::string(name) + "' re-added with lambda " +
                            std::to_string(lambda) + " != " + std::to_string(existing.lambda));
    }
    return FtRef{FtRef::Kind::Basic, found - 1};
}

FtRef FaultTree::add_basic_event(std::string_view name, double lambda) {
    if (const auto found = existing_event(name, lambda)) return *found;
    return append_basic_event(std::string(name), lambda);
}

FtRef FaultTree::add_basic_event(std::string&& name, double lambda) {
    if (const auto found = existing_event(name, lambda)) return *found;
    return append_basic_event(std::move(name), lambda);
}

FtRef FaultTree::append_basic_event(std::string&& name, double lambda) {
    const auto index = static_cast<std::uint32_t>(basics_.size());
    basics_.push_back(BasicEvent{std::move(name), lambda});
    if (2 * basics_.size() <= name_slots_.size()) {
        name_slots_[name_slot(basics_.back().name)] = index + 1;
    } else {
        rehash_names(std::max<std::size_t>(16, 2 * name_slots_.size()));
    }
    return FtRef{FtRef::Kind::Basic, index};
}

void FaultTree::rehash_names(std::size_t capacity) {
    name_slots_.assign(capacity, 0);
    for (std::uint32_t i = 0; i < basics_.size(); ++i) {
        name_slots_[name_slot(basics_[i].name)] = i + 1;
    }
}

void FaultTree::reserve(std::size_t basic_events, std::size_t gates) {
    basics_.reserve(basic_events);
    gates_.reserve(gates);
    if (2 * basic_events > name_slots_.size()) {
        rehash_names(std::bit_ceil(std::max<std::size_t>(16, 2 * basic_events)));
    }
}

FtRef FaultTree::add_gate(std::string name, GateKind kind, std::vector<FtRef> children) {
    const auto index = static_cast<std::uint32_t>(gates_.size());
    gates_.push_back(Gate{std::move(name), kind, std::move(children)});
    return FtRef{FtRef::Kind::Gate, index};
}

void FaultTree::add_child(FtRef gate_ref, FtRef child) {
    if (gate_ref.kind != FtRef::Kind::Gate || gate_ref.index >= gates_.size()) {
        throw AnalysisError("add_child: parent is not a valid gate");
    }
    gates_[gate_ref.index].children.push_back(child);
}

void FaultTree::set_top(FtRef top) {
    top_ = top;
    has_top_ = true;
}

FtRef FaultTree::top() const {
    if (!has_top_) throw AnalysisError("fault tree has no top event");
    return top_;
}

const BasicEvent& FaultTree::basic_event(std::uint32_t index) const {
    if (index >= basics_.size()) throw AnalysisError("basic event index out of range");
    return basics_[index];
}

const Gate& FaultTree::gate(std::uint32_t index) const {
    if (index >= gates_.size()) throw AnalysisError("gate index out of range");
    return gates_[index];
}

const BasicEvent& FaultTree::basic_event(FtRef r) const {
    if (r.kind != FtRef::Kind::Basic) throw AnalysisError("FtRef is not a basic event");
    return basic_event(r.index);
}

const Gate& FaultTree::gate(FtRef r) const {
    if (r.kind != FtRef::Kind::Gate) throw AnalysisError("FtRef is not a gate");
    return gate(r.index);
}

FtRef FaultTree::find_basic_event(std::string_view name) const {
    if (const std::uint32_t found = name_entry(name); found != 0) {
        return FtRef{FtRef::Kind::Basic, found - 1};
    }
    throw AnalysisError("no basic event named '" + std::string(name) + "'");
}

bool FaultTree::has_basic_event(std::string_view name) const noexcept {
    return name_entry(name) != 0;
}

namespace {

/// A gate's share of FaultTreeStats — its subtree's size and path count
/// when expanded into a tree, and its depth — folded children-first.
/// Every term is a sum or a max over the children, so the tally does not
/// depend on child order.
struct TreeTally {
    static constexpr std::uint64_t kCap = std::uint64_t{1} << 62;

    std::uint64_t expanded = 1;
    std::uint64_t paths = 0;
    std::size_t depth = 1;

    static constexpr std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) noexcept {
        return a > kCap - std::min(b, kCap) ? kCap : a + b;
    }
    void add_child(const TreeTally& c) noexcept {
        expanded = sat_add(expanded, c.expanded);
        paths = sat_add(paths, c.paths);
        depth = std::max(depth, c.depth + 1);
    }
};
constexpr TreeTally kLeafTally{1, 1, 1};

[[nodiscard]] FaultTreeStats make_stats(std::size_t basic_events, std::size_t gates,
                                             const TreeTally& top) noexcept {
    FaultTreeStats s;
    s.basic_events = basic_events;
    s.gates = gates;
    s.dag_nodes = basic_events + gates;
    s.expanded_nodes = top.expanded;
    s.paths = top.paths;
    s.depth = top.depth;
    return s;
}

}  // namespace

FaultTreeStats FaultTree::stats() const {
    if (!has_top_) return {};
    if (top_.kind == FtRef::Kind::Basic) return make_stats(1, 0, kLeafTally);
    std::vector<TreeTally> tally(gates_.size());
    std::vector<std::uint8_t> basic_seen(basics_.size(), 0);
    std::size_t basic_events = 0;
    std::size_t gates = 0;
    detail::walk_gates(
        *this, top_.index,
        [&](std::uint32_t, FtRef c) {
            if (c.kind == FtRef::Kind::Basic && !basic_seen[c.index]) {
                basic_seen[c.index] = 1;
                ++basic_events;
            }
        },
        [&](std::uint32_t g) {
            ++gates;
            for (const FtRef c : gates_[g].children) {
                tally[g].add_child(c.kind == FtRef::Kind::Basic ? kLeafTally : tally[c.index]);
            }
        });
    return make_stats(basic_events, gates, tally[top_.index]);
}

namespace {

constexpr std::uint64_t kGateSalt = 0x67617465ull;    // "gate"
constexpr std::uint64_t kBasicSalt = 0x6261736963ull;  // "basic"
constexpr std::uint64_t kShapeSalt = 0x7368617065ull;  // "shape"
constexpr std::uint64_t kEventSalt = 0x6576656E74ull;  // "event"
constexpr std::uint64_t kContextSalt = 0x637478ull;    // "ctx"
constexpr std::uint32_t kUnset = ~std::uint32_t{0};

[[nodiscard]] std::uint64_t double_bits(double d) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

[[nodiscard]] std::uint64_t gate_seed(GateKind kind) noexcept {
    return hash::combine(kGateSalt, static_cast<std::uint64_t>(kind));
}

/// Leaf terms of structural_hash() / shape_hash() for the event numbered
/// `id` by first occurrence.
[[nodiscard]] std::uint64_t structural_leaf(std::uint64_t id, double lambda) noexcept {
    return hash::combine(hash::combine(kBasicSalt, id), double_bits(lambda));
}
[[nodiscard]] std::uint64_t shape_leaf(std::uint64_t id) noexcept {
    return hash::combine(kShapeSalt, id);
}

/// Preliminary ordering hashes of an event referenced from `refs` parent
/// slots: rate-blind, and with its rate `lambda`.
[[nodiscard]] std::uint64_t event_shape_seed(std::uint32_t refs) noexcept {
    return hash::combine(kShapeSalt, refs);
}
[[nodiscard]] std::uint64_t event_full_seed(double lambda, std::uint32_t refs) noexcept {
    return hash::combine(hash::combine(kEventSalt, double_bits(lambda)), refs);
}
/// The ordering-hash seed of a gate with `refs` parent slots.
[[nodiscard]] std::uint64_t ordering_seed(GateKind kind, std::uint32_t refs) noexcept {
    return hash::combine(gate_seed(kind), refs);
}

/// `seed` with `values` folded in ascending order (sorts `values`): the
/// permutation-invariant fold behind every ordering hash.  Gates have a
/// handful of children and events a handful of parents, so short lists
/// take an inline insertion sort.
[[nodiscard]] std::uint64_t fold_sorted(std::uint64_t seed, std::span<std::uint64_t> values) {
    if (values.size() <= 16) {
        for (std::size_t i = 1; i < values.size(); ++i) {
            const std::uint64_t v = values[i];
            std::size_t j = i;
            for (; j > 0 && values[j - 1] > v; --j) values[j] = values[j - 1];
            values[j] = v;
        }
    } else {
        std::sort(values.begin(), values.end());
    }
    for (const std::uint64_t v : values) seed = hash::combine(seed, v);
    return seed;
}

/// structural_hash() (with_rates) or shape_hash() of the DAG below `root`.
[[nodiscard]] std::uint64_t dag_hash(const FaultTree& ft, FtRef root, bool with_rates) {
    const std::span<const BasicEvent> basics = ft.basic_events();
    if (root.kind == FtRef::Kind::Basic) {
        const double lambda = ft.basic_event(root.index).lambda;  // range-checked
        return with_rates ? structural_leaf(0, lambda) : shape_leaf(0);
    }
    // Basic events are numbered by first occurrence in the depth-first
    // walk, which abstracts names away while preserving the sharing
    // pattern (one event referenced from two gates hashes differently
    // from two equal-rate events referenced once each).
    std::vector<std::uint32_t> basic_id(basics.size(), kUnset);
    std::uint32_t next_id = 0;
    std::vector<std::uint64_t> gate_hash(ft.gates().size());
    detail::walk_gates(
        ft, root.index,
        [&](std::uint32_t, FtRef c) {
            if (c.kind == FtRef::Kind::Basic && basic_id[c.index] == kUnset) {
                basic_id[c.index] = next_id++;
            }
        },
        [&](std::uint32_t g) {
            const Gate& gate = ft.gates()[g];
            std::uint64_t h = gate_seed(gate.kind);
            for (const FtRef c : gate.children) {
                std::uint64_t ch = 0;
                if (c.kind == FtRef::Kind::Gate) {
                    ch = gate_hash[c.index];
                } else if (with_rates) {
                    ch = structural_leaf(basic_id[c.index], basics[c.index].lambda);
                } else {
                    ch = shape_leaf(basic_id[c.index]);
                }
                h = hash::combine(h, ch);
            }
            gate_hash[g] = h;
        });
    return gate_hash[root.index];
}

}  // namespace

std::uint64_t FaultTree::structural_hash() const {
    return dag_hash(*this, top(), true);  // top() throws when the tree has no top event
}

std::uint64_t FaultTree::shape_hash() const {
    // Mirrors structural_hash() — first-occurrence event numbering keeps
    // the sharing pattern — with the lambda bits omitted, so rate-only
    // variants of one structure hash equal.
    return dag_hash(*this, top(), false);
}

bool identical_shape(const FaultTree& a, const FaultTree& b) {
    if (a.has_top() != b.has_top()) return false;
    if (a.has_top() && a.top() != b.top()) return false;
    if (a.basic_events().size() != b.basic_events().size()) return false;
    if (a.gates().size() != b.gates().size()) return false;
    for (std::size_t g = 0; g < a.gates().size(); ++g) {
        const Gate& ga = a.gates()[g];
        const Gate& gb = b.gates()[g];
        if (ga.kind != gb.kind || ga.children != gb.children) return false;
    }
    return true;
}

namespace {

/// A source node's member for its canonical copy: moved out of a source
/// that is being discarded (mutable `T`), copied otherwise.
template <class T>
[[nodiscard]] decltype(auto) take(T& member) noexcept {
    if constexpr (std::is_const_v<T>) {
        return (member);
    } else {
        return std::move(member);
    }
}

/// canonicalize() over a source tree's arenas.  One implementation for
/// both entry points: `Basic`/`GateT` are const when the source is kept
/// (names and child lists copied) and mutable when it is discarded (their
/// buffers moved into the canonical tree).
template <class Basic, class GateT>
[[nodiscard]] CanonicalTree canonicalize_arenas(std::span<Basic> basics, std::span<GateT> gates,
                                                FtRef root, RateBlindOrder* capture) {
    CanonicalTree out;
    if (capture != nullptr) *capture = RateBlindOrder{};
    if (root.kind == FtRef::Kind::Basic) {
        if (root.index >= basics.size()) throw AnalysisError("basic event index out of range");
        Basic& e = basics[root.index];
        out.structural_hash = structural_leaf(0, e.lambda);
        out.shape_hash = shape_leaf(0);
        out.stats = make_stats(1, 0, kLeafTally);
        out.tree.set_top(out.tree.add_basic_event(take(e.name), e.lambda));
        return out;
    }
    const auto own_children = [gates](std::uint32_t g) {
        return std::span<const FtRef>(gates[g].children);
    };
    std::size_t child_slots = 0;
    for (const GateT& g : gates) child_slots += g.children.size();

    // Phase 0: one walk collects the reachable gates children-first and
    // the reference counts (how many parent slots point at each node,
    // duplicates included; the root counts once).  They feed the
    // ordering hashes so that a branch containing a *shared* event —
    // e.g. the single resource event a candidate merge creates — orders
    // differently from a pristine branch whose events carry the same
    // rates.  Without this, mirror merges in redundant branches tie
    // under a sharing-blind hash and stable sort keeps them apart.  The
    // (event, parent) slots become a CSR event -> parent-gates list for
    // the phase-2 context refinement.
    std::vector<std::uint32_t> gate_refs(gates.size(), 0);
    std::vector<std::uint32_t> basic_refs(basics.size(), 0);
    std::vector<std::uint32_t> postorder;
    std::vector<std::uint32_t> reached_basics;  // first-reached order
    std::vector<std::pair<std::uint32_t, std::uint32_t>> event_slots;  // (event, parent gate)
    postorder.reserve(gates.size());
    reached_basics.reserve(basics.size());
    event_slots.reserve(child_slots);
    detail::walk_gates(
        gates.size(), basics.size(), root.index, own_children,
        [&](std::uint32_t g, FtRef c) {
            if (c.kind == FtRef::Kind::Gate) {
                ++gate_refs[c.index];
                return;
            }
            if (basic_refs[c.index]++ == 0) reached_basics.push_back(c.index);
            event_slots.emplace_back(c.index, g);
        },
        [&](std::uint32_t g) { postorder.push_back(g); });
    gate_refs[root.index] = 1;  // the root counts once
    std::vector<std::uint32_t> parent_begin(basics.size() + 1, 0);
    for (const auto& [e, g] : event_slots) ++parent_begin[e + 1];
    for (std::size_t e = 0; e < basics.size(); ++e) parent_begin[e + 1] += parent_begin[e];
    std::vector<std::uint32_t> parents(event_slots.size());
    {
        std::vector<std::uint32_t> fill(parent_begin.begin(), parent_begin.end() - 1);
        for (const auto& [e, g] : event_slots) parents[fill[e]++] = g;
    }

    // Every node carries a pair of ordering hashes: rate-blind (`shape`)
    // and rate-inclusive (`full`).  A gate's pair folds its kind, its
    // reference count and the *sorted* child hashes, so both are
    // invariant under child permutation — they only *order* children;
    // the final structural_hash() of the rebuilt tree is what captures
    // sharing exactly.
    //
    // Children sort primarily by the rate-blind hash (shape + sharing),
    // with the rate-inclusive hash as tiebreaker.  Rates therefore only
    // order siblings that shape and sharing cannot separate — so a
    // rate-only variant reorders nothing but the tied runs, and almost
    // always canonicalises to an *index-identical* shape.  That is what
    // lets a rate variant be bound to its structure's canonical tree
    // (RateBinder replays exactly these phases for the tied runs).
    // Sorting by the rate-inclusive hash alone would make every lambda
    // nudge reshuffle siblings into an unrelated order.
    struct HashPair {
        std::uint64_t shape = 0;
        std::uint64_t full = 0;
    };
    std::vector<HashPair> basic_hash(basics.size());
    std::vector<HashPair> gate_hash(gates.size());
    std::vector<std::uint64_t> scratch;  // sorted-hash buffer, shape half then full half
    auto hash_gates = [&] {
        for (const std::uint32_t g : postorder) {
            const Gate& gate = gates[g];
            const std::size_t n = gate.children.size();
            scratch.resize(2 * n);
            for (std::size_t i = 0; i < n; ++i) {
                const FtRef c = gate.children[i];
                const HashPair& ch =
                    c.kind == FtRef::Kind::Gate ? gate_hash[c.index] : basic_hash[c.index];
                scratch[i] = ch.shape;
                scratch[n + i] = ch.full;
            }
            const std::uint64_t seed = ordering_seed(gate.kind, gate_refs[g]);
            const std::span<std::uint64_t> halves(scratch);
            gate_hash[g] = {fold_sorted(seed, halves.first(n)),
                            fold_sorted(seed, halves.subspan(n))};
        }
    };

    // Phase 1: preliminary pairs.  An event is (reference count) when
    // rate-blind — a branch containing a *shared* event must still order
    // apart from a pristine branch of the same shape — and (rate,
    // reference count) when rate-inclusive.
    for (const std::uint32_t e : reached_basics) {
        basic_hash[e].shape = event_shape_seed(basic_refs[e]);
        basic_hash[e].full = event_full_seed(basics[e].lambda, basic_refs[e]);
    }
    hash_gates();

    // Phase 2: context refinement.  The phase-1 hashes see an event as
    // (rate, ref count) — two *distinct* shared events with equal rates
    // and equal ref counts tie, and the stable sort then falls back to
    // construction order.  Construction order is declaration order of
    // the source model, so two isomorphic models declared in different
    // component/edge order could canonicalise into trees whose event
    // first-occurrence patterns differ — different structural_hash for
    // the same structure.  One Weisfeiler–Leman-style round breaks the
    // tie by context: each event is refined with the sorted multiset of
    // its parent gates' phase-1 hashes, so events shared into different
    // regions order apart by content, not by declaration order.  The
    // rate-blind refinement uses rate-blind parent hashes, keeping the
    // primary sort key rate-blind — a lambda nudge still cannot reorder
    // siblings that shape and sharing separate (the property the batched
    // multi-lambda evaluation keys on).  Gates then re-hash over the
    // refined events.
    for (const std::uint32_t e : reached_basics) {
        const std::uint32_t begin = parent_begin[e];
        const std::uint32_t n = parent_begin[e + 1] - begin;
        scratch.resize(2 * std::size_t{n});
        for (std::uint32_t i = 0; i < n; ++i) {
            const HashPair& ph = gate_hash[parents[begin + i]];
            scratch[i] = ph.shape;
            scratch[n + i] = ph.full;
        }
        const std::span<std::uint64_t> halves(scratch);
        basic_hash[e].shape =
            hash::combine(basic_hash[e].shape, fold_sorted(kContextSalt, halves.first(n)));
        basic_hash[e].full =
            hash::combine(basic_hash[e].full, fold_sorted(kContextSalt, halves.subspan(n)));
    }
    hash_gates();

    // Phase 3: every reachable gate's children sorted by their refined
    // (shape, full) pair, laid out flat.  Full ties (identical subtree
    // shapes, sharing, rates and context) keep their original order —
    // the original position is the last sort key, which gives a stable
    // sort's order without its per-call buffer.  Such ties never produce
    // a false cache hit because the final order-dependent hash still
    // separates them.
    struct SortEntry {
        HashPair key;
        std::uint32_t position;
        FtRef ref;
    };
    std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_range(gates.size());  // [begin, end)
    std::vector<FtRef> sorted;
    sorted.reserve(child_slots);
    std::vector<SortEntry> order;
    for (const std::uint32_t g : postorder) {
        order.clear();
        for (const FtRef c : gates[g].children) {
            order.push_back(SortEntry{
                c.kind == FtRef::Kind::Gate ? gate_hash[c.index] : basic_hash[c.index],
                static_cast<std::uint32_t>(order.size()), c});
        }
        std::sort(order.begin(), order.end(), [](const SortEntry& a, const SortEntry& b) {
            if (a.key.shape != b.key.shape) return a.key.shape < b.key.shape;
            if (a.key.full != b.key.full) return a.key.full < b.key.full;
            return a.position < b.position;
        });
        sorted_range[g].first = static_cast<std::uint32_t>(sorted.size());
        for (const SortEntry& entry : order) sorted.push_back(entry.ref);
        sorted_range[g].second = static_cast<std::uint32_t>(sorted.size());
        if (capture == nullptr) continue;
        const std::uint32_t first = sorted_range[g].first;
        for (std::uint32_t run = 0, i = 1; i <= order.size(); ++i) {
            capture->sorted_position.push_back(order[i - 1].position);
            if (i == order.size() || order[i].key.shape != order[run].key.shape) {
                if (i - run > 1) capture->ties.emplace_back(first + run, first + i);
                run = i;
            }
        }
    }
    if (capture != nullptr) {
        capture->root = root.index;
        capture->basic_count = basics.size();
        capture->gate_count = gates.size();
        capture->postorder = postorder;
        capture->kinds.resize(gates.size());
        capture->seeds.resize(gates.size());
        for (const std::uint32_t g : postorder) {
            capture->kinds[g] = gates[g].kind;
            capture->seeds[g] = ordering_seed(gates[g].kind, gate_refs[g]);
        }
        capture->reached_basics = reached_basics;
        capture->basic_refs = std::move(basic_refs);
        capture->parent_begin = std::move(parent_begin);
        capture->parents = std::move(parents);
        capture->sorted_range = sorted_range;
        capture->sorted = sorted;
        capture->sorted_node.reserve(sorted.size());
        for (const FtRef c : sorted) {
            capture->sorted_node.push_back(c.kind == FtRef::Kind::Gate
                                               ? static_cast<std::uint32_t>(basics.size()) + c.index
                                               : c.index);
        }
    }

    // Phase 4: rebuild depth-first over the sorted children.  Events are
    // numbered on first arrival and gates on completion — exactly the
    // first-occurrence numbering structural_hash()/shape_hash() apply to
    // the result — so both hashes of the canonical tree, and its stats(),
    // fold up in the same pass.
    out.tree.reserve(reached_basics.size(), postorder.size());
    std::vector<std::uint32_t> basic_map(basics.size(), kUnset);
    std::vector<std::uint32_t> gate_map(gates.size(), kUnset);
    std::vector<HashPair> out_hash(gates.size());  // (shape_hash, structural_hash) terms
    std::vector<TreeTally> tally(gates.size());
    auto sorted_children = [&](std::uint32_t g) {
        const auto [begin, end] = sorted_range[g];
        return std::span<const FtRef>(sorted).subspan(begin, end - begin);
    };
    detail::walk_gates(
        gates.size(), basics.size(), root.index, sorted_children,
        [&](std::uint32_t, FtRef c) {
            if (c.kind == FtRef::Kind::Basic && basic_map[c.index] == kUnset) {
                Basic& e = basics[c.index];
                basic_map[c.index] = out.tree.add_basic_event(take(e.name), e.lambda).index;
            }
        },
        [&](std::uint32_t g) {
            GateT& gate = gates[g];
            const std::uint64_t seed = gate_seed(gate.kind);
            HashPair h{seed, seed};
            // Same length as the sorted list; every slot is overwritten.
            std::vector<FtRef> children = take(gate.children);
            std::size_t slot = 0;
            for (const FtRef c : sorted_children(g)) {
                if (c.kind == FtRef::Kind::Gate) {
                    children[slot++] = FtRef{FtRef::Kind::Gate, gate_map[c.index]};
                    h.shape = hash::combine(h.shape, out_hash[c.index].shape);
                    h.full = hash::combine(h.full, out_hash[c.index].full);
                    tally[g].add_child(tally[c.index]);
                } else {
                    const std::uint32_t id = basic_map[c.index];
                    children[slot++] = FtRef{FtRef::Kind::Basic, id};
                    h.shape = hash::combine(h.shape, shape_leaf(id));
                    h.full = hash::combine(h.full, structural_leaf(id, basics[c.index].lambda));
                    tally[g].add_child(kLeafTally);
                }
            }
            gate_map[g] = out.tree.add_gate(take(gate.name), gate.kind, std::move(children)).index;
            out_hash[g] = h;
        });
    out.tree.set_top(FtRef{FtRef::Kind::Gate, gate_map[root.index]});
    out.structural_hash = out_hash[root.index].full;
    out.shape_hash = out_hash[root.index].shape;
    out.stats = make_stats(reached_basics.size(), postorder.size(), tally[root.index]);
    return out;
}

}  // namespace

CanonicalTree canonicalize(const FaultTree& ft) {
    const FtRef root = ft.top();  // throws when the tree has no top event
    return canonicalize_arenas(ft.basic_events(), ft.gates(), root, nullptr);
}

CanonicalTree canonicalize(FaultTree&& ft, RateBlindOrder* order) {
    const FtRef root = ft.top();
    return canonicalize_arenas(std::span<BasicEvent>(ft.basics_), std::span<Gate>(ft.gates_), root,
                               order);
}

std::span<const FtRef> RateBinder::children(std::uint32_t gate) const noexcept {
    const auto [begin, end] = order_->sorted_range[gate];
    return std::span<const FtRef>(sorted_).subspan(begin, end - begin);
}

void RateBinder::bind(const RateBlindOrder& order, std::span<const double> lambdas) {
    order_ = &order;
    shape_hash_.reset();
    sorted_.assign(order.sorted.begin(), order.sorted.end());
    if (!order.ties.empty()) {
        // canonicalize()'s phases 1-2, rate-inclusive half only: the
        // rate-blind half is the order's, and it alone separates every
        // pair of siblings outside the tied runs.  Events and gates share
        // one array: gate g is node basic_count + g.
        const std::size_t gate_base = order.basic_count;
        full_.resize(order.basic_count + order.gate_count);
        const auto hash_gates = [&] {
            for (const std::uint32_t g : order.postorder) {
                const auto [begin, end] = order.sorted_range[g];
                values_.resize(end - begin);
                for (std::uint32_t k = begin; k < end; ++k) {
                    values_[k - begin] = full_[order.sorted_node[k]];
                }
                full_[gate_base + g] = fold_sorted(order.seeds[g], values_);
            }
        };
        for (const std::uint32_t e : order.reached_basics) {
            full_[e] = event_full_seed(lambdas[e], order.basic_refs[e]);
        }
        hash_gates();
        for (const std::uint32_t e : order.reached_basics) {
            const std::uint32_t begin = order.parent_begin[e];
            values_.resize(order.parent_begin[e + 1] - begin);
            for (std::size_t i = 0; i < values_.size(); ++i) {
                values_[i] = full_[gate_base + order.parents[begin + i]];
            }
            full_[e] = hash::combine(full_[e], fold_sorted(kContextSalt, values_));
        }
        hash_gates();
        // Phase 3 within each tied run: (rate-inclusive hash, position).
        for (const auto& [begin, end] : order.ties) {
            entries_.clear();
            for (std::uint32_t k = begin; k < end; ++k) {
                entries_.push_back(
                    {full_[order.sorted_node[k]], order.sorted_position[k], order.sorted[k]});
            }
            std::sort(entries_.begin(), entries_.end(), [](const TieEntry& a, const TieEntry& b) {
                if (a.full != b.full) return a.full < b.full;
                return a.position < b.position;
            });
            for (std::uint32_t k = begin; k < end; ++k) sorted_[k] = entries_[k - begin].ref;
        }
    }

    // Phase 4 without the tree: events numbered on first arrival, gates
    // on completion, the structural hash folded as the rebuild folds it.
    basic_map_.assign(order.basic_count, kUnset);
    gate_map_.assign(order.gate_count, kUnset);
    out_.resize(order.gate_count);
    lambdas_.resize(order.reached_basics.size());
    std::uint32_t next_basic = 0;
    std::uint32_t next_gate = 0;
    detail::walk_gates(
        walk_, order.gate_count, order.basic_count, order.root,
        [this](std::uint32_t g) { return children(g); },
        [&](std::uint32_t, FtRef c) {
            if (c.kind == FtRef::Kind::Basic && basic_map_[c.index] == kUnset) {
                lambdas_[next_basic] = lambdas[c.index];
                basic_map_[c.index] = next_basic++;
            }
        },
        [&](std::uint32_t g) {
            std::uint64_t full = gate_seed(order.kinds[g]);
            for (const FtRef c : children(g)) {
                full = hash::combine(full, c.kind == FtRef::Kind::Gate
                                               ? out_[c.index]
                                               : structural_leaf(basic_map_[c.index],
                                                                 lambdas[c.index]));
            }
            out_[g] = full;
            gate_map_[g] = next_gate++;
        });
    structural_hash_ = out_[order.root];
}

std::uint64_t RateBinder::shape_hash() {
    if (shape_hash_) return *shape_hash_;
    // The rebuild's rate-blind fold over the bound order; any
    // children-first gate order gives the same per-gate terms.
    const RateBlindOrder& order = *order_;
    for (const std::uint32_t g : order.postorder) {
        std::uint64_t shape = gate_seed(order.kinds[g]);
        for (const FtRef c : children(g)) {
            const std::uint64_t term =
                c.kind == FtRef::Kind::Gate ? out_[c.index] : shape_leaf(basic_map_[c.index]);
            shape = hash::combine(shape, term);
        }
        out_[g] = shape;
    }
    shape_hash_ = out_[order.root];
    return *shape_hash_;
}

bool RateBinder::matches(const FaultTree& skeleton) const {
    const RateBlindOrder& order = *order_;
    if (!skeleton.has_top() ||
        skeleton.top() != FtRef{FtRef::Kind::Gate, gate_map_[order.root]} ||
        skeleton.gates().size() != order.postorder.size() ||
        skeleton.basic_events().size() != order.reached_basics.size()) {
        return false;
    }
    for (const std::uint32_t g : order.postorder) {
        const Gate& gate = skeleton.gates()[gate_map_[g]];
        const std::span<const FtRef> kids = children(g);
        if (gate.kind != order.kinds[g] || gate.children.size() != kids.size()) return false;
        for (std::size_t i = 0; i < kids.size(); ++i) {
            const FtRef c = kids[i];
            const FtRef mapped = c.kind == FtRef::Kind::Gate
                                     ? FtRef{FtRef::Kind::Gate, gate_map_[c.index]}
                                     : FtRef{FtRef::Kind::Basic, basic_map_[c.index]};
            if (gate.children[i] != mapped) return false;
        }
    }
    return true;
}

FaultTree canonical_form(const FaultTree& ft) { return canonicalize(ft).tree; }

std::vector<std::uint32_t> FaultTree::reachable_basic_events(FtRef root) const {
    std::vector<std::uint32_t> out;
    std::unordered_set<std::uint64_t> seen;
    auto key = [](FtRef r) {
        return (static_cast<std::uint64_t>(r.kind) << 32) | r.index;
    };
    std::vector<FtRef> stack{root};
    while (!stack.empty()) {
        const FtRef r = stack.back();
        stack.pop_back();
        if (!seen.insert(key(r)).second) continue;
        if (r.kind == FtRef::Kind::Basic) {
            out.push_back(r.index);
        } else {
            for (FtRef c : gate(r.index).children) stack.push_back(c);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace asilkit::ftree
