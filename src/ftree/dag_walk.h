// Iterative depth-first walk over the gates of a fault-tree DAG — the one
// traversal behind stats(), the structural/shape hashes, the canonical
// form and module detection.  An explicit frame stack keeps deep trees off
// the call stack, and per-gate state lives in flat arrays indexed by gate
// number.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/error.h"
#include "ftree/fault_tree.h"

namespace asilkit::ftree::detail {

/// Walks the gates reachable from gate `root` exactly as a recursive
/// memoised DFS would: for every reachable gate g, `on_child(g, c)` fires
/// once per child slot, in `children_of(g)` order, *before* descending
/// into c when c is an unvisited gate; `on_finish(g)` fires after g's
/// last child, so gates finish children-before-parents and each gate
/// finishes once.  `children_of(g)` returns g's child list as a
/// std::span<const FtRef> (the gate's own list, or a reordered copy).
/// Throws AnalysisError on a node index outside [0, gate_count) /
/// [0, basic_count) — so callbacks may index flat arrays unchecked — and
/// when a gate is reached again while still on the stack (a cycle).
template <class ChildrenOf, class OnChild, class OnFinish>
void walk_gates(WalkScratch& scratch, std::size_t gate_count, std::size_t basic_count,
                std::uint32_t root, ChildrenOf&& children_of, OnChild&& on_child,
                OnFinish&& on_finish) {
    enum : std::uint8_t { kNew = 0, kOpen = 1, kDone = 2 };
    if (root >= gate_count) throw AnalysisError("gate index out of range");
    std::vector<std::uint8_t>& state = scratch.state;
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& frames = scratch.frames;
    state.assign(gate_count, kNew);
    frames.clear();
    state[root] = kOpen;
    frames.emplace_back(root, 0);
    while (!frames.empty()) {
        auto& [g, slot] = frames.back();
        const std::span<const FtRef> children = children_of(g);
        if (slot == children.size()) {
            state[g] = kDone;
            const std::uint32_t done = g;
            frames.pop_back();
            on_finish(done);
            continue;
        }
        const FtRef c = children[slot++];
        const std::uint32_t parent = g;
        if (c.index >= (c.kind == FtRef::Kind::Gate ? gate_count : basic_count)) {
            throw AnalysisError(c.kind == FtRef::Kind::Gate ? "gate index out of range"
                                                            : "basic event index out of range");
        }
        on_child(parent, c);
        if (c.kind != FtRef::Kind::Gate) continue;
        if (state[c.index] == kOpen) throw AnalysisError("fault tree contains a cycle");
        if (state[c.index] == kNew) {
            state[c.index] = kOpen;
            frames.emplace_back(c.index, 0);
        }
    }
}

/// walk_gates with a scratch of its own.
template <class ChildrenOf, class OnChild, class OnFinish>
void walk_gates(std::size_t gate_count, std::size_t basic_count, std::uint32_t root,
                ChildrenOf&& children_of, OnChild&& on_child, OnFinish&& on_finish) {
    WalkScratch scratch;
    walk_gates(scratch, gate_count, basic_count, root, std::forward<ChildrenOf>(children_of),
               std::forward<OnChild>(on_child), std::forward<OnFinish>(on_finish));
}

/// walk_gates over each gate's own (declaration-order) child list.
template <class OnChild, class OnFinish>
void walk_gates(WalkScratch& scratch, const FaultTree& ft, std::uint32_t root, OnChild&& on_child,
                OnFinish&& on_finish) {
    const std::span<const Gate> gates = ft.gates();
    walk_gates(
        scratch, gates.size(), ft.basic_events().size(), root,
        [gates](std::uint32_t g) { return std::span<const FtRef>(gates[g].children); },
        std::forward<OnChild>(on_child), std::forward<OnFinish>(on_finish));
}
template <class OnChild, class OnFinish>
void walk_gates(const FaultTree& ft, std::uint32_t root, OnChild&& on_child, OnFinish&& on_finish) {
    WalkScratch scratch;
    walk_gates(scratch, ft, root, std::forward<OnChild>(on_child),
               std::forward<OnFinish>(on_finish));
}

}  // namespace asilkit::ftree::detail
