#include "ftree/modules.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "core/hash.h"
#include "ftree/dag_walk.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::ftree {
namespace {

constexpr std::uint64_t kLeafEventSalt = 0x6261736963ull;   // "basic"
constexpr std::uint64_t kPseudoSalt = 0x6D6F64756C65ull;    // "module"
constexpr std::uint64_t kGateSalt = 0x67617465ull;          // "gate"
constexpr std::uint64_t kModuleTreeSalt = 0x6D74726565ull;  // "mtree"

[[nodiscard]] std::uint64_t lambda_bits(double lambda) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(lambda));
    std::memcpy(&bits, &lambda, sizeof(bits));
    return bits;
}

}  // namespace

namespace {

/// Counts a finished decomposition into the "ftree.*" registry ids.
void count_decomposition(const ModuleDecomposition& dec) {
    static obs::Counter& decompositions =
        obs::Registry::global().counter("ftree.module_decompositions");
    static obs::Gauge& module_count = obs::Registry::global().gauge("ftree.module_count");
    decompositions.inc();
    module_count.set(static_cast<double>(dec.size()));
}

}  // namespace

ModuleDecomposition find_modules(const FaultTree& ft) {
    const obs::ObsSpan span("find_modules", "ftree");
    ModuleDecomposition dec;
    const FtRef top = ft.top();

    if (top.kind == FtRef::Kind::Basic) {
        Module m;
        m.root = top;
        m.basic_events = 1;
        m.subtree_hash = hash::combine(
            kModuleTreeSalt, hash::combine(hash::combine(kLeafEventSalt, 0),
                                           lambda_bits(ft.basic_event(top.index).lambda)));
        dec.modules.push_back(std::move(m));
        count_decomposition(dec);
        return dec;
    }

    const std::size_t gate_count = ft.gates().size();
    const std::size_t basic_count = ft.basic_events().size();
    const std::span<const Gate> gates = ft.gates();
    const std::span<const BasicEvent> basics = ft.basic_events();

    // Phase 1: DFS visit dates.  Every edge is traversed exactly once
    // (an already-expanded gate is dated again but not re-expanded), so
    // a node referenced from outside a subtree carries a visit date
    // outside that subtree root's [first-arrival, completion] window.
    // The walk also yields the reachable gates children-first.
    constexpr std::uint64_t kUnvisited = 0;
    std::vector<std::uint64_t> basic_lo(basic_count, kUnvisited);
    std::vector<std::uint64_t> basic_hi(basic_count, 0);
    std::vector<std::uint64_t> gate_lo(gate_count, kUnvisited);
    std::vector<std::uint64_t> gate_hi(gate_count, 0);
    std::vector<std::uint64_t> gate_fin(gate_count, 0);
    std::vector<std::uint32_t> postorder;
    std::uint64_t t = 1;
    gate_lo[top.index] = t;
    detail::walk_gates(
        ft, top.index,
        [&](std::uint32_t, FtRef c) {
            ++t;
            if (c.kind == FtRef::Kind::Basic) {
                if (basic_lo[c.index] == kUnvisited) basic_lo[c.index] = t;
                basic_hi[c.index] = t;
            } else if (gate_lo[c.index] != kUnvisited) {
                gate_hi[c.index] = t;  // dates are monotone: later revisits win
            } else {
                gate_lo[c.index] = t;
            }
        },
        [&](std::uint32_t g) {
            ++t;
            gate_fin[g] = t;
            gate_hi[g] = t;
            postorder.push_back(g);
        });

    // Phase 2: per-gate min/max visit date over the gate and all its
    // descendants, children-first.
    std::vector<std::uint64_t> gate_min(gate_count, 0);
    std::vector<std::uint64_t> gate_max(gate_count, 0);
    auto span_of = [&](FtRef r) -> std::pair<std::uint64_t, std::uint64_t> {
        if (r.kind == FtRef::Kind::Basic) return {basic_lo[r.index], basic_hi[r.index]};
        return {gate_min[r.index], gate_max[r.index]};
    };
    for (const std::uint32_t g : postorder) {
        std::uint64_t mn = gate_lo[g];
        std::uint64_t mx = gate_hi[g];
        for (const FtRef c : gates[g].children) {
            const auto [cmn, cmx] = span_of(c);
            mn = std::min(mn, cmn);
            mx = std::max(mx, cmx);
        }
        gate_min[g] = mn;
        gate_max[g] = mx;
    }

    // Phase 3: the module test.  A gate is a module iff every strict
    // descendant's dates stay inside its own expansion window — i.e. no
    // descendant is also referenced from outside the subtree.  The
    // gate's own revisit dates are deliberately excluded: a shared
    // module is still a module (its pseudo-variable simply occurs
    // several times in the enclosing region).
    std::vector<char> is_module(gate_count, 0);
    for (const std::uint32_t g : postorder) {
        bool mod = true;
        for (const FtRef c : gates[g].children) {
            const auto [cmn, cmx] = span_of(c);
            if (cmn < gate_lo[g] || cmx > gate_fin[g]) {
                mod = false;
                break;
            }
        }
        is_module[g] = mod ? 1 : 0;
    }
    is_module[top.index] = 1;  // the whole tree is always a module

    // Phase 4: build the decomposition bottom-up.  Each module's local
    // region is walked depth-first; a nested module root met for the
    // first time opens its own region on the same explicit stack and is
    // finished — and appended to dec.modules — before its parent region
    // resumes, so modules come out children-before-parents.  Nested
    // module roots become pseudo leaves whose hash composes the child
    // module's subtree hash, so the resulting hash is a context-free
    // fingerprint of the module's full subtree.  Local leaf ids (events
    // and pseudo leaves share one first-occurrence counter per region)
    // capture the sharing pattern exactly as
    // FaultTree::structural_hash() does.  Per-node leaf ids and gate
    // hashes are stamped with the region that assigned them.
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    struct Region {
        std::uint32_t id = 0;
        std::uint64_t next_leaf = 0;
        Module module;
    };
    struct Frame {
        std::uint32_t gate = 0;
        std::uint32_t slot = 0;
        std::uint64_t hash = 0;
        bool region_root = false;
    };
    std::vector<std::uint32_t> event_region(basic_count, kNone);
    std::vector<std::uint64_t> event_leaf(basic_count, 0);
    std::vector<std::uint32_t> gate_region(gate_count, kNone);  // stamps gate_hash
    std::vector<std::uint64_t> gate_hash(gate_count, 0);
    std::vector<std::uint32_t> pseudo_region(gate_count, kNone);
    std::vector<std::uint64_t> pseudo_leaf(gate_count, 0);
    std::vector<std::uint32_t> module_index(gate_count, kNone);
    std::vector<Region> regions;
    std::vector<Frame> frames;
    std::uint32_t next_region = 0;
    auto open = [&](std::uint32_t g, bool region_root) {
        if (region_root) {
            regions.push_back(Region{next_region++, 0, Module{}});
            regions.back().module.root = FtRef{FtRef::Kind::Gate, g};
        }
        frames.push_back(Frame{g, 0, hash::combine(kGateSalt, static_cast<std::uint64_t>(
                                                                  gates[g].kind)),
                               region_root});
    };
    open(top.index, true);
    while (!frames.empty()) {
        Frame& f = frames.back();
        Region& region = regions.back();
        const std::vector<FtRef>& children = gates[f.gate].children;
        if (f.slot == children.size()) {
            const Frame done = f;
            frames.pop_back();
            if (!done.region_root) {
                gate_region[done.gate] = region.id;
                gate_hash[done.gate] = done.hash;
                continue;
            }
            Module& m = region.module;
            m.subtree_hash = hash::combine(kModuleTreeSalt, done.hash);
            const auto index = static_cast<std::uint32_t>(dec.modules.size());
            module_index[done.gate] = index;
            dec.module_of_gate.emplace(done.gate, index);
            dec.modules.push_back(std::move(m));
            regions.pop_back();
            continue;
        }
        const FtRef c = children[f.slot];
        std::uint64_t ch = 0;
        if (c.kind == FtRef::Kind::Basic) {
            if (event_region[c.index] != region.id) {
                event_region[c.index] = region.id;
                event_leaf[c.index] = region.next_leaf++;
                ++region.module.basic_events;
            }
            ch = hash::combine(hash::combine(kLeafEventSalt, event_leaf[c.index]),
                               lambda_bits(basics[c.index].lambda));
        } else if (is_module[c.index]) {
            if (module_index[c.index] == kNone) {
                open(c.index, true);  // descend; this slot is revisited once built
                continue;
            }
            if (pseudo_region[c.index] != region.id) {
                pseudo_region[c.index] = region.id;
                pseudo_leaf[c.index] = region.next_leaf++;
                region.module.child_modules.push_back(module_index[c.index]);
            }
            ch = hash::combine(hash::combine(kPseudoSalt, pseudo_leaf[c.index]),
                               dec.modules[module_index[c.index]].subtree_hash);
        } else {
            if (gate_region[c.index] != region.id) {
                open(c.index, false);  // descend; this slot is revisited once hashed
                continue;
            }
            ch = gate_hash[c.index];
        }
        f.hash = hash::combine(f.hash, ch);
        ++f.slot;
    }
    count_decomposition(dec);
    return dec;
}

}  // namespace asilkit::ftree
