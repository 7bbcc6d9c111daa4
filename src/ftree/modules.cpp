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

std::optional<std::uint32_t> ModuleDecomposition::module_of(std::uint32_t gate) const noexcept {
    for (std::size_t i = 0; i < modules.size(); ++i) {
        const FtRef root = modules[i].root;
        if (root.kind == FtRef::Kind::Gate && root.index == gate) {
            return static_cast<std::uint32_t>(i);
        }
    }
    return std::nullopt;
}

void module_hashes(const ModuleHashPlan& plan, std::span<const double> lambdas,
                   std::span<std::uint64_t> out, std::vector<std::uint64_t>& gate_scratch) {
    using Term = ModuleHashPlan::Term;
    if (!plan.slot_begin.empty()) gate_scratch.resize(plan.slot_begin.size() - 1);
    for (const ModuleHashPlan::Step& step : plan.steps) {
        std::uint64_t h = step.seed;
        const std::uint32_t end = plan.slot_begin[step.gate + 1];
        for (std::uint32_t k = plan.slot_begin[step.gate]; k < end; ++k) {
            const ModuleHashPlan::Slot& slot = plan.slots[k];
            std::uint64_t ch = 0;
            switch (slot.term) {
                case Term::Event:
                    ch = hash::combine(slot.salt, lambda_bits(lambdas[slot.index]));
                    break;
                case Term::Pseudo:
                    ch = hash::combine(slot.salt, out[slot.index]);
                    break;
                case Term::Gate:
                    ch = gate_scratch[slot.index];
                    break;
            }
            h = hash::combine(h, ch);
        }
        if (step.module == ModuleHashPlan::kNotAModule) {
            gate_scratch[step.gate] = h;
        } else {
            out[step.module] = hash::combine(kModuleTreeSalt, h);
        }
    }
}

ModuleDecomposition ModuleFinder::find(const FaultTree& ft, ModuleHashPlan* plan_out) {
    const obs::ObsSpan span("find_modules", "ftree");
    ModuleDecomposition dec;
    const FtRef top = ft.top();
    ModuleHashPlan& plan = plan_out != nullptr ? *plan_out : plan_;
    plan.steps.clear();
    plan.slot_begin.clear();
    plan.slots.clear();

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

    // Phase 1: DFS visit dates.  Every edge is traversed exactly once
    // (an already-expanded gate is dated again but not re-expanded), so
    // a node referenced from outside a subtree carries a visit date
    // outside that subtree root's [first-arrival, completion] window.
    // The walk also yields the reachable gates children-first.
    constexpr std::uint64_t kUnvisited = 0;
    basic_lo_.assign(basic_count, kUnvisited);
    basic_hi_.assign(basic_count, 0);
    dates_.assign(gate_count, GateDates{});
    postorder_.clear();
    std::uint64_t t = 1;
    dates_[top.index].lo = t;
    detail::walk_gates(
        walk_, ft, top.index,
        [&](std::uint32_t, FtRef c) {
            ++t;
            if (c.kind == FtRef::Kind::Basic) {
                if (basic_lo_[c.index] == kUnvisited) basic_lo_[c.index] = t;
                basic_hi_[c.index] = t;
            } else if (dates_[c.index].lo != kUnvisited) {
                dates_[c.index].hi = t;  // dates are monotone: later revisits win
            } else {
                dates_[c.index].lo = t;
            }
        },
        [&](std::uint32_t g) {
            ++t;
            dates_[g].fin = t;
            dates_[g].hi = t;
            postorder_.push_back(g);
        });

    // Phase 2: per-gate min/max visit date over the gate and all its
    // descendants, children-first.
    auto span_of = [&](FtRef r) -> std::pair<std::uint64_t, std::uint64_t> {
        if (r.kind == FtRef::Kind::Basic) return {basic_lo_[r.index], basic_hi_[r.index]};
        return {dates_[r.index].min, dates_[r.index].max};
    };
    for (const std::uint32_t g : postorder_) {
        std::uint64_t mn = dates_[g].lo;
        std::uint64_t mx = dates_[g].hi;
        for (const FtRef c : gates[g].children) {
            const auto [cmn, cmx] = span_of(c);
            mn = std::min(mn, cmn);
            mx = std::max(mx, cmx);
        }
        dates_[g].min = mn;
        dates_[g].max = mx;
    }

    // Phase 3: the module test.  A gate is a module iff every strict
    // descendant's dates stay inside its own expansion window — i.e. no
    // descendant is also referenced from outside the subtree.  The
    // gate's own revisit dates are deliberately excluded: a shared
    // module is still a module (its pseudo-variable simply occurs
    // several times in the enclosing region).
    gate_marks_.assign(gate_count, GateMarks{});
    for (const std::uint32_t g : postorder_) {
        bool mod = true;
        for (const FtRef c : gates[g].children) {
            const auto [cmn, cmx] = span_of(c);
            if (cmn < dates_[g].lo || cmx > dates_[g].fin) {
                mod = false;
                break;
            }
        }
        gate_marks_[g].is_module = mod;
    }
    gate_marks_[top.index].is_module = true;  // the whole tree is always a module

    // Phase 4: build the decomposition bottom-up and record the hash
    // recipe.  Each module's local region is walked depth-first; a
    // nested module root met for the first time opens its own region on
    // the same explicit stack and is finished — and appended to
    // dec.modules — before its parent region resumes, so modules come
    // out children-before-parents.  Nested module roots become pseudo
    // leaves whose hash composes the child module's subtree hash, so the
    // resulting hash is a context-free fingerprint of the module's full
    // subtree.  Local leaf ids (events and pseudo leaves share one
    // first-occurrence counter per region) capture the sharing pattern
    // exactly as FaultTree::structural_hash() does.  Per-node leaf ids
    // are stamped with the region that assigned them.  Each child slot's
    // term lands in the plan; the hashes themselves are folded from it
    // afterwards (module_hashes), in the walk's completion order.
    plan.slot_begin.resize(gate_count + 1);
    plan.slot_begin[0] = 0;
    for (std::size_t g = 0; g < gate_count; ++g) {
        plan.slot_begin[g + 1] =
            plan.slot_begin[g] + static_cast<std::uint32_t>(gates[g].children.size());
    }
    plan.slots.resize(plan.slot_begin.back());
    event_marks_.assign(basic_count, EventMarks{});
    regions_.clear();
    frames_.clear();
    std::uint32_t next_region = 0;
    auto open = [&](std::uint32_t g, bool region_root) {
        if (region_root) {
            regions_.push_back(Region{next_region++, 0, Module{}});
            regions_.back().module.root = FtRef{FtRef::Kind::Gate, g};
        }
        frames_.push_back(Frame{g, 0, region_root});
    };
    open(top.index, true);
    while (!frames_.empty()) {
        Frame& f = frames_.back();
        Region& region = regions_.back();
        const std::vector<FtRef>& children = gates[f.gate].children;
        if (f.slot == children.size()) {
            const Frame done = f;
            frames_.pop_back();
            ModuleHashPlan::Step step{
                done.gate, ModuleHashPlan::kNotAModule,
                hash::combine(kGateSalt, static_cast<std::uint64_t>(gates[done.gate].kind))};
            if (!done.region_root) {
                gate_marks_[done.gate].region = region.id;
                plan.steps.push_back(step);
                continue;
            }
            const auto index = static_cast<std::uint32_t>(dec.modules.size());
            gate_marks_[done.gate].module = index;
            step.module = index;
            plan.steps.push_back(step);
            dec.modules.push_back(std::move(region.module));
            regions_.pop_back();
            continue;
        }
        const FtRef c = children[f.slot];
        ModuleHashPlan::Slot& slot = plan.slots[plan.slot_begin[f.gate] + f.slot];
        if (c.kind == FtRef::Kind::Basic) {
            EventMarks& e = event_marks_[c.index];
            if (e.region != region.id) {
                e.region = region.id;
                e.leaf = region.next_leaf++;
                ++region.module.basic_events;
            }
            slot = {hash::combine(kLeafEventSalt, e.leaf), c.index, ModuleHashPlan::Term::Event};
        } else if (GateMarks& g = gate_marks_[c.index]; g.is_module) {
            if (g.module == ModuleHashPlan::kNotAModule) {
                open(c.index, true);  // descend; this slot is revisited once built
                continue;
            }
            if (g.pseudo_region != region.id) {
                g.pseudo_region = region.id;
                g.pseudo_leaf = region.next_leaf++;
                region.module.child_modules.push_back(g.module);
            }
            slot = {hash::combine(kPseudoSalt, g.pseudo_leaf), g.module,
                    ModuleHashPlan::Term::Pseudo};
        } else {
            if (g.region != region.id) {
                open(c.index, false);  // descend; this slot is revisited once hashed
                continue;
            }
            slot = {0, c.index, ModuleHashPlan::Term::Gate};
        }
        ++f.slot;
    }

    lambdas_.clear();
    for (const BasicEvent& e : ft.basic_events()) lambdas_.push_back(e.lambda);
    hashes_.resize(dec.modules.size());
    module_hashes(plan, lambdas_, hashes_, gate_hashes_);
    for (std::size_t i = 0; i < dec.modules.size(); ++i) dec.modules[i].subtree_hash = hashes_[i];
    count_decomposition(dec);
    return dec;
}

ModuleDecomposition find_modules(const FaultTree& ft) {
    ModuleFinder finder;
    return finder.find(ft);
}

}  // namespace asilkit::ftree
