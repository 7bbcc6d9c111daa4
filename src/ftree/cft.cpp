#include "ftree/cft.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "core/hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::ftree {
namespace {

[[nodiscard]] std::uint64_t double_bits(double d) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/// Deterministic string fold (std::hash is implementation-defined; the
/// fragment keys feed bench counters that should not drift across
/// standard libraries).  Folds 8 bytes per step, little-endian, the last
/// word zero-padded; the length is folded first, so padding cannot make
/// two different strings agree.
[[nodiscard]] std::uint64_t string_hash(std::string_view s) noexcept {
    std::uint64_t h = hash::combine(0x737472ull /* "str" */, s.size());
    std::size_t i = 0;
    if constexpr (std::endian::native == std::endian::little) {
        for (; i + 8 <= s.size(); i += 8) {
            std::uint64_t word;
            std::memcpy(&word, s.data() + i, sizeof(word));
            h = hash::combine(h, word);
        }
    }
    for (; i < s.size(); i += 8) {
        std::uint64_t word = 0;
        const std::size_t n = std::min<std::size_t>(8, s.size() - i);
        for (std::size_t b = 0; b < n; ++b) {
            word |= std::uint64_t{static_cast<unsigned char>(s[i + b])} << (8 * b);
        }
        h = hash::combine(h, word);
    }
    return h;
}

[[nodiscard]] std::uint64_t option_bits(const FtBuildOptions& o) noexcept {
    return (o.approximate ? 1u : 0u) | (o.include_location_events ? 2u : 0u) |
           (o.include_qm_actuators ? 4u : 0u);
}

/// Regenerates the events of `n`'s fragment into `f` in place, with the
/// slot rates `rates` (fragment_structure's, for `n`): event slots and
/// name buffers of the fragment's previous content are reused, so a
/// regenerated fragment of the same size allocates nothing.
void fill_fragment_events(ComponentFragment& f, const ArchitectureModel& m, NodeId n,
                          const FtBuildOptions& options, std::span<const double> rates) {
    std::size_t count = 0;
    const auto put = [&](const char* prefix, const std::string& name) {
        if (count == f.events.size()) f.events.emplace_back();
        BasicEvent& e = f.events[count];
        e.name.assign(prefix).append(name);
        e.lambda = rates[count++];
    };
    const auto& resources = m.mapped_resources(n);
    f.no_resource = resources.empty();
    for (const ResourceId r : resources) {
        put(kResourceEventPrefix, m.resources().node(r).name);
        if (options.include_location_events) {
            for (const LocationId p : m.resource_locations(r)) {
                put(kLocationEventPrefix, m.physical().node(p).name);
            }
        }
    }
    f.events.resize(count);
}

/// Whether two rate vectors agree bit for bit.
[[nodiscard]] bool same_bits(std::span<const double> a, std::span<const double> b) noexcept {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

std::uint64_t fragment_structure(const ArchitectureModel& m, NodeId n,
                                 const FtBuildOptions& options, std::vector<double>& rates) {
    // One hash step per fact: the steps form one dependent chain, so the
    // small facts share a word and each name is hashed off the chain.
    const AppNode& node = m.app().node(n);
    const std::uint64_t small_facts = (option_bits(options) << 16) |
                                      (static_cast<std::uint64_t>(node.kind) << 8) |
                                      static_cast<std::uint64_t>(node.asil.level);
    std::uint64_t h = hash::combine(0x66726167ull /* "frag" */, small_facts);
    h = hash::combine(h, string_hash(node.name));
    // Inport wiring: the in-order predecessor list is part of the
    // fragment, because the node's failure gate ORs its inputs' gates in
    // exactly this order — a connectivity edit dirties the sink.
    for (const ChannelId e : m.app().in_edges(n)) {
        const std::uint64_t source = m.app().edge(e).source.value();
        h = hash::combine(h, (0x70726564ull /* "pred" */ << 32) | source);
    }
    // Intrinsic events: names shape the tree (one event per name, shared
    // across fragments); resolved rates, not table identity, go to the
    // rate vector, so a custom rate table or a lambda_override changes
    // exactly the rates of the nodes whose events change.
    for (const ResourceId r : m.mapped_resources(n)) {
        const Resource& res = m.resources().node(r);
        h = hash::combine(h, string_hash(res.name));
        rates.push_back(options.rates.resource_rate(res));
        if (options.include_location_events) {
            for (const LocationId p : m.resource_locations(r)) {
                const Location& loc = m.physical().node(p);
                h = hash::combine(h, string_hash(loc.name));
                rates.push_back(options.rates.location_rate(loc));
            }
        }
    }
    return h;
}

std::uint64_t fragment_key(const ArchitectureModel& m, NodeId n, const FtBuildOptions& options) {
    std::vector<double> rates;
    std::uint64_t h = fragment_structure(m, n, options, rates);
    for (const double rate : rates) h = hash::combine(h, double_bits(rate));
    return h;
}

ComponentFragment build_fragment(const ArchitectureModel& m, NodeId n,
                                 const FtBuildOptions& options) {
    ComponentFragment f;
    std::vector<double> rates;
    f.key = fragment_structure(m, n, options, rates);
    fill_fragment_events(f, m, n, options, rates);
    return f;
}

std::vector<NodeId> dirty_fragments(const ArchitectureModel& before, const ArchitectureModel& after,
                                    const FtBuildOptions& options) {
    std::unordered_map<std::uint32_t, std::uint64_t> before_keys;
    for (const NodeId n : before.app().node_ids()) {
        before_keys.emplace(n.value(), fragment_key(before, n, options));
    }
    std::vector<NodeId> dirty;
    std::unordered_set<std::uint32_t> seen;
    for (const NodeId n : after.app().node_ids()) {
        seen.insert(n.value());
        const auto it = before_keys.find(n.value());
        if (it == before_keys.end() || it->second != fragment_key(after, n, options)) {
            dirty.push_back(n);
        }
    }
    for (const NodeId n : before.app().node_ids()) {
        if (!seen.contains(n.value())) dirty.push_back(n);
    }
    return dirty;
}

void IncrementalTreeBuilder::refresh_fragments(const ArchitectureModel& m,
                                               const std::vector<NodeId>& ids,
                                               const FtBuildOptions& options) {
    if (!ids.empty() && fragments_.size() <= ids.back().value()) {
        fragments_.resize(ids.back().value() + 1);
    }
    std::uint32_t begin = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        ComponentFragment& slot = fragments_[ids[i].value()];
        const std::span<const double> rates(rates_.data() + begin, rate_end_[i] - begin);
        begin = rate_end_[i];
        if (slot.key != keys_[i] || keys_[i] == 0) {
            // Structure drifted: regenerate names and rates in place.
            slot.key = keys_[i];
            fill_fragment_events(slot, m, ids[i], options, rates);
            ++last_.fragments_built;
            continue;
        }
        bool same = true;
        for (std::size_t k = 0; k < rates.size(); ++k) {
            if (double_bits(slot.events[k].lambda) != double_bits(rates[k])) {
                slot.events[k].lambda = rates[k];
                same = false;
            }
        }
        if (same) {
            ++last_.fragments_reused;
        } else {
            ++last_.fragments_built;
        }
    }
}

std::optional<IncrementalTreeBuilder::Prepared> IncrementalTreeBuilder::bind(
    std::uint64_t structure, const Entry& primary) {
    const Binding& binding = *primary.binding;
    // Slot rates -> the assembled tree's event rates.  Slots naming one
    // event must agree, as FaultTree::add_basic_event demands; on a
    // conflict the full path decides (and throws where assembly would).
    source_lambdas_.resize(binding.order.basic_count);
    source_set_.assign(binding.order.basic_count, 0);
    for (std::size_t s = 0; s < binding.slot_event.size(); ++s) {
        const std::uint32_t e = binding.slot_event[s];
        if (e == Binding::kNoEvent) continue;
        if (source_set_[e] == 0) {
            source_set_[e] = 1;
            source_lambdas_[e] = rates_[s];
        } else if (source_lambdas_[e] != rates_[s]) {
            return std::nullopt;
        }
    }
    binder_.bind(binding.order, source_lambdas_);
    const Entry* target = nullptr;
    if (binder_.matches(*primary.prepared.canonical)) {
        target = &primary;
    } else if (const auto alt = memo_.find(hash::combine(structure, binder_.shape_hash()));
               alt != memo_.end() && alt->second.binding == primary.binding &&
               binder_.matches(*alt->second.prepared.canonical)) {
        target = &alt->second;
    }
    if (target == nullptr) return std::nullopt;

    // The target's tree is the variant's up to rates, so its shape hash,
    // stats and warnings are the variant's too.
    Prepared p = target->prepared;
    p.lambdas.assign(binder_.lambdas().begin(), binder_.lambdas().end());
    p.structural_hash = binder_.structural_hash();
    module_hashes(target->module_plan, p.lambdas, p.module_hashes, module_scratch_);
    return p;
}

void IncrementalTreeBuilder::remember(std::uint64_t key, Entry entry) {
    if (const auto it = memo_.find(key); it != memo_.end()) {
        it->second = std::move(entry);
        return;
    }
    while (memo_.size() >= kMemoCapacity) {
        memo_.erase(memo_order_.front());
        memo_order_.pop_front();
    }
    memo_.emplace(key, std::move(entry));
    memo_order_.push_back(key);
}

IncrementalTreeBuilder::Prepared IncrementalTreeBuilder::prepare(const ArchitectureModel& m,
                                                                 const FtBuildOptions& options) {
    const obs::ObsSpan span("assemble", "ftree");
    static obs::Counter& built_counter = obs::Registry::global().counter("ftree.fragment.built");
    static obs::Counter& reused_counter = obs::Registry::global().counter("ftree.fragment.reused");
    static obs::Counter& memo_hits = obs::Registry::global().counter("ftree.memo_hits");
    static obs::Counter& binds = obs::Registry::global().counter("ftree.binds");
    static obs::Counter& fallbacks = obs::Registry::global().counter("ftree.bind_fallbacks");
    last_ = {};

    // One pass over the model: per component its structure key and its
    // slot rates.  The composition's structure key folds the keys in
    // node-id order, so it covers the node set, every fragment's
    // rate-blind content and the full edge wiring.
    const std::vector<NodeId> ids = m.app().node_ids();
    keys_.clear();
    rate_end_.clear();
    rates_.clear();
    std::uint64_t structure = hash::combine(0x636F6D70ull /* "comp" */, option_bits(options));
    for (const NodeId n : ids) {
        const std::uint64_t key = fragment_structure(m, n, options, rates_);
        keys_.push_back(key);
        rate_end_.push_back(static_cast<std::uint32_t>(rates_.size()));
        structure = hash::combine(structure, n.value());
        structure = hash::combine(structure, key);
    }

    const auto found = memo_.find(structure);
    if (found != memo_.end() && same_bits(found->second.rates, rates_)) {
        // This exact candidate was generated before: the canonical tree,
        // its hashes and its module decomposition are reused by
        // reference; zero gates are constructed.
        last_.fragments_reused = ids.size();
        last_.memo_hit = true;
        reused_counter.add(ids.size());
        memo_hits.inc();
        return found->second.prepared;
    }
    refresh_fragments(m, ids, options);
    built_counter.add(last_.fragments_built);
    reused_counter.add(last_.fragments_reused);

    std::shared_ptr<const Binding> binding;
    if (found != memo_.end()) binding = found->second.binding;
    if (binding != nullptr) {
        // A rate variant of a structure seen twice before: bound, not built.
        if (std::optional<Prepared> bound = bind(structure, found->second)) {
            last_.bound = true;
            memo_hits.inc();
            binds.inc();
            bound->structure_key = structure;
            return std::move(*bound);
        }
        last_.fallback = true;
        fallbacks.inc();
    }

    // Full path.  On a structure's second sighting the canonicalization
    // keeps its rate-blind order and the assembled events are matched to
    // the rate slots: from then on the structure's rate variants bind.
    FtBuildResult built = assemble_fault_tree(
        m, options, [this](NodeId n) -> const ComponentFragment* { return &fragments_[n.value()]; });
    const bool second_sighting = found != memo_.end() && binding == nullptr;
    std::shared_ptr<Binding> captured;
    if (second_sighting) {
        captured = std::make_shared<Binding>();
        captured->slot_event.reserve(rates_.size());
        for (const NodeId n : ids) {
            for (const BasicEvent& e : fragments_[n.value()].events) {
                captured->slot_event.push_back(built.tree.has_basic_event(e.name)
                                                   ? built.tree.find_basic_event(e.name).index
                                                   : Binding::kNoEvent);
            }
        }
    }

    Prepared p;
    p.structure_key = structure;
    p.warnings = std::move(built.warnings);
    p.approximated_blocks = built.approximated_blocks;
    p.cycles_cut = built.cycles_cut;
    {
        const obs::ObsSpan canon_span("canonicalize", "ftree");
        CanonicalTree canon = canonicalize(std::move(built.tree),
                                           captured != nullptr ? &captured->order : nullptr);
        p.canonical = std::make_shared<const FaultTree>(std::move(canon.tree));
        p.structural_hash = canon.structural_hash;
        p.shape_hash = canon.shape_hash;
        p.stats = canon.stats;
    }
    p.lambdas.reserve(p.canonical->basic_events().size());
    for (const BasicEvent& e : p.canonical->basic_events()) p.lambdas.push_back(e.lambda);
    ModuleHashPlan plan;
    const bool keep_plan = second_sighting || last_.fallback;
    p.modules = std::make_shared<const ModuleDecomposition>(
        finder_.find(*p.canonical, keep_plan ? &plan : nullptr));
    p.module_hashes.reserve(p.modules->size());
    for (const Module& mod : p.modules->modules) p.module_hashes.push_back(mod.subtree_hash);

    if (found == memo_.end()) {
        remember(structure, Entry{p, rates_, nullptr, {}});
    } else if (second_sighting && !captured->order.postorder.empty()) {
        Entry& primary = found->second;
        primary.binding = captured;
        if (identical_shape(*primary.prepared.canonical, *p.canonical)) {
            // Module plans are a function of the index structure alone.
            primary.module_plan = std::move(plan);
        } else {
            (void)finder_.find(*primary.prepared.canonical, &primary.module_plan);
            remember(hash::combine(structure, p.shape_hash),
                     Entry{p, rates_, captured, std::move(plan)});
        }
    } else if (last_.fallback) {
        // Its own entry, bound to from then on by variants that reorder
        // into the same index structure.
        remember(hash::combine(structure, p.shape_hash),
                 Entry{p, rates_, binding, std::move(plan)});
    }
    return p;
}

}  // namespace asilkit::ftree
