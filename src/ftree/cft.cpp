#include "ftree/cft.h"

#include <algorithm>
#include <cstring>
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
    for (std::size_t i = 0; i < s.size(); i += 8) {
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

/// Regenerates the events of `n`'s fragment into `f` in place: event
/// slots and name buffers of the fragment's previous content are reused,
/// so a rate-only change rewrites the fragment without allocating.
void fill_fragment_events(ComponentFragment& f, const ArchitectureModel& m, NodeId n,
                          const FtBuildOptions& options) {
    std::size_t count = 0;
    const auto put = [&](const char* prefix, const std::string& name, double lambda) {
        if (count == f.events.size()) f.events.emplace_back();
        BasicEvent& e = f.events[count++];
        e.name.assign(prefix).append(name);
        e.lambda = lambda;
    };
    const auto& resources = m.mapped_resources(n);
    f.no_resource = resources.empty();
    for (const ResourceId r : resources) {
        const Resource& res = m.resources().node(r);
        put(kResourceEventPrefix, res.name, options.rates.resource_rate(res));
        if (options.include_location_events) {
            for (const LocationId p : m.resource_locations(r)) {
                const Location& loc = m.physical().node(p);
                put(kLocationEventPrefix, loc.name, options.rates.location_rate(loc));
            }
        }
    }
    f.events.resize(count);
}

}  // namespace

std::uint64_t fragment_key(const ArchitectureModel& m, NodeId n, const FtBuildOptions& options) {
    const AppNode& node = m.app().node(n);
    std::uint64_t h = hash::combine(0x66726167ull /* "frag" */, option_bits(options));
    h = hash::combine(h, string_hash(node.name));
    h = hash::combine(h, static_cast<std::uint64_t>(node.kind));
    h = hash::combine(h, static_cast<std::uint64_t>(node.asil.level));
    // Inport wiring: the in-order predecessor list is part of the
    // fragment, because the node's failure gate ORs its inputs' gates in
    // exactly this order — a connectivity edit dirties the sink.
    for (const ChannelId e : m.app().in_edges(n)) {
        h = hash::combine(h, 0x70726564ull /* "pred" */);
        h = hash::combine(h, m.app().edge(e).source.value());
    }
    // Intrinsic events: resolved rates, not table identity, so a custom
    // rate table or a lambda_override dirties exactly the nodes whose
    // events change.
    for (const ResourceId r : m.mapped_resources(n)) {
        const Resource& res = m.resources().node(r);
        h = hash::combine(h, string_hash(res.name));
        h = hash::combine(h, double_bits(options.rates.resource_rate(res)));
        if (options.include_location_events) {
            for (const LocationId p : m.resource_locations(r)) {
                const Location& loc = m.physical().node(p);
                h = hash::combine(h, string_hash(loc.name));
                h = hash::combine(h, double_bits(options.rates.location_rate(loc)));
            }
        }
    }
    return h;
}

ComponentFragment build_fragment(const ArchitectureModel& m, NodeId n,
                                 const FtBuildOptions& options) {
    ComponentFragment f;
    f.key = fragment_key(m, n, options);
    fill_fragment_events(f, m, n, options);
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

IncrementalTreeBuilder::Prepared IncrementalTreeBuilder::prepare(const ArchitectureModel& m,
                                                                 const FtBuildOptions& options) {
    const obs::ObsSpan span("assemble", "ftree");
    static obs::Counter& built_counter = obs::Registry::global().counter("ftree.fragment.built");
    static obs::Counter& reused_counter = obs::Registry::global().counter("ftree.fragment.reused");
    static obs::Counter& memo_hits = obs::Registry::global().counter("ftree.memo_hits");
    last_ = {};

    // Delta pass: one fragment key per component, against the cache of
    // the last assembled candidate.  The composition fingerprint folds
    // the keys in node-id order, so it covers the node set, every
    // fragment's content and the full edge wiring.
    const std::vector<NodeId> ids = m.app().node_ids();
    std::vector<std::uint64_t> keys;
    keys.reserve(ids.size());
    std::uint64_t composition = hash::combine(0x636F6D70ull /* "comp" */, option_bits(options));
    for (const NodeId n : ids) {
        const std::uint64_t key = fragment_key(m, n, options);
        keys.push_back(key);
        composition = hash::combine(composition, n.value());
        composition = hash::combine(composition, key);
    }

    if (const auto it = memo_.find(composition); it != memo_.end()) {
        // Steady state: this exact composition was generated before —
        // the canonical tree, its hashes and its module decomposition
        // are reused by reference; zero gates are constructed.
        last_.fragments_reused = ids.size();
        last_.memo_hit = true;
        reused_counter.add(ids.size());
        memo_hits.inc();
        return it->second;
    }

    // Dirty fragments only: regenerate where the key drifted (in place,
    // reusing the slot's buffers), keep the rest by reference.
    if (!ids.empty() && fragments_.size() <= ids.back().value()) {
        fragments_.resize(ids.back().value() + 1);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
        ComponentFragment& slot = fragments_[ids[i].value()];
        if (slot.key == keys[i] && keys[i] != 0) {
            ++last_.fragments_reused;
        } else {
            slot.key = keys[i];
            fill_fragment_events(slot, m, ids[i], options);
            ++last_.fragments_built;
        }
    }
    built_counter.add(last_.fragments_built);
    reused_counter.add(last_.fragments_reused);

    FtBuildResult built = assemble_fault_tree(
        m, options, [this](NodeId n) -> const ComponentFragment* { return &fragments_[n.value()]; });

    Prepared p;
    p.warnings = std::move(built.warnings);
    p.approximated_blocks = built.approximated_blocks;
    p.cycles_cut = built.cycles_cut;
    {
        const obs::ObsSpan canon_span("canonicalize", "ftree");
        CanonicalTree canon = canonicalize(std::move(built.tree));
        p.canonical = std::make_shared<const FaultTree>(std::move(canon.tree));
        p.structural_hash = canon.structural_hash;
        p.shape_hash = canon.shape_hash;
        p.stats = canon.stats;
    }
    p.modules = std::make_shared<const ModuleDecomposition>(find_modules(*p.canonical));

    while (memo_.size() >= kMemoCapacity) {
        memo_.erase(memo_order_.front());
        memo_order_.pop_front();
    }
    memo_.emplace(composition, p);
    memo_order_.push_back(composition);
    return p;
}

}  // namespace asilkit::ftree
