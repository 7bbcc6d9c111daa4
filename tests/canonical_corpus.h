// Seeded fault-tree corpus for the canonical-form golden test
// (tests/test_canonical_golden.cpp, fixture tests/fixtures/canonical_golden.txt).
//
// Every tree is a pure function of its label: random DAGs (a third with
// all rates equal, so ordering ties must be broken by shape, sharing and
// context alone), synthetic_fault_tree DAGs (likewise a third
// equal-rate), generated synthetic_model architectures with and without
// resource merges under both build modes, the shipped scenarios, and the
// degenerate shapes.  One digest line per tree records everything the
// evaluation keys depend on: the input tree's stats and hashes, the
// canonical tree's structural/shape hashes and its full arena (names,
// rates, gate kinds, child lists, top), and its module decomposition.
// The digests depend on the standard library's distributions and libm
// (random rates), so the fixture holds for one toolchain family.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/hash.h"
#include "explore/driver.h"
#include "ftree/builder.h"
#include "ftree/fault_tree.h"
#include "ftree/modules.h"
#include "helpers.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/synthetic.h"

namespace asilkit::testing {

struct CorpusTree {
    std::string label;
    ftree::FaultTree tree;
};

namespace corpus_detail {

inline std::uint64_t bits(double d) {
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

inline std::uint64_t fold(std::uint64_t h, std::string_view s) {
    h = hash::combine(h, s.size());
    for (const char c : s) h = hash::combine(h, static_cast<unsigned char>(c));
    return h;
}

inline std::uint64_t fold(std::uint64_t h, ftree::FtRef r) {
    return hash::combine(hash::combine(h, static_cast<std::uint64_t>(r.kind)), r.index);
}

/// `ft` with every rate replaced by `lambda` (names, indices and
/// structure unchanged).
inline ftree::FaultTree with_rate(const ftree::FaultTree& ft, double lambda) {
    ftree::FaultTree out;
    for (const ftree::BasicEvent& e : ft.basic_events()) out.add_basic_event(e.name, lambda);
    for (const ftree::Gate& g : ft.gates()) out.add_gate(g.name, g.kind, g.children);
    if (ft.has_top()) out.set_top(ft.top());
    return out;
}

inline void add_model(std::vector<CorpusTree>& out, const std::string& label,
                      const ArchitectureModel& m) {
    for (const bool approximate : {false, true}) {
        for (const bool locations : {true, false}) {
            ftree::FtBuildOptions options;
            options.approximate = approximate;
            options.include_location_events = locations;
            out.push_back({label + (approximate ? "/approx" : "/exact") +
                               (locations ? "/loc" : "/noloc"),
                           ftree::build_fault_tree(m, options).tree});
        }
    }
}

/// Candidate-style resource merges: `merges` random nodes re-mapped onto
/// another node's resources, creating the shared events a mapping
/// search produces.
inline ArchitectureModel merged(ArchitectureModel m, std::uint32_t seed, std::size_t merges) {
    std::mt19937 rng(seed);
    const std::vector<NodeId> ids = m.app().node_ids();
    for (std::size_t k = 0; k < merges; ++k) {
        const NodeId a = ids[rng() % ids.size()];
        const NodeId b = ids[rng() % ids.size()];
        if (a == b || m.app().node(a).kind != m.app().node(b).kind) continue;
        if (m.mapped_resources(b).empty()) continue;
        m.remap_node(a, m.mapped_resources(b));
    }
    return m;
}

}  // namespace corpus_detail

inline std::vector<CorpusTree> canonical_corpus() {
    using corpus_detail::add_model;
    using corpus_detail::with_rate;
    std::vector<CorpusTree> out;

    // Degenerate shapes.
    {
        ftree::FaultTree t;
        t.set_top(t.add_basic_event("only", 3e-7));
        out.push_back({"degenerate/basic-top", std::move(t)});
    }
    {
        ftree::FaultTree t;
        const ftree::FtRef e = t.add_basic_event("e", 1e-7);
        t.set_top(t.add_gate("g", ftree::GateKind::Or, {e}));
        out.push_back({"degenerate/unary", std::move(t)});
    }
    for (const ftree::GateKind kind : {ftree::GateKind::And, ftree::GateKind::Or}) {
        ftree::FaultTree t;
        const ftree::FtRef e = t.add_basic_event("e", 1e-7);
        t.set_top(t.add_gate("top", kind, {e, e}));
        out.push_back({std::string("degenerate/shared-event/") +
                           std::string(ftree::to_string(kind)),
                       std::move(t)});
    }
    {
        ftree::FaultTree t;
        const ftree::FtRef a = t.add_basic_event("a", 1e-7);
        const ftree::FtRef b = t.add_basic_event("b", 1e-7);
        const ftree::FtRef g = t.add_gate("g", ftree::GateKind::And, {a, b});
        t.set_top(t.add_gate("top", ftree::GateKind::Or, {g, g, a, g}));
        out.push_back({"degenerate/duplicate-children", std::move(t)});
    }

    // Random DAGs (unreferenced pool nodes stay unreachable).
    for (std::uint32_t i = 0; i < 900; ++i) {
        const std::size_t events = 2 + i % 23;
        const std::size_t gates = 1 + (i * 7) % 31;
        ftree::FaultTree t = random_fault_tree(1000 + i, events, gates);
        if (i % 3 == 2) t = with_rate(t, 1e-6);
        out.push_back({"random/" + std::to_string(i), std::move(t)});
    }

    // synthetic_fault_tree DAGs.
    for (std::uint32_t i = 0; i < 900; ++i) {
        scenarios::SyntheticTreeOptions options;
        options.seed = 5000 + i;
        options.events = 4 + i % 61;
        options.gates = 2 + (i * 11) % 47;
        options.max_arity = 2 + i % 5;
        if (i % 3 == 2) options.lambda_high = options.lambda_low;
        out.push_back({"synthetic-tree/" + std::to_string(i),
                       scenarios::synthetic_fault_tree(options)});
    }

    // Generated architectures, pristine and with candidate-style merges.
    for (std::uint32_t i = 0; i < 40; ++i) {
        scenarios::SyntheticOptions options;
        options.seed = 9000 + i;
        options.sensors = 2 + i % 3;
        options.layers = 2 + i % 3;
        options.width = 2 + (i / 3) % 3;
        const ArchitectureModel m = scenarios::synthetic_model(options);
        const std::string label = "synthetic-model/" + std::to_string(i);
        add_model(out, label, m);
        add_model(out, label + "/merged", corpus_detail::merged(m, 77 + i, 4 + i % 6));
    }

    // Shipped scenarios.
    add_model(out, "fig3", scenarios::fig3_camera_gps_fusion());
    add_model(out, "fig3-shared-ecu", scenarios::fig3_with_shared_ecu_ccf());
    add_model(out, "ecotwin", scenarios::ecotwin_lateral_control());
    add_model(out, "longitudinal", scenarios::ecotwin_longitudinal_control());
    explore::ExplorationOptions expand_only;
    expand_only.run_connect_reduce = false;
    expand_only.run_mapping_optimization = false;
    expand_only.engine.threads = 1;
    const ArchitectureModel expanded =
        explore::run_exploration(scenarios::ecotwin_lateral_control(),
                                 scenarios::ecotwin_decision_nodes(), expand_only)
            .final_model;
    add_model(out, "ecotwin-expanded", expanded);
    add_model(out, "ecotwin-expanded/merged", corpus_detail::merged(expanded, 31, 4));
    return out;
}

/// One golden line: label, then hex digests of the input tree's stats
/// and hashes, the canonical tree's hashes, its full arena and its
/// module decomposition.
inline std::string canonical_digest_line(const CorpusTree& c) {
    using corpus_detail::bits;
    using corpus_detail::fold;
    const ftree::FaultTree& ft = c.tree;
    const ftree::FaultTreeStats s = ft.stats();
    std::uint64_t stats = hash::combine(0x7374617473ull, s.basic_events);
    stats = hash::combine(stats, s.gates);
    stats = hash::combine(stats, s.dag_nodes);
    stats = hash::combine(stats, s.expanded_nodes);
    stats = hash::combine(stats, s.paths);
    stats = hash::combine(stats, s.depth);

    const ftree::FaultTree canon = ftree::canonical_form(ft);
    std::uint64_t arena = fold(0x6172656E61ull, canon.top());
    for (const ftree::BasicEvent& e : canon.basic_events()) {
        arena = hash::combine(fold(arena, e.name), bits(e.lambda));
    }
    for (const ftree::Gate& g : canon.gates()) {
        arena = hash::combine(fold(arena, g.name), static_cast<std::uint64_t>(g.kind));
        arena = hash::combine(arena, g.children.size());
        for (const ftree::FtRef r : g.children) arena = fold(arena, r);
    }

    const ftree::ModuleDecomposition dec = ftree::find_modules(canon);
    std::uint64_t modules = hash::combine(0x6D6F64ull, dec.size());
    for (const ftree::Module& m : dec.modules) {
        modules = hash::combine(fold(modules, m.root), m.subtree_hash);
        modules = hash::combine(modules, m.basic_events);
        modules = hash::combine(modules, m.child_modules.size());
        for (const std::uint32_t child : m.child_modules) modules = hash::combine(modules, child);
    }

    char buf[256];
    std::snprintf(buf, sizeof(buf), " %016llx %016llx %016llx %016llx %016llx %016llx %016llx",
                  static_cast<unsigned long long>(stats),
                  static_cast<unsigned long long>(ft.structural_hash()),
                  static_cast<unsigned long long>(ft.shape_hash()),
                  static_cast<unsigned long long>(canon.structural_hash()),
                  static_cast<unsigned long long>(canon.shape_hash()),
                  static_cast<unsigned long long>(arena),
                  static_cast<unsigned long long>(modules));
    return c.label + buf;
}

}  // namespace asilkit::testing
