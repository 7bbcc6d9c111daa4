// Seeded mapping-search corpus for the search golden test
// (tests/test_search_golden.cpp, fixture tests/fixtures/search_golden.txt).
//
// Two families, each a pure function of its label:
//   * search cases — explore::search_mapping on generated synthetic
//     architectures of three sizes and on the shipped scenarios (Fig. 3,
//     EcoTwin pristine and with its decision chain expanded, the
//     longitudinal controller), at capacities 2-4, exact and
//     Section-V-approximate, at 1 thread and (capacity 4) at 4 threads;
//   * rate groups — EvalEngine::analyze_batch over lognormal rate
//     variants of one architecture (plus an exact duplicate lane and a
//     one-resource perturbation), the shape-grouped multi-lambda path.
// One digest line per search records the probability and cost bits
// before/after, merges, iterations, the Pareto front and the final
// model's JSON; one line per batch lane records the probability bits and
// the structural diagnostics.  bdd_total_nodes is left out: it counted
// arena growth on a shared manager before the per-module workspace and
// counts the nodes each module evaluation creates since (see
// tests/test_search_golden.cpp, which checks it against the engine-free
// path, engine_free_result below, instead).  The digests depend on the
// standard library's distributions and libm, so the fixture holds for
// one toolchain family.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/probability.h"
#include "bdd/from_fault_tree.h"
#include "core/hash.h"
#include "engine/engine.h"
#include "explore/driver.h"
#include "explore/mapping_search.h"
#include "ftree/builder.h"
#include "ftree/fault_tree.h"
#include "ftree/modules.h"
#include "io/model_json.h"
#include "model/architecture.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/synthetic.h"

namespace asilkit::testing {

struct SearchCase {
    std::string label;
    ArchitectureModel model;
    std::size_t capacity = 4;
    unsigned threads = 1;
    bool approximate = false;
};

struct RateGroupCase {
    std::string label;
    std::vector<ArchitectureModel> variants;
    unsigned threads = 1;
    bool approximate = false;
};

namespace search_corpus_detail {

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

inline std::string hex(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

inline ArchitectureModel expanded_ecotwin() {
    explore::ExplorationOptions expand_only;
    expand_only.run_connect_reduce = false;
    expand_only.run_mapping_optimization = false;
    expand_only.engine.threads = 1;
    return explore::run_exploration(scenarios::ecotwin_lateral_control(),
                                     scenarios::ecotwin_decision_nodes(), expand_only)
        .final_model;
}

/// The scenario architectures both families draw on, with their labels.
inline std::vector<std::pair<std::string, ArchitectureModel>> corpus_models() {
    std::vector<std::pair<std::string, ArchitectureModel>> out;
    struct Size {
        const char* name;
        std::size_t sensors, layers, width;
    };
    for (const Size& size : {Size{"small", 2, 2, 2}, Size{"medium", 3, 3, 3},
                             Size{"large", 4, 4, 4}}) {
        for (const std::uint32_t seed : {101u, 202u}) {
            scenarios::SyntheticOptions options;
            options.seed = seed;
            options.sensors = size.sensors;
            options.layers = size.layers;
            options.width = size.width;
            out.emplace_back(std::string("synthetic-") + size.name + "/" + std::to_string(seed),
                             scenarios::synthetic_model(options));
        }
    }
    out.emplace_back("fig3", scenarios::fig3_camera_gps_fusion());
    out.emplace_back("ecotwin", scenarios::ecotwin_lateral_control());
    out.emplace_back("ecotwin-expanded", expanded_ecotwin());
    out.emplace_back("longitudinal", scenarios::ecotwin_longitudinal_control());
    return out;
}

}  // namespace search_corpus_detail

inline std::vector<SearchCase> search_corpus() {
    std::vector<SearchCase> out;
    for (const auto& [name, model] : search_corpus_detail::corpus_models()) {
        for (const bool approximate : {false, true}) {
            const std::string mode = approximate ? "/approx" : "/exact";
            for (const std::size_t capacity : {2u, 3u, 4u}) {
                out.push_back({name + mode + "/cap" + std::to_string(capacity) + "/t1", model,
                               capacity, 1, approximate});
            }
            out.push_back({name + mode + "/cap4/t4", model, 4, 4, approximate});
        }
    }
    return out;
}

inline std::vector<RateGroupCase> rate_group_corpus() {
    std::vector<RateGroupCase> out;
    std::uint64_t seed = 4242;
    for (const auto& [name, arch] : search_corpus_detail::corpus_models()) {
        if (name.rfind("synthetic-small", 0) == 0 || name == "ecotwin") continue;
        const std::vector<ResourceId> used = arch.used_resources();
        for (const bool approximate : {false, true}) {
            for (const unsigned threads : {1u, 2u}) {
                std::mt19937_64 rng(++seed);
                std::lognormal_distribution<double> factor(0.0, 0.5);
                RateGroupCase group;
                group.label = name + (approximate ? "/approx" : "/exact") + "/t" +
                              std::to_string(threads);
                group.threads = threads;
                group.approximate = approximate;
                group.variants.push_back(arch);  // lane 0: unperturbed
                for (int lane = 1; lane <= 4; ++lane) {
                    ArchitectureModel v = arch;
                    for (const ResourceId r : used) {
                        v.resources().node(r).lambda_override =
                            arch.resource_lambda(r) * factor(rng);
                    }
                    group.variants.push_back(std::move(v));
                }
                group.variants.push_back(group.variants[1]);  // exact duplicate of lane 1
                ArchitectureModel one = arch;  // one resource perturbed: shares the rest
                one.resources().node(used.front()).lambda_override =
                    arch.resource_lambda(used.front()) * 3.0;
                group.variants.push_back(std::move(one));
                out.push_back(std::move(group));
            }
        }
    }
    return out;
}

/// Runs the search on a fresh engine; `m` ends as the searched model.
inline explore::MappingSearchResult run_search_case(const SearchCase& c, ArchitectureModel& m) {
    explore::MappingSearchOptions options;
    options.max_nodes_per_resource = c.capacity;
    options.probability.approximate = c.approximate;
    options.engine.threads = c.threads;
    m = c.model;
    return explore::search_mapping(m, options);
}

inline std::string search_digest_line(const SearchCase& c) {
    using search_corpus_detail::bits;
    using search_corpus_detail::fold;
    using search_corpus_detail::hex;
    ArchitectureModel m;
    const explore::MappingSearchResult r = run_search_case(c, m);
    std::uint64_t front = hash::combine(0x66726F6E74ull, r.front.size());
    for (const explore::TradeoffPoint& p : r.front) {
        front = hash::combine(fold(front, p.label), bits(p.cost));
        front = hash::combine(front, bits(p.failure_probability));
        front = hash::combine(front, p.app_nodes);
        front = hash::combine(front, p.resources);
        front = hash::combine(front, p.ft_dag_nodes);
        front = hash::combine(front, p.ft_paths);
        front = hash::combine(front, p.bdd_nodes);
    }
    const std::uint64_t model = fold(0x6D6F64656Cull, io::to_json(m).dump());
    return c.label + " p0=" + hex(bits(r.probability_before)) + " p1=" +
           hex(bits(r.probability_after)) + " c0=" + hex(bits(r.cost_before)) + " c1=" +
           hex(bits(r.cost_after)) + " merges=" + std::to_string(r.merges) +
           " iterations=" + std::to_string(r.iterations) +
           " local_optimum=" + std::to_string(r.reached_local_optimum ? 1 : 0) +
           " front=" + std::to_string(r.front.size()) + ":" + hex(front) + " model=" + hex(model);
}

inline analysis::ProbabilityOptions rate_group_options(const RateGroupCase& g) {
    analysis::ProbabilityOptions options;
    options.approximate = g.approximate;
    return options;
}

/// One line per lane of the group's analyze_batch on a fresh engine.
inline std::vector<std::string> rate_group_digest_lines(const RateGroupCase& g) {
    using search_corpus_detail::bits;
    using search_corpus_detail::hex;
    engine::EngineOptions engine_options;
    engine_options.threads = g.threads;
    engine::EvalEngine engine(engine_options);
    std::vector<const ArchitectureModel*> ptrs;
    for (const ArchitectureModel& v : g.variants) ptrs.push_back(&v);
    const std::vector<analysis::ProbabilityResult> results =
        engine.analyze_batch(ptrs, rate_group_options(g));
    std::vector<std::string> lines;
    for (std::size_t j = 0; j < results.size(); ++j) {
        const analysis::ProbabilityResult& r = results[j];
        std::uint64_t stats = hash::combine(0x7374617473ull, r.ft_stats.basic_events);
        stats = hash::combine(stats, r.ft_stats.gates);
        stats = hash::combine(stats, r.ft_stats.dag_nodes);
        stats = hash::combine(stats, r.ft_stats.expanded_nodes);
        stats = hash::combine(stats, r.ft_stats.paths);
        stats = hash::combine(stats, r.ft_stats.depth);
        lines.push_back(g.label + "/lane" + std::to_string(j) + " p=" +
                        hex(bits(r.failure_probability)) +
                        " bdd_nodes=" + std::to_string(r.bdd_nodes) +
                        " variables=" + std::to_string(r.variables) +
                        " modules=" + std::to_string(r.modules) +
                        " approximated=" + std::to_string(r.approximated_blocks) +
                        " cycles_cut=" + std::to_string(r.cycles_cut) +
                        " warnings=" + std::to_string(r.warnings.size()) +
                        " stats=" + hex(stats));
    }
    return lines;
}

/// The engine-free modular evaluation the engine must reproduce field
/// for field: a full build_fault_tree rebuild, canonicalize, find_modules
/// and bdd::evaluate_module on fresh managers — no caches, no per-thread
/// builders or workspaces.
inline analysis::ProbabilityResult engine_free_result(const ArchitectureModel& m,
                                                      const analysis::ProbabilityOptions& options) {
    ftree::FtBuildOptions build_options;
    build_options.approximate = options.approximate;
    build_options.include_location_events = options.include_location_events;
    build_options.rates = options.rates;
    ftree::FtBuildResult built = ftree::build_fault_tree(m, build_options);
    analysis::ProbabilityResult r;
    r.ft_stats = built.tree.stats();
    r.approximated_blocks = built.approximated_blocks;
    r.cycles_cut = built.cycles_cut;
    r.warnings = std::move(built.warnings);
    const ftree::FaultTree canon = ftree::canonicalize(built.tree).tree;
    const ftree::ModuleDecomposition dec = ftree::find_modules(canon);
    std::vector<double> module_prob(dec.size());
    for (std::size_t i = 0; i < dec.size(); ++i) {
        std::vector<double> child_probs;
        for (const std::uint32_t child : dec.modules[i].child_modules) {
            child_probs.push_back(module_prob[child]);
        }
        const bdd::ModuleEvalResult e =
            bdd::evaluate_module(canon, dec, i, child_probs, options.mission_hours);
        module_prob[i] = e.probability;
        r.bdd_nodes += e.bdd_nodes;
        r.bdd_total_nodes += e.bdd_total_nodes;
        r.variables += e.variables;
    }
    r.modules = dec.size();
    r.failure_probability = module_prob.back();
    return r;
}

#ifdef ASILKIT_SOURCE_DIR
/// The fixture's digest lines of one kind ("search" or "batch"), keyed
/// by their label (the first field), kind prefix stripped.
inline std::map<std::string, std::string> search_golden(std::string_view kind) {
    std::ifstream in(std::string(ASILKIT_SOURCE_DIR) + "/tests/fixtures/search_golden.txt");
    std::map<std::string, std::string> out;
    const std::string prefix = std::string(kind) + " ";
    for (std::string line; std::getline(in, line);) {
        if (line.rfind(prefix, 0) != 0) continue;
        line.erase(0, prefix.size());
        out.emplace(line.substr(0, line.find(' ')), line);
    }
    return out;
}
#endif

}  // namespace asilkit::testing
