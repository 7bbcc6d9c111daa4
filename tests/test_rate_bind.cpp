// Rates as data: a rate variant of a known structure is bound, not built.
// Every bound result — rates in canonical event order, structural and
// shape hash, module subtree hashes — must equal the full rebuild's bit
// for bit (docs/ftree.md, "Rates as data").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "canonical_corpus.h"
#include "engine/engine.h"
#include "explore/driver.h"
#include "ftree/builder.h"
#include "ftree/cft.h"
#include "ftree/fault_tree.h"
#include "ftree/modules.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/synthetic.h"

namespace asilkit::ftree {
namespace {

std::vector<double> lambdas_of(const FaultTree& ft) {
    std::vector<double> out;
    for (const BasicEvent& e : ft.basic_events()) out.push_back(e.lambda);
    return out;
}

std::vector<std::uint64_t> module_hashes_of(const FaultTree& canonical) {
    std::vector<std::uint64_t> out;
    for (const Module& m : find_modules(canonical).modules) out.push_back(m.subtree_hash);
    return out;
}

/// `ft` with event i's rate replaced by lambdas[i]: same arenas, names,
/// child lists and top.
FaultTree with_lambdas(const FaultTree& ft, const std::vector<double>& lambdas) {
    FaultTree out;
    for (std::size_t i = 0; i < ft.basic_events().size(); ++i) {
        out.add_basic_event(ft.basic_events()[i].name, lambdas[i]);
    }
    for (const Gate& g : ft.gates()) out.add_gate(g.name, g.kind, g.children);
    out.set_top(ft.top());
    return out;
}

/// The events below `r` in the order's rate-blind child order, each once.
void events_below(const RateBlindOrder& order, FtRef r, std::vector<std::uint32_t>& out,
                  std::vector<char>& seen_gate) {
    if (r.kind == FtRef::Kind::Basic) {
        if (std::find(out.begin(), out.end(), r.index) == out.end()) out.push_back(r.index);
        return;
    }
    if (seen_gate[r.index] != 0) return;
    seen_gate[r.index] = 1;
    const auto [begin, end] = order.sorted_range[r.index];
    for (std::uint32_t k = begin; k < end; ++k) {
        events_below(order, order.sorted[k], out, seen_gate);
    }
}

/// Rates that swap every tied pair: for each run of siblings tied on the
/// rate-blind key, the first and last sibling exchange their events'
/// rates (position by position), so a rate-decided order flips.
std::vector<double> swap_tied_pairs(const RateBlindOrder& order, std::vector<double> lambdas) {
    for (const auto& [begin, end] : order.ties) {
        std::vector<std::uint32_t> first;
        std::vector<std::uint32_t> last;
        std::vector<char> seen(order.gate_count, 0);
        events_below(order, order.sorted[begin], first, seen);
        std::fill(seen.begin(), seen.end(), 0);
        events_below(order, order.sorted[end - 1], last, seen);
        for (std::size_t i = 0; i < std::min(first.size(), last.size()); ++i) {
            std::swap(lambdas[first[i]], lambdas[last[i]]);
        }
    }
    return lambdas;
}

TEST(RateBinder, ReplaysCanonicalizeOnTheCanonicalCorpus) {
    std::mt19937_64 rng(2024);
    std::lognormal_distribution<double> factor(0.0, 0.5);
    std::size_t trees_with_ties = 0;
    std::size_t reshaped = 0;
    RateBinder binder;
    for (const testing::CorpusTree& c : testing::canonical_corpus()) {
        if (c.tree.top().kind == FtRef::Kind::Basic) continue;
        RateBlindOrder order;
        const CanonicalTree base = canonicalize(FaultTree(c.tree), &order);
        ASSERT_FALSE(order.postorder.empty()) << c.label;
        if (!order.ties.empty()) ++trees_with_ties;
        ModuleHashPlan plan;
        (void)ModuleFinder{}.find(base.tree, &plan);

        const std::vector<double> own = lambdas_of(c.tree);
        std::vector<double> lognormal = own;
        for (double& l : lognormal) l *= factor(rng);
        const std::vector<std::vector<double>> variants{
            own, lognormal, std::vector<double>(own.size(), 2e-7), swap_tied_pairs(order, own)};
        for (std::size_t v = 0; v < variants.size(); ++v) {
            SCOPED_TRACE(c.label + " variant " + std::to_string(v));
            const CanonicalTree ref = canonicalize(with_lambdas(c.tree, variants[v]));
            binder.bind(order, variants[v]);
            EXPECT_EQ(binder.structural_hash(), ref.structural_hash);
            EXPECT_EQ(binder.shape_hash(), ref.shape_hash);
            const std::span<const double> bound = binder.lambdas();
            EXPECT_EQ(std::vector<double>(bound.begin(), bound.end()), lambdas_of(ref.tree));
            EXPECT_TRUE(binder.matches(ref.tree));
            if (!identical_shape(base.tree, ref.tree)) {
                EXPECT_FALSE(binder.matches(base.tree));
                ++reshaped;
                continue;
            }
            EXPECT_TRUE(binder.matches(base.tree));
            std::vector<std::uint64_t> hashes(find_modules(base.tree).size());
            std::vector<std::uint64_t> scratch;
            module_hashes(plan, bound, hashes, scratch);
            EXPECT_EQ(hashes, module_hashes_of(ref.tree));
        }
    }
    // The corpus must exercise the tie rule: many trees have tied
    // siblings, and some rate variants reorder them into another index
    // structure.
    EXPECT_GT(trees_with_ties, 100u);
    EXPECT_GT(reshaped, 0u);
}

/// Rate-only variants of `m`: lognormal per used resource, all equal,
/// and the used resources' rates reversed among them.
std::vector<ArchitectureModel> rate_variants(const ArchitectureModel& m, std::uint64_t seed) {
    const std::vector<ResourceId> used = m.used_resources();
    std::mt19937_64 rng(seed);
    std::lognormal_distribution<double> factor(0.0, 0.5);
    std::vector<ArchitectureModel> out;
    for (int k = 0; k < 3; ++k) {
        ArchitectureModel v = m;
        for (const ResourceId r : used) {
            v.resources().node(r).lambda_override = m.resource_lambda(r) * factor(rng);
        }
        out.push_back(std::move(v));
    }
    ArchitectureModel equal = m;
    for (const ResourceId r : used) equal.resources().node(r).lambda_override = 3e-8;
    out.push_back(std::move(equal));
    ArchitectureModel reversed = m;
    for (std::size_t i = 0; i < used.size(); ++i) {
        reversed.resources().node(used[i]).lambda_override =
            m.resource_lambda(used[used.size() - 1 - i]) * (1.0 + 0.01 * static_cast<double>(i));
    }
    out.push_back(std::move(reversed));
    return out;
}

ArchitectureModel expanded_ecotwin() {
    explore::ExplorationOptions expand_only;
    expand_only.run_connect_reduce = false;
    expand_only.run_mapping_optimization = false;
    expand_only.engine.threads = 1;
    return explore::run_exploration(scenarios::ecotwin_lateral_control(),
                                    scenarios::ecotwin_decision_nodes(), expand_only)
        .final_model;
}

/// The rate-sweep architectures plus the canonical corpus's generated
/// models, pristine and merged.
std::vector<std::pair<std::string, ArchitectureModel>> bind_models() {
    std::vector<std::pair<std::string, ArchitectureModel>> out;
    out.emplace_back("ecotwin-expanded", expanded_ecotwin());
    out.emplace_back("longitudinal", scenarios::ecotwin_longitudinal_control());
    out.emplace_back("fig3", scenarios::fig3_camera_gps_fusion());
    for (std::uint32_t i = 0; i < 40; ++i) {
        scenarios::SyntheticOptions options;
        options.seed = 9000 + i;
        options.sensors = 2 + i % 3;
        options.layers = 2 + i % 3;
        options.width = 2 + (i / 3) % 3;
        const ArchitectureModel m = scenarios::synthetic_model(options);
        out.emplace_back("synthetic-model/" + std::to_string(i), m);
        out.emplace_back("synthetic-model/" + std::to_string(i) + "/merged",
                         testing::corpus_detail::merged(m, 77 + i, 4 + i % 6));
    }
    return out;
}

/// The prepared candidate against its full rebuild: rates, hashes,
/// module hashes and everything else prepare() reports, and a skeleton
/// index-identical to the rebuilt canonical tree.
void expect_matches_full_build(const IncrementalTreeBuilder::Prepared& prep,
                               const ArchitectureModel& m, const FtBuildOptions& options) {
    FtBuildResult built = build_fault_tree(m, options);
    const CanonicalTree ref = canonicalize(std::move(built.tree));
    ASSERT_TRUE(identical_shape(*prep.canonical, ref.tree));
    EXPECT_EQ(prep.lambdas, lambdas_of(ref.tree));
    EXPECT_EQ(prep.structural_hash, ref.structural_hash);
    EXPECT_EQ(prep.shape_hash, ref.shape_hash);
    EXPECT_EQ(prep.module_hashes, module_hashes_of(ref.tree));
    EXPECT_EQ(prep.stats, ref.stats);
    EXPECT_EQ(prep.warnings, built.warnings);
    EXPECT_EQ(prep.approximated_blocks, built.approximated_blocks);
    EXPECT_EQ(prep.cycles_cut, built.cycles_cut);
}

TEST(IncrementalTreeBuilder, BoundVariantsEqualFullBuilds) {
    std::uint64_t seed = 0;
    std::size_t bound = 0;
    std::size_t fallbacks = 0;
    for (const auto& [label, model] : bind_models()) {
        for (const bool approximate : {false, true}) {
            for (const bool locations : {true, false}) {
                FtBuildOptions options;
                options.approximate = approximate;
                options.include_location_events = locations;
                SCOPED_TRACE(label + (approximate ? " approx" : " exact") +
                             (locations ? " +loc" : " -loc"));
                IncrementalTreeBuilder builder;
                std::vector<ArchitectureModel> sequence{model};
                for (ArchitectureModel& v : rate_variants(model, ++seed)) {
                    sequence.push_back(std::move(v));
                }
                sequence.push_back(model);  // an exact repeat
                for (std::size_t i = 0; i < sequence.size(); ++i) {
                    SCOPED_TRACE("candidate " + std::to_string(i));
                    const IncrementalTreeBuilder::Prepared prep =
                        builder.prepare(sequence[i], options);
                    expect_matches_full_build(prep, sequence[i], options);
                    const IncrementalTreeBuilder::PassStats& pass = builder.last_pass();
                    // The first two sightings build; later rate variants bind.
                    if (i < 2) {
                        EXPECT_FALSE(pass.bound || pass.memo_hit);
                    } else {
                        EXPECT_TRUE(pass.bound || pass.fallback || pass.memo_hit);
                    }
                    bound += pass.bound ? 1 : 0;
                    fallbacks += pass.fallback ? 1 : 0;
                }
                EXPECT_TRUE(builder.last_pass().memo_hit) << "the repeat is served whole";
            }
        }
    }
    EXPECT_GT(bound, 1000u);
    EXPECT_LT(fallbacks, bound / 10);
}

/// Six functions on a ring of shared ECUs (f_i on ecu_i and ecu_i+1),
/// all fed by one sensor and merged for one actuator.  Every function
/// gate ties with every other on the rate-blind key, so the ECU rates
/// decide their order — and a ring numbered from different starting
/// points has different index structures.
ArchitectureModel ecu_ring() {
    ArchitectureModel m("ecu-ring");
    const LocationId zone = m.add_location({"zone", kDefaultLocationLambda, {}});
    const NodeId sensor = m.add_node_with_dedicated_resource(
        {"sens", NodeKind::Sensor, AsilTag{Asil::B}, {}}, zone);
    const NodeId merger = m.add_node_with_dedicated_resource(
        {"merge", NodeKind::Merger, AsilTag{Asil::B}, {}}, zone);
    const NodeId actuator = m.add_node_with_dedicated_resource(
        {"act", NodeKind::Actuator, AsilTag{Asil::B}, {}}, zone);
    constexpr int kRing = 6;
    std::vector<ResourceId> ecus;
    for (int i = 0; i < kRing; ++i) {
        Resource ecu;
        ecu.name = "ecu" + std::to_string(i);
        ecu.kind = ResourceKind::Functional;
        ecu.asil = Asil::B;
        ecus.push_back(m.add_resource(ecu));
        m.place_resource(ecus.back(), zone);
    }
    for (int i = 0; i < kRing; ++i) {
        const NodeId f = m.add_app_node(
            {"f" + std::to_string(i), NodeKind::Functional, AsilTag{Asil::B}, {}});
        m.map_node(f, ecus[i]);
        m.map_node(f, ecus[(i + 1) % kRing]);
        m.connect_app(sensor, f);
        m.connect_app(f, merger);
    }
    m.connect_app(merger, actuator);
    return m;
}

TEST(IncrementalTreeBuilder, ReorderedTiesTakeTheFallbackAndGetTheirOwnEntry) {
    const ArchitectureModel ring = ecu_ring();
    FtBuildOptions options;
    options.include_location_events = false;
    IncrementalTreeBuilder builder;
    (void)builder.prepare(ring, options);

    std::mt19937_64 rng(7);
    std::lognormal_distribution<double> factor(0.0, 0.5);
    std::size_t fallbacks = 0;
    for (int v = 0; v < 40; ++v) {
        ArchitectureModel variant = ring;
        for (const ResourceId r : ring.used_resources()) {
            variant.resources().node(r).lambda_override = ring.resource_lambda(r) * factor(rng);
        }
        SCOPED_TRACE("variant " + std::to_string(v));
        expect_matches_full_build(builder.prepare(variant, options), variant, options);
        if (!builder.last_pass().fallback) continue;
        ++fallbacks;
        EXPECT_FALSE(builder.last_pass().bound);
        // The variant's own entry: the same rates now bind to it.
        expect_matches_full_build(builder.prepare(variant, options), variant, options);
        EXPECT_TRUE(builder.last_pass().bound);
        EXPECT_FALSE(builder.last_pass().fallback);
    }
    EXPECT_GT(fallbacks, 0u) << "no variant reordered the ring into another index structure";
}

TEST(IncrementalTreeBuilder, ConflictingLambdasForOneEventStillThrow) {
    // Two resources share the name "dup", so both map to the event
    // "res:dup": their rates must agree.  Equal rates build (and bind);
    // a variant that gives them different rates throws on every path.
    ArchitectureModel m("dup-names");
    const LocationId zone = m.add_location({"zone", kDefaultLocationLambda, {}});
    const NodeId sensor = m.add_node_with_dedicated_resource(
        {"sens", NodeKind::Sensor, AsilTag{Asil::B}, {}}, zone);
    const NodeId actuator = m.add_node_with_dedicated_resource(
        {"act", NodeKind::Actuator, AsilTag{Asil::B}, {}}, zone);
    std::vector<ResourceId> dups;
    std::vector<NodeId> funcs;
    for (int i = 0; i < 2; ++i) {
        Resource r;
        r.name = "dup";
        r.kind = ResourceKind::Functional;
        r.asil = Asil::B;
        dups.push_back(m.add_resource(r));
        m.place_resource(dups.back(), zone);
        funcs.push_back(
            m.add_app_node({"f" + std::to_string(i), NodeKind::Functional, AsilTag{Asil::B}, {}}));
        m.map_node(funcs.back(), dups.back());
    }
    m.connect_app(sensor, funcs[0]);
    m.connect_app(funcs[0], funcs[1]);
    m.connect_app(funcs[1], actuator);

    const auto with_rates = [&](double a, double b) {
        ArchitectureModel v = m;
        v.resources().node(dups[0]).lambda_override = a;
        v.resources().node(dups[1]).lambda_override = b;
        return v;
    };
    FtBuildOptions options;
    IncrementalTreeBuilder builder;
    expect_matches_full_build(builder.prepare(with_rates(1e-7, 1e-7), options),
                              with_rates(1e-7, 1e-7), options);
    expect_matches_full_build(builder.prepare(with_rates(2e-7, 2e-7), options),
                              with_rates(2e-7, 2e-7), options);
    expect_matches_full_build(builder.prepare(with_rates(3e-7, 3e-7), options),
                              with_rates(3e-7, 3e-7), options);
    EXPECT_TRUE(builder.last_pass().bound);

    const ArchitectureModel conflict = with_rates(1e-7, 4e-7);
    EXPECT_THROW((void)build_fault_tree(conflict, options), AnalysisError);
    EXPECT_THROW((void)builder.prepare(conflict, options), AnalysisError);
    EXPECT_TRUE(builder.last_pass().fallback);
    // The builder stays usable, and binding still works.
    expect_matches_full_build(builder.prepare(with_rates(5e-7, 5e-7), options),
                              with_rates(5e-7, 5e-7), options);
    EXPECT_TRUE(builder.last_pass().bound);
    EXPECT_THROW((void)builder.prepare(conflict, options), AnalysisError);
}

}  // namespace
}  // namespace asilkit::ftree

namespace asilkit::engine {
namespace {

void expect_fields_equal(const analysis::ProbabilityResult& got,
                         const analysis::ProbabilityResult& want) {
    EXPECT_EQ(got.failure_probability, want.failure_probability);  // bitwise
    EXPECT_EQ(got.ft_stats, want.ft_stats);
    EXPECT_EQ(got.bdd_nodes, want.bdd_nodes);
    EXPECT_EQ(got.bdd_total_nodes, want.bdd_total_nodes);
    EXPECT_EQ(got.variables, want.variables);
    EXPECT_EQ(got.modules, want.modules);
    EXPECT_EQ(got.approximated_blocks, want.approximated_blocks);
    EXPECT_EQ(got.cycles_cut, want.cycles_cut);
    EXPECT_EQ(got.warnings, want.warnings);
}

TEST(AnalyzeBatch, BoundLanesMatchAFreshEnginePerModelAtAnyThreadCount) {
    std::vector<ArchitectureModel> models;
    std::uint64_t seed = 100;
    for (const ArchitectureModel& arch :
         {ftree::expanded_ecotwin(), scenarios::ecotwin_longitudinal_control(),
          scenarios::fig3_camera_gps_fusion(), ftree::ecu_ring()}) {
        models.push_back(arch);
        for (int round = 0; round < 3; ++round) {
            for (ArchitectureModel& v : ftree::rate_variants(arch, ++seed)) {
                models.push_back(std::move(v));
            }
        }
        models.push_back(arch);  // a duplicate: follows its leader
    }
    for (const bool approximate : {false, true}) {
        analysis::ProbabilityOptions options;
        options.approximate = approximate;
        options.include_location_events = !approximate;
        std::vector<analysis::ProbabilityResult> expected;
        for (const ArchitectureModel& m : models) {
            EvalEngine fresh({.threads = 1});
            expected.push_back(fresh.analyze(m, options));
        }
        std::vector<const ArchitectureModel*> ptrs;
        for (const ArchitectureModel& m : models) ptrs.push_back(&m);

        std::vector<std::pair<std::uint64_t, std::uint64_t>> groups;
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            EvalEngine engine({.threads = threads});
            // Twice: the second batch meets every structure memoized and
            // every tree cached.
            for (int pass = 0; pass < 2; ++pass) {
                const std::vector<analysis::ProbabilityResult> got =
                    engine.analyze_batch(ptrs, options);
                ASSERT_EQ(got.size(), models.size());
                for (std::size_t i = 0; i < models.size(); ++i) {
                    SCOPED_TRACE("threads " + std::to_string(threads) + " pass " +
                                 std::to_string(pass) + " model " + std::to_string(i));
                    expect_fields_equal(got[i], expected[i]);
                }
            }
            const EvalEngine::Stats stats = engine.stats();
            groups.emplace_back(stats.batch_groups, stats.batch_lanes);
        }
        // Grouping is a function of the batch, not of the lanes.
        for (const auto& g : groups) EXPECT_EQ(g, groups.front());
        EXPECT_GT(groups.front().first, 0u);
    }
}

}  // namespace
}  // namespace asilkit::engine
