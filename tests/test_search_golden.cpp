// Golden mapping searches and rate-variant batches: every case of the
// seeded corpus (tests/search_corpus.h) must reproduce, bit for bit, the
// digests in tests/fixtures/search_golden.txt — probabilities, costs,
// merges, iterations, fronts and final models.  The fixture was captured
// with the persistent-compiler engine that preceded the per-module BDD
// workspace, and before the candidate-dedup memo and the full-rebuild
// tree path were deleted, so a match proves those changes neutral.
//
// The field-equality test checks the engine's ProbabilityResult against
// the engine-free path built from the same pieces (build_fault_tree,
// canonicalize, find_modules, bdd::evaluate_module on fresh managers)
// field for field, bdd_total_nodes included, and against the monolithic
// analyze_failure_probability on every field the two define alike.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/probability.h"
#include "engine/engine.h"
#include "search_corpus.h"

#ifndef ASILKIT_SOURCE_DIR
#error "ASILKIT_SOURCE_DIR must point at the repository root"
#endif

namespace asilkit::testing {
namespace {

void expect_searches_match(bool synthetic) {
    const std::map<std::string, std::string> expected = search_golden("search");
    std::size_t checked = 0;
    for (const SearchCase& c : search_corpus()) {
        if ((c.label.rfind("synthetic", 0) == 0) != synthetic) continue;
        const auto it = expected.find(c.label);
        ASSERT_NE(it, expected.end()) << "no fixture line for " << c.label;
        EXPECT_EQ(search_digest_line(c), it->second);
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

TEST(SearchGolden, SyntheticSearchesMatchFixture) { expect_searches_match(true); }

TEST(SearchGolden, ScenarioSearchesMatchFixture) { expect_searches_match(false); }

TEST(SearchGolden, CorpusAndFixtureAgreeOnSize) {
    std::size_t lanes = 0;
    for (const RateGroupCase& g : rate_group_corpus()) lanes += g.variants.size();
    EXPECT_EQ(search_golden("search").size(), search_corpus().size());
    EXPECT_EQ(search_golden("batch").size(), lanes);
}

TEST(SearchGolden, RateVariantBatchesMatchFixture) {
    const std::map<std::string, std::string> expected = search_golden("batch");
    for (const RateGroupCase& g : rate_group_corpus()) {
        for (const std::string& line : rate_group_digest_lines(g)) {
            const auto it = expected.find(line.substr(0, line.find(' ')));
            ASSERT_NE(it, expected.end()) << "no fixture line for " << line;
            EXPECT_EQ(line, it->second);
        }
    }
}

void expect_fields_equal(const analysis::ProbabilityResult& engine,
                         const analysis::ProbabilityResult& reference) {
    EXPECT_EQ(engine.failure_probability, reference.failure_probability);  // bitwise
    EXPECT_EQ(engine.bdd_nodes, reference.bdd_nodes);
    EXPECT_EQ(engine.bdd_total_nodes, reference.bdd_total_nodes);
    EXPECT_EQ(engine.variables, reference.variables);
    EXPECT_EQ(engine.modules, reference.modules);
    EXPECT_EQ(engine.approximated_blocks, reference.approximated_blocks);
    EXPECT_EQ(engine.cycles_cut, reference.cycles_cut);
    EXPECT_EQ(engine.warnings, reference.warnings);
    EXPECT_EQ(engine.ft_stats.basic_events, reference.ft_stats.basic_events);
    EXPECT_EQ(engine.ft_stats.gates, reference.ft_stats.gates);
    EXPECT_EQ(engine.ft_stats.dag_nodes, reference.ft_stats.dag_nodes);
    EXPECT_EQ(engine.ft_stats.expanded_nodes, reference.ft_stats.expanded_nodes);
    EXPECT_EQ(engine.ft_stats.paths, reference.ft_stats.paths);
    EXPECT_EQ(engine.ft_stats.depth, reference.ft_stats.depth);
}

void expect_matches_monolithic(const analysis::ProbabilityResult& engine,
                               const analysis::ProbabilityResult& monolithic) {
    // Canonical child order and module boundaries change the BDD shapes,
    // so the probability agrees to rounding and the node counts differ;
    // everything the two paths define alike is equal.
    EXPECT_NEAR(engine.failure_probability, monolithic.failure_probability,
                1e-12 * monolithic.failure_probability);
    EXPECT_EQ(engine.variables, monolithic.variables);
    EXPECT_EQ(engine.approximated_blocks, monolithic.approximated_blocks);
    EXPECT_EQ(engine.cycles_cut, monolithic.cycles_cut);
    EXPECT_EQ(engine.warnings, monolithic.warnings);
    EXPECT_EQ(engine.ft_stats.dag_nodes, monolithic.ft_stats.dag_nodes);
    EXPECT_EQ(engine.ft_stats.paths, monolithic.ft_stats.paths);
}

TEST(EngineFieldEquality, SearchCorpusModelsMatchEngineFreePath) {
    // Initial and searched models of the corpus's 1-thread cap-4 cases,
    // analysed on one long-lived engine per build mode, so the per-thread
    // workspace runs large and small modules in every order.
    for (const bool approximate : {false, true}) {
        analysis::ProbabilityOptions options;
        options.approximate = approximate;
        engine::EngineOptions engine_options;
        engine_options.threads = 1;
        engine_options.cache_capacity = 0;  // every module evaluated, none replayed
        engine::EvalEngine engine(engine_options);
        for (const SearchCase& c : search_corpus()) {
            if (c.approximate != approximate || c.capacity != 4 || c.threads != 1) continue;
            ArchitectureModel searched;
            (void)run_search_case(c, searched);
            const ArchitectureModel* const models[] = {&c.model, &searched};
            for (const ArchitectureModel* m : models) {
                SCOPED_TRACE(c.label + (m == &c.model ? " initial" : " searched"));
                const analysis::ProbabilityResult r = engine.analyze(*m, options);
                expect_fields_equal(r, engine_free_result(*m, options));
                expect_matches_monolithic(r, analysis::analyze_failure_probability(*m, options));
            }
        }
    }
}

TEST(EngineFieldEquality, RateVariantBatchesMatchEngineFreePath) {
    for (const RateGroupCase& g : rate_group_corpus()) {
        if (g.threads != 1) continue;
        const analysis::ProbabilityOptions options = rate_group_options(g);
        engine::EvalEngine engine({.threads = 2, .cache_capacity = 1 << 12});
        std::vector<const ArchitectureModel*> ptrs;
        for (const ArchitectureModel& v : g.variants) ptrs.push_back(&v);
        const std::vector<analysis::ProbabilityResult> batch = engine.analyze_batch(ptrs, options);
        for (std::size_t j = 0; j < batch.size(); ++j) {
            SCOPED_TRACE(g.label + " lane " + std::to_string(j));
            expect_fields_equal(batch[j], engine_free_result(g.variants[j], options));
        }
    }
}

}  // namespace
}  // namespace asilkit::testing
