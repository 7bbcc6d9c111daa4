// Long-lived manager tests: the batched multi-lambda probability kernel
// (bitwise vs sequential, property vs brute force), the forced-collision
// regression for the probability memo, reset(), and the reused
// ModuleEvaluator workspace against fresh evaluations.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "bdd/from_fault_tree.h"
#include "ftree/fault_tree.h"
#include "ftree/modules.h"
#include "helpers.h"
#include "scenarios/synthetic.h"

namespace asilkit::bdd {
namespace {

/// The same tree with every failure rate scaled: shape-identical by
/// construction (indices preserved), rates free — the "rate-only
/// candidate variant" the batched kernel is built for.
ftree::FaultTree scale_rates(const ftree::FaultTree& ft, double factor) {
    ftree::FaultTree out;
    for (const ftree::BasicEvent& b : ft.basic_events()) {
        (void)out.add_basic_event(b.name, b.lambda * factor);
    }
    std::vector<ftree::FtRef> gate_refs;
    for (const ftree::Gate& g : ft.gates()) {
        gate_refs.push_back(out.add_gate(g.name, g.kind, {}));
    }
    for (std::size_t i = 0; i < ft.gates().size(); ++i) {
        for (const ftree::FtRef c : ft.gates()[i].children) out.add_child(gate_refs[i], c);
    }
    if (ft.has_top()) out.set_top(ft.top());
    return out;
}

// ---- batched multi-lambda kernel --------------------------------------------

TEST(BatchKernel, MatchesSequentialProbabilityBitwise) {
    std::mt19937 rng(42);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    for (std::uint32_t seed = 0; seed < 20; ++seed) {
        const ftree::FaultTree ft = testing::random_fault_tree(seed, 4 + seed % 9, 2 + seed % 5);
        const CompiledFaultTree compiled = compile_fault_tree(ft);
        const std::size_t nvars = compiled.event_of_var.size();
        std::vector<ProbVector> lanes(5, ProbVector(nvars));
        for (ProbVector& lane : lanes) {
            for (double& v : lane) v = dist(rng);
        }
        const std::vector<double> batch = compiled.manager.probability_batch(compiled.root, lanes);
        ASSERT_EQ(batch.size(), lanes.size());
        for (std::size_t j = 0; j < lanes.size(); ++j) {
            // Bitwise: the per-node Shannon expression is a pure function
            // of the canonical diagram, whatever the sweep extent.
            EXPECT_EQ(batch[j], compiled.manager.probability(compiled.root, lanes[j]))
                << "seed " << seed << " lane " << j;
        }
    }
}

TEST(BatchKernel, PropertyMatchesBruteForcePerLane) {
    const double factors[] = {1.0, 1.25, 1.5, 2.0};
    for (std::uint32_t seed = 0; seed < 12; ++seed) {
        const ftree::FaultTree base = testing::random_fault_tree(seed, 3 + seed % 8, 2 + seed % 4);
        const CompiledFaultTree compiled = compile_fault_tree(base);
        std::vector<ftree::FaultTree> variants;
        std::vector<ProbVector> lanes;
        for (const double factor : factors) {
            variants.push_back(scale_rates(base, factor));
            ProbVector lane;
            for (const std::uint32_t event : compiled.event_of_var) {
                lane.push_back(
                    basic_event_probability(variants.back().basic_event(event).lambda, 1.0));
            }
            lanes.push_back(std::move(lane));
        }
        const std::vector<double> batch = compiled.manager.probability_batch(compiled.root, lanes);
        for (std::size_t j = 0; j < variants.size(); ++j) {
            EXPECT_NEAR(batch[j], testing::brute_force_probability(variants[j]), 1e-10)
                << "seed " << seed << " lane " << j;
        }
    }
}

TEST(BatchKernel, TerminalFastPaths) {
    BddManager mgr(2);
    const std::vector<ProbVector> lanes{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}};
    const std::vector<double> ones = mgr.probability_batch(kTrue, lanes);
    const std::vector<double> zeros = mgr.probability_batch(kFalse, lanes);
    for (const double v : ones) EXPECT_EQ(v, 1.0);
    for (const double v : zeros) EXPECT_EQ(v, 0.0);
}

TEST(BatchKernel, ValidatesLanes) {
    BddManager mgr(3);
    const BddRef f = mgr.apply_or(mgr.variable(0), mgr.variable(2));
    EXPECT_THROW((void)mgr.probability_batch(f, {}), AnalysisError);
    const std::vector<ProbVector> ragged{{0.1, 0.2, 0.3}, {0.1, 0.2}};
    EXPECT_THROW((void)mgr.probability_batch(f, ragged), AnalysisError);
    // Lanes may be shorter than variable_count(), but never shorter than
    // the reachable variables (f tests variable 2).
    const std::vector<ProbVector> shallow{{0.1, 0.2}, {0.3, 0.4}};
    EXPECT_THROW((void)mgr.probability_batch(f, shallow), AnalysisError);
    const BddRef g = mgr.variable(0);
    const std::vector<double> ok = mgr.probability_batch(g, shallow);
    EXPECT_EQ(ok[0], 0.1);
    EXPECT_EQ(ok[1], 0.3);
}

// ---- probability memo: forced fingerprint collision -------------------------
//
// probability() used to trust a 64-bit chained fingerprint of the
// probability vector (key = mix64(key ^ bits), seeded mix64(n)).  mix64
// is an invertible bijection, so a second vector colliding with any
// given one can be constructed outright — and the memo then served the
// FIRST vector's per-node probabilities for the second.  The memo now
// compares a retained copy of the vector bit-for-bit.

TEST(ProbabilityMemo, SurvivesForcedFingerprintCollision) {
    BddManager mgr(2);
    const BddRef f = mgr.variable(0);
    const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };

    const double a1 = 0.25;
    const double a2 = 0.5;
    const double b1 = 0.75;
    // Choose b2 so (b1, b2) collides with (a1, a2) under the retired
    // fingerprint: equal chain state before the final mix64.
    const std::uint64_t k0 = detail::mix64(2);
    const double b2 = std::bit_cast<double>(detail::mix64(k0 ^ bits(a1)) ^
                                            detail::mix64(k0 ^ bits(b1)) ^ bits(a2));

    const auto retired_fingerprint = [&](double p1, double p2) {
        std::uint64_t key = detail::mix64(2);  // mix64(variable_count)
        key = detail::mix64(key ^ bits(p1));
        key = detail::mix64(key ^ bits(p2));
        return key;
    };
    ASSERT_EQ(retired_fingerprint(a1, a2), retired_fingerprint(b1, b2));

    // f only tests variable 0, so the second lane's garbage double is
    // never read — but the vectors differ, so the memo must not replay.
    const std::vector<double> va{a1, a2};
    const std::vector<double> vb{b1, b2};
    EXPECT_EQ(mgr.probability(f, va), 0.25);
    EXPECT_EQ(mgr.probability(f, vb), 0.75);  // a stale memo returns 0.25
    EXPECT_EQ(mgr.probability(f, va), 0.25);
}

// ---- ModuleEvaluator ---------------------------------------------------------

/// Module-by-module evaluation of `ft` through `eval` (bottom-up, child
/// probabilities from the evaluator's own results).
std::vector<ModuleEvalResult> evaluate_all(ModuleEvaluator& eval, const ftree::FaultTree& ft,
                                           const ftree::ModuleDecomposition& dec) {
    std::vector<ModuleEvalResult> out(dec.size());
    std::vector<double> child_probs;
    for (std::size_t i = 0; i < dec.size(); ++i) {
        child_probs.clear();
        for (const std::uint32_t child : dec.modules[i].child_modules) {
            child_probs.push_back(out[child].probability);
        }
        out[i] = eval.evaluate_module(ft, dec, i, child_probs, 1.0);
    }
    return out;
}

void expect_same(const ModuleEvalResult& reused, const ModuleEvalResult& fresh) {
    EXPECT_EQ(reused.probability, fresh.probability);  // bitwise
    EXPECT_EQ(reused.bdd_nodes, fresh.bdd_nodes);
    EXPECT_EQ(reused.bdd_total_nodes, fresh.bdd_total_nodes);
    EXPECT_EQ(reused.variables, fresh.variables);
}

TEST(ModuleEvaluator, ReusedWorkspaceMatchesFreshBitwise) {
    // One evaluator across trees of varying sizes: every module result
    // must equal the fresh-manager reference field for field.
    ModuleEvaluator reused;
    for (std::uint32_t seed = 0; seed < 8; ++seed) {
        const ftree::FaultTree ft =
            ftree::canonical_form(testing::random_fault_tree(seed, 6 + seed % 6, 3 + seed % 4));
        const ftree::ModuleDecomposition dec = ftree::find_modules(ft);
        const std::vector<ModuleEvalResult> results = evaluate_all(reused, ft, dec);
        for (std::size_t i = 0; i < dec.size(); ++i) {
            std::vector<double> child_probs;
            for (const std::uint32_t child : dec.modules[i].child_modules) {
                child_probs.push_back(results[child].probability);
            }
            SCOPED_TRACE("seed " + std::to_string(seed) + " module " + std::to_string(i));
            expect_same(results[i], evaluate_module(ft, dec, i, child_probs, 1.0));
        }
    }
}

TEST(ModuleEvaluator, LargeModuleThenSmallMatchesFresh) {
    // A large module grows the manager's tables and the scratch well past
    // their initial size; the small modules evaluated afterwards must not
    // see any of it — results identical to fresh evaluations.
    scenarios::SyntheticTreeOptions big_options;
    big_options.seed = 3;
    big_options.events = 400;
    big_options.gates = 300;
    const ftree::FaultTree big =
        ftree::canonical_form(scenarios::synthetic_fault_tree(big_options));
    const ftree::ModuleDecomposition big_dec = ftree::find_modules(big);

    ModuleEvaluator reused;
    const std::vector<ModuleEvalResult> big_results = evaluate_all(reused, big, big_dec);
    std::size_t largest = 0;
    for (const ModuleEvalResult& r : big_results) largest = std::max(largest, r.bdd_total_nodes);
    ASSERT_GT(largest, std::size_t{1} << 10) << "the large module must outgrow the initial tables";

    for (std::uint32_t seed = 0; seed < 12; ++seed) {
        const ftree::FaultTree ft = ftree::canonical_form(
            testing::random_fault_tree(100 + seed, 4 + seed % 5, 2 + seed % 3));
        const ftree::ModuleDecomposition dec = ftree::find_modules(ft);
        ModuleEvaluator fresh;
        const std::vector<ModuleEvalResult> expected = evaluate_all(fresh, ft, dec);
        const std::vector<ModuleEvalResult> actual = evaluate_all(reused, ft, dec);
        for (std::size_t i = 0; i < dec.size(); ++i) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " module " + std::to_string(i));
            expect_same(actual[i], expected[i]);
        }
    }
    // And the large tree again, after the small ones.
    const std::vector<ModuleEvalResult> again = evaluate_all(reused, big, big_dec);
    for (std::size_t i = 0; i < big_dec.size(); ++i) expect_same(again[i], big_results[i]);
}

TEST(ModuleEvaluator, LanesMatchPerLaneEvaluationBitwise) {
    const ftree::FaultTree base = testing::random_fault_tree(11, 8, 5);
    const double factors[] = {1.0, 1.25, 1.5, 2.0};
    std::vector<ftree::FaultTree> canon;
    for (const double factor : factors) {
        canon.push_back(ftree::canonical_form(scale_rates(base, factor)));
    }
    const std::size_t k = canon.size();
    for (std::size_t j = 1; j < k; ++j) {
        ASSERT_TRUE(ftree::identical_shape(canon.front(), canon[j]))
            << "rate-only variants must canonicalise index-identically";
    }
    std::vector<ftree::ModuleDecomposition> decs;
    for (const ftree::FaultTree& ft : canon) decs.push_back(ftree::find_modules(ft));
    const std::size_t nmodules = decs.front().size();

    ModuleEvaluator evaluator;
    std::vector<std::vector<double>> batched(k, std::vector<double>(nmodules));
    std::vector<std::vector<double>> reference(k, std::vector<double>(nmodules));
    // Each lane is its tree's rates in canonical event order over the
    // first tree as the shared skeleton.
    std::vector<std::vector<double>> lambdas(k);
    std::vector<std::span<const double>> lambda_spans;
    for (std::size_t j = 0; j < k; ++j) {
        for (const ftree::BasicEvent& e : canon[j].basic_events()) lambdas[j].push_back(e.lambda);
        lambda_spans.emplace_back(lambdas[j]);
    }
    for (std::size_t i = 0; i < nmodules; ++i) {
        std::vector<std::vector<double>> child_probs(k);
        std::vector<std::span<const double>> spans;
        for (std::size_t j = 0; j < k; ++j) {
            for (const std::uint32_t child : decs[j].modules[i].child_modules) {
                child_probs[j].push_back(batched[j][child]);
            }
            spans.emplace_back(child_probs[j]);
        }
        std::vector<ModuleEvalResult> lanes(k);
        evaluator.evaluate_module_lanes(canon.front(), decs.front(), i, lambda_spans, spans, 1.0,
                                        lanes);
        for (std::size_t j = 0; j < k; ++j) {
            batched[j][i] = lanes[j].probability;
            std::vector<double> ref_children;
            for (const std::uint32_t child : decs[j].modules[i].child_modules) {
                ref_children.push_back(reference[j][child]);
            }
            const ModuleEvalResult ref =
                evaluate_module(canon[j], decs[j], i, ref_children, 1.0);
            reference[j][i] = ref.probability;
            SCOPED_TRACE("module " + std::to_string(i) + " lane " + std::to_string(j));
            expect_same(lanes[j], ref);
        }
    }
}

TEST(BddManagerReset, BehavesLikeAFreshManager) {
    // reset() after a large diagram: the same construction sequence gives
    // the same refs, the same size and the same probability as on a
    // freshly constructed manager.
    BddManager reused(40);
    BddRef big = kFalse;
    for (std::uint32_t v = 0; v + 1 < 40; v += 2) {
        big = reused.apply_or(big, reused.apply_and(reused.variable(v), reused.variable(v + 1)));
    }
    ASSERT_GT(reused.size(), 20u);

    const auto build = [](BddManager& m) {
        return m.apply_or(m.apply_and(m.variable(0), m.variable(2)),
                          m.apply_and(m.variable(1), m.variable(2)));
    };
    reused.reset(3);
    BddManager fresh(3);
    const BddRef r = build(reused);
    const BddRef f = build(fresh);
    EXPECT_EQ(reused.variable_count(), 3u);
    EXPECT_EQ(r, f);
    EXPECT_EQ(reused.size(), fresh.size());
    EXPECT_EQ(reused.node_count(r), fresh.node_count(f));
    const std::vector<double> p{0.1, 0.2, 0.3};
    EXPECT_EQ(reused.probability(r, p), fresh.probability(f, p));
    const std::vector<ProbVector> lanes{p};
    EXPECT_EQ(reused.probability_batch(r, lanes), fresh.probability_batch(f, lanes));
}

}  // namespace
}  // namespace asilkit::bdd
