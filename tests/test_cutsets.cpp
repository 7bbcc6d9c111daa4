#include "analysis/cutsets.h"

#include <gtest/gtest.h>

#include "ftree/builder.h"
#include "scenarios/fig3.h"
#include "scenarios/micro.h"

namespace asilkit::analysis {
namespace {

using ftree::FaultTree;
using ftree::GateKind;

TEST(CutSets, SingleEvent) {
    FaultTree ft;
    ft.set_top(ft.add_basic_event("e", 1e-6));
    const auto sets = minimal_cut_sets(ft);
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_EQ(sets[0], (CutSet{0}));
}

TEST(CutSets, OrGateGivesSingletons) {
    FaultTree ft;
    const auto a = ft.add_basic_event("a", 1e-6);
    const auto b = ft.add_basic_event("b", 1e-6);
    ft.set_top(ft.add_gate("top", GateKind::Or, {a, b}));
    const auto sets = minimal_cut_sets(ft);
    EXPECT_EQ(sets, (std::vector<CutSet>{{0}, {1}}));
}

TEST(CutSets, AndGateGivesPair) {
    FaultTree ft;
    const auto a = ft.add_basic_event("a", 1e-6);
    const auto b = ft.add_basic_event("b", 1e-6);
    ft.set_top(ft.add_gate("top", GateKind::And, {a, b}));
    const auto sets = minimal_cut_sets(ft);
    EXPECT_EQ(sets, (std::vector<CutSet>{{0, 1}}));
}

TEST(CutSets, MinimalityEnforced) {
    // top = a | (a & b): {a} subsumes {a,b}.
    FaultTree ft;
    const auto a = ft.add_basic_event("a", 1e-6);
    const auto b = ft.add_basic_event("b", 1e-6);
    const auto ab = ft.add_gate("ab", GateKind::And, {a, b});
    ft.set_top(ft.add_gate("top", GateKind::Or, {a, ab}));
    const auto sets = minimal_cut_sets(ft);
    EXPECT_EQ(sets, (std::vector<CutSet>{{0}}));
}

TEST(CutSets, RepeatedEventInAndCollapses) {
    // a & a == a.
    FaultTree ft;
    const auto a = ft.add_basic_event("a", 1e-6);
    ft.set_top(ft.add_gate("top", GateKind::And, {a, a}));
    const auto sets = minimal_cut_sets(ft);
    EXPECT_EQ(sets, (std::vector<CutSet>{{0}}));
}

TEST(CutSets, OrderLimitDropsLargeSets) {
    FaultTree ft;
    std::vector<ftree::FtRef> events;
    for (int i = 0; i < 5; ++i) {
        events.push_back(ft.add_basic_event(std::string("e").append(std::to_string(i)), 1e-6));
    }
    const auto big_and = ft.add_gate("big", GateKind::And, events);
    const auto single = ft.add_basic_event("single", 1e-6);
    ft.set_top(ft.add_gate("top", GateKind::Or, {big_and, single}));
    CutSetOptions options;
    options.max_order = 3;
    const auto sets = minimal_cut_sets(ft, options);
    EXPECT_EQ(sets.size(), 1u);  // only {single}; the 5-way set is dropped
    EXPECT_EQ(sets[0].size(), 1u);
}

TEST(CutSets, Fig3StructureIsCorrect) {
    // Series events are order-1 cut sets; the redundant branches appear
    // only as order-2 pairs crossing the two branches.
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const auto ft = ftree::build_fault_tree(m);
    CutSetOptions options;
    options.max_order = 2;
    const auto sets = minimal_cut_sets(ft.tree, options);
    EXPECT_EQ(minimal_cut_order(sets), 1u);

    auto has_single = [&](const std::string& name) {
        const auto ref = ft.tree.find_basic_event(name);
        return std::find(sets.begin(), sets.end(), CutSet{ref.index}) != sets.end();
    };
    EXPECT_TRUE(has_single("res:camera_hw"));
    EXPECT_TRUE(has_single("res:gps_hw"));
    EXPECT_TRUE(has_single("res:steering_hw"));
    // Branch hardware must NOT be a single point of failure.
    EXPECT_FALSE(has_single("res:ecu1"));
    EXPECT_FALSE(has_single("res:ecu2"));
    // ... but the cross-branch pair is a cut set.
    const auto e1 = ft.tree.find_basic_event("res:ecu1").index;
    const auto e2 = ft.tree.find_basic_event("res:ecu2").index;
    CutSet pair{e1, e2};
    std::sort(pair.begin(), pair.end());
    EXPECT_NE(std::find(sets.begin(), sets.end(), pair), sets.end());
}

TEST(CutSets, SharedEcuCreatesSinglePointOfFailure) {
    const ArchitectureModel m = scenarios::fig3_with_shared_ecu_ccf();
    const auto ft = ftree::build_fault_tree(m);
    CutSetOptions options;
    options.max_order = 1;
    const auto sets = minimal_cut_sets(ft.tree, options);
    const auto ecu1 = ft.tree.find_basic_event("res:ecu1").index;
    EXPECT_NE(std::find(sets.begin(), sets.end(), CutSet{ecu1}), sets.end())
        << "shared ECU must surface as an order-1 cut set";
}

TEST(CutSets, ProbabilityBoundApproximatesExact) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const auto ft = ftree::build_fault_tree(m);
    const auto sets = minimal_cut_sets(ft.tree, {3, 200000});
    const double bound = cut_set_probability_bound(ft.tree, sets);
    const double p = 2.08e-7;
    EXPECT_GT(bound, 0.9 * p);
    EXPECT_LT(bound, 1.2 * p);
}

TEST(CutSets, ProbabilityBoundIsClampedToOne) {
    FaultTree ft;
    const auto a = ft.add_basic_event("a", 100.0);  // p ~ 1
    const auto b = ft.add_basic_event("b", 100.0);
    ft.set_top(ft.add_gate("top", GateKind::Or, {a, b}));
    const auto sets = minimal_cut_sets(ft);
    EXPECT_DOUBLE_EQ(cut_set_probability_bound(ft, sets), 1.0);
}

TEST(CutSets, MinimalOrderOfEmptyIsZero) {
    EXPECT_EQ(minimal_cut_order({}), 0u);
}

TEST(CutSets, SetLimitThrows) {
    // A wide OR of ANDs explodes; the guard must fire rather than hang.
    FaultTree ft;
    std::vector<ftree::FtRef> ors;
    for (int g = 0; g < 12; ++g) {
        std::vector<ftree::FtRef> leaves;
        for (int i = 0; i < 4; ++i) {
            leaves.push_back(
                ft.add_basic_event(std::string("e").append(std::to_string(g)) + std::string("_").append(std::to_string(i)), 1e-6));
        }
        ors.push_back(ft.add_gate(std::string("or").append(std::to_string(g)), GateKind::Or, leaves));
    }
    ft.set_top(ft.add_gate("top", GateKind::And, ors));
    CutSetOptions options;
    options.max_order = 12;
    options.max_sets = 1000;
    EXPECT_THROW((void)minimal_cut_sets(ft, options), AnalysisError);
}

}  // namespace
}  // namespace asilkit::analysis
