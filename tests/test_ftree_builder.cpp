#include "ftree/builder.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "scenarios/fig3.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

namespace asilkit::ftree {
namespace {

TEST(Builder, RequiresActuator) {
    ArchitectureModel m("empty");
    EXPECT_THROW((void)build_fault_tree(m), AnalysisError);
}

TEST(Builder, ChainProducesOneEventPerResourcePlusLocations) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const FtBuildResult r = build_fault_tree(m);
    const FaultTreeStats s = r.tree.stats();
    // 5 resources + 2 locations = 7 basic events; 5 node gates.
    EXPECT_EQ(s.basic_events, 7u);
    EXPECT_EQ(s.gates, 5u);
    EXPECT_TRUE(r.warnings.empty());
    EXPECT_EQ(r.cycles_cut, 0u);
}

TEST(Builder, LocationEventsCanBeDisabled) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    FtBuildOptions options;
    options.include_location_events = false;
    const FtBuildResult r = build_fault_tree(m, options);
    EXPECT_EQ(r.tree.stats().basic_events, 5u);
    for (const BasicEvent& e : r.tree.basic_events()) {
        EXPECT_EQ(e.name.rfind(kLocationEventPrefix, 0), std::string::npos) << e.name;
    }
}

TEST(Builder, EventLambdasFollowTable1) {
    const ArchitectureModel m = scenarios::chain_1in_1out();  // all ASIL D
    const FtBuildResult r = build_fault_tree(m);
    EXPECT_DOUBLE_EQ(r.tree.basic_event(r.tree.find_basic_event("res:n_hw")).lambda, 1e-9);
    EXPECT_DOUBLE_EQ(r.tree.basic_event(r.tree.find_basic_event("loc:front")).lambda, 1e-11);
}

TEST(Builder, SharedResourceYieldsOneSharedEvent) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    // Map both communication nodes onto one bus.
    const ResourceId bus = m.add_resource({"bus", ResourceKind::Communication, Asil::D, {}, {}});
    m.place_resource(bus, m.find_location("front"));
    m.remap_node(m.find_app_node("c_in"), {bus});
    m.remap_node(m.find_app_node("c_out"), {bus});
    const FtBuildResult r = build_fault_tree(m);
    // The two gates reference one "res:bus" event.
    std::size_t bus_events = 0;
    for (const BasicEvent& e : r.tree.basic_events()) {
        if (e.name == "res:bus") ++bus_events;
    }
    EXPECT_EQ(bus_events, 1u);
}

TEST(Builder, MergerUsesAndGate) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const FtBuildResult r = build_fault_tree(m);
    bool found_and = false;
    for (const Gate& g : r.tree.gates()) {
        if (g.kind == GateKind::And) {
            found_and = true;
            EXPECT_EQ(g.name, "and:merge_dfus");
            EXPECT_EQ(g.children.size(), 2u);
        }
    }
    EXPECT_TRUE(found_and);
}

TEST(Builder, NonMergerUsesOrGates) {
    const ArchitectureModel m = scenarios::chain_1in_1out();
    const FtBuildResult r = build_fault_tree(m);
    for (const Gate& g : r.tree.gates()) {
        EXPECT_EQ(g.kind, GateKind::Or) << g.name;
    }
}

TEST(Builder, CyclesAreCut) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    // Feedback loop: n -> c_fb -> n (automotive control loops are DCGs).
    const NodeId n = m.find_app_node("n");
    const NodeId fb = m.add_node_with_dedicated_resource(
        {"c_fb", NodeKind::Communication, AsilTag{Asil::D}, {}}, m.find_location("center"));
    m.connect_app(n, fb);
    m.connect_app(fb, n);
    const FtBuildResult r = build_fault_tree(m);
    EXPECT_GE(r.cycles_cut, 1u);
    EXPECT_TRUE(r.tree.has_top());
}

TEST(Builder, UnmappedNodeProducesWarningNotEvent) {
    ArchitectureModel m = scenarios::chain_1in_1out();
    const NodeId n = m.find_app_node("n");
    m.remap_node(n, {});
    const FtBuildResult r = build_fault_tree(m);
    ASSERT_FALSE(r.warnings.empty());
    EXPECT_NE(r.warnings.front().find("no mapped resource"), std::string::npos);
    EXPECT_FALSE(r.tree.has_basic_event("res:n_hw"));
}

TEST(Builder, MultipleActuatorsGetSystemTop) {
    const ArchitectureModel m = scenarios::chain_1in_2out();
    const FtBuildResult r = build_fault_tree(m);
    const Gate& top = r.tree.gate(r.tree.top());
    EXPECT_EQ(top.name, "system_failure");
    EXPECT_EQ(top.children.size(), 2u);
}

// ---- approximation ----------------------------------------------------------

TEST(Approximation, ShrinksTheTree) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    const FtBuildResult exact = build_fault_tree(m);
    FtBuildOptions options;
    options.approximate = true;
    const FtBuildResult approx = build_fault_tree(m, options);
    EXPECT_EQ(approx.approximated_blocks, 1u);
    EXPECT_LT(approx.tree.stats().dag_nodes, exact.tree.stats().dag_nodes);
    EXPECT_LT(approx.tree.stats().paths, exact.tree.stats().paths);
}

TEST(Approximation, RemovesBranchEvents) {
    const ArchitectureModel m = scenarios::fig3_camera_gps_fusion();
    FtBuildOptions options;
    options.approximate = true;
    const FtBuildResult approx = build_fault_tree(m, options);
    // Branch hardware disappears from the tree ...
    EXPECT_FALSE(approx.tree.has_basic_event("res:ecu1"));
    EXPECT_FALSE(approx.tree.has_basic_event("res:ecu2"));
    // ... while series hardware and the splitters' upstreams stay.
    EXPECT_TRUE(approx.tree.has_basic_event("res:camera_hw"));
    EXPECT_TRUE(approx.tree.has_basic_event("res:gps_hw"));
    EXPECT_TRUE(approx.tree.has_basic_event("res:steering_hw"));
}

TEST(Approximation, RefusedWhenBranchesShareBaseEvents) {
    const ArchitectureModel m = scenarios::fig3_with_shared_ecu_ccf();
    FtBuildOptions options;
    options.approximate = true;
    const FtBuildResult r = build_fault_tree(m, options);
    EXPECT_EQ(r.approximated_blocks, 0u);
    ASSERT_FALSE(r.warnings.empty());
    EXPECT_NE(r.warnings.front().find("common cause"), std::string::npos);
    // Fallback to the exact expansion: the shared ECU is in the tree.
    EXPECT_TRUE(r.tree.has_basic_event("res:ecu1"));
}

TEST(Approximation, HalvesPathsPerDecomposition) {
    // Expanding k nodes of a chain multiplies the path count by ~2^k;
    // the approximation collapses it back.
    ArchitectureModel m = scenarios::chain_n_stages(4);
    for (int i = 1; i <= 4; ++i) {
        transform::expand(m, m.find_app_node(std::string("f").append(std::to_string(i))));
    }
    const FtBuildResult exact = build_fault_tree(m);
    FtBuildOptions options;
    options.approximate = true;
    const FtBuildResult approx = build_fault_tree(m, options);
    EXPECT_EQ(approx.approximated_blocks, 4u);
    EXPECT_GE(exact.tree.stats().paths, 16u * approx.tree.stats().paths / 2u);
}

}  // namespace
}  // namespace asilkit::ftree
