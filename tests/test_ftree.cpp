#include "ftree/fault_tree.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ftree/modules.h"
#include "helpers.h"

namespace asilkit::ftree {
namespace {

TEST(FaultTree, BasicEventsDedupByName) {
    FaultTree ft;
    const FtRef a = ft.add_basic_event("e", 1e-6);
    const FtRef b = ft.add_basic_event("e", 1e-6);
    EXPECT_EQ(a, b);
    EXPECT_EQ(ft.basic_events().size(), 1u);
}

TEST(FaultTree, ConflictingLambdaRejected) {
    FaultTree ft;
    ft.add_basic_event("e", 1e-6);
    EXPECT_THROW((void)ft.add_basic_event("e", 2e-6), AnalysisError);
}

TEST(FaultTree, ConflictingLambdaRejectedThroughEveryOverload) {
    // add_basic_event looks the name up before storing anything; a
    // conflicting rate must still be refused whichever overload names
    // the event, and the refused call must leave the tree unchanged.
    FaultTree ft;
    const std::string name = "res:a_resource_name_longer_than_sso";
    const FtRef e = ft.add_basic_event(name, 1e-6);
    EXPECT_THROW((void)ft.add_basic_event(name, 2e-6), AnalysisError);
    EXPECT_THROW((void)ft.add_basic_event(std::string_view(name), 2e-6), AnalysisError);
    EXPECT_THROW((void)ft.add_basic_event(std::string(name), 2e-6), AnalysisError);
    EXPECT_THROW((void)ft.add_basic_event(name.c_str(), 2e-6), AnalysisError);
    EXPECT_EQ(ft.basic_events().size(), 1u);
    EXPECT_EQ(ft.add_basic_event(std::string(name), 1e-6), e);
    EXPECT_EQ(ft.add_basic_event(std::string_view(name), 1e-6), e);
    EXPECT_EQ(ft.basic_events().size(), 1u);
    EXPECT_EQ(ft.basic_event(e).name, name);
}

TEST(FaultTree, ReserveKeepsEventsAndLookups) {
    FaultTree ft;
    const FtRef a = ft.add_basic_event("a", 1e-6);
    ft.reserve(100, 10);  // rebuilds the name index around existing events
    EXPECT_EQ(ft.find_basic_event("a"), a);
    for (int i = 0; i < 100; ++i) (void)ft.add_basic_event(std::string("e").append(std::to_string(i)), 1e-6);
    ft.reserve(4, 1);  // never shrinks
    EXPECT_EQ(ft.basic_events().size(), 101u);
    EXPECT_EQ(ft.find_basic_event("a"), a);
    for (int i = 0; i < 100; ++i) {
        const FtRef r = ft.find_basic_event(std::string("e").append(std::to_string(i)));
        EXPECT_EQ(ft.basic_event(r).name, std::string("e").append(std::to_string(i)));
    }
}

TEST(FaultTree, GateConstruction) {
    FaultTree ft;
    const FtRef e1 = ft.add_basic_event("e1", 1e-6);
    const FtRef e2 = ft.add_basic_event("e2", 1e-6);
    const FtRef g = ft.add_gate("g", GateKind::Or, {e1});
    ft.add_child(g, e2);
    EXPECT_EQ(ft.gate(g).children.size(), 2u);
    EXPECT_EQ(ft.gate(g).kind, GateKind::Or);
    EXPECT_EQ(ft.gate(g).name, "g");
}

TEST(FaultTree, AddChildRequiresGate) {
    FaultTree ft;
    const FtRef e = ft.add_basic_event("e", 1e-6);
    EXPECT_THROW((void)ft.add_child(e, e), AnalysisError);
}

TEST(FaultTree, TopEventRequired) {
    FaultTree ft;
    EXPECT_FALSE(ft.has_top());
    EXPECT_THROW((void)ft.top(), AnalysisError);
    const FtRef e = ft.add_basic_event("e", 1e-6);
    ft.set_top(e);
    EXPECT_TRUE(ft.has_top());
    EXPECT_EQ(ft.top(), e);
}

TEST(FaultTree, AccessorsValidate) {
    FaultTree ft;
    EXPECT_THROW((void)ft.basic_event(0), AnalysisError);
    EXPECT_THROW((void)ft.gate(0), AnalysisError);
    const FtRef e = ft.add_basic_event("e", 1e-6);
    EXPECT_THROW((void)ft.gate(e), AnalysisError);  // wrong-kind FtRef
    const FtRef g = ft.add_gate("g", GateKind::And, {e});
    EXPECT_THROW((void)ft.basic_event(g), AnalysisError);
}

TEST(FaultTree, FindBasicEvent) {
    FaultTree ft;
    const FtRef e = ft.add_basic_event("needle", 1e-6);
    EXPECT_EQ(ft.find_basic_event("needle"), e);
    EXPECT_TRUE(ft.has_basic_event("needle"));
    EXPECT_FALSE(ft.has_basic_event("hay"));
    EXPECT_THROW((void)ft.find_basic_event("hay"), AnalysisError);
}

TEST(FaultTree, StatsOnSimpleTree) {
    FaultTree ft;
    const FtRef e1 = ft.add_basic_event("e1", 1e-6);
    const FtRef e2 = ft.add_basic_event("e2", 1e-6);
    const FtRef g = ft.add_gate("g", GateKind::Or, {e1, e2});
    ft.set_top(g);
    const FaultTreeStats s = ft.stats();
    EXPECT_EQ(s.basic_events, 2u);
    EXPECT_EQ(s.gates, 1u);
    EXPECT_EQ(s.dag_nodes, 3u);
    EXPECT_EQ(s.expanded_nodes, 3u);
    EXPECT_EQ(s.paths, 2u);
    EXPECT_EQ(s.depth, 2u);
}

TEST(FaultTree, StatsCountSharedSubtreeOncePerDag) {
    FaultTree ft;
    const FtRef e = ft.add_basic_event("shared", 1e-6);
    const FtRef g1 = ft.add_gate("g1", GateKind::Or, {e});
    const FtRef g2 = ft.add_gate("g2", GateKind::Or, {e});
    const FtRef top = ft.add_gate("top", GateKind::And, {g1, g2});
    ft.set_top(top);
    const FaultTreeStats s = ft.stats();
    EXPECT_EQ(s.dag_nodes, 4u);       // shared event counted once
    EXPECT_EQ(s.expanded_nodes, 5u);  // but appears twice in the tree view
    EXPECT_EQ(s.paths, 2u);
}

TEST(FaultTree, StatsEmptyWithoutTop) {
    const FaultTree ft;
    EXPECT_EQ(ft.stats().dag_nodes, 0u);
}

TEST(FaultTree, StatsIgnoreUnreachableNodes) {
    FaultTree ft;
    const FtRef e = ft.add_basic_event("e", 1e-6);
    ft.add_basic_event("unreachable", 1e-6);
    const FtRef g = ft.add_gate("g", GateKind::Or, {e});
    ft.add_gate("dead", GateKind::And, {e});
    ft.set_top(g);
    EXPECT_EQ(ft.stats().basic_events, 1u);
    EXPECT_EQ(ft.stats().gates, 1u);
}

TEST(FaultTree, PathsGrowExponentiallyWithAndChains) {
    // Chain of k 2-way gates: paths double per level (Section V blow-up).
    FaultTree ft;
    FtRef current = ft.add_basic_event("seed", 1e-6);
    for (int k = 0; k < 10; ++k) {
        const FtRef left = ft.add_gate(std::string("l").append(std::to_string(k)), GateKind::Or, {current});
        const FtRef right = ft.add_gate(std::string("r").append(std::to_string(k)), GateKind::Or, {current});
        current = ft.add_gate(std::string("j").append(std::to_string(k)), GateKind::And, {left, right});
    }
    ft.set_top(current);
    EXPECT_EQ(ft.stats().paths, 1024u);
}

TEST(FaultTree, ReachableBasicEvents) {
    FaultTree ft;
    const FtRef e1 = ft.add_basic_event("e1", 1e-6);
    const FtRef e2 = ft.add_basic_event("e2", 1e-6);
    ft.add_basic_event("e3", 1e-6);
    const FtRef g = ft.add_gate("g", GateKind::Or, {e1, e2, e1});
    const auto reachable = ft.reachable_basic_events(g);
    EXPECT_EQ(reachable, (std::vector<std::uint32_t>{0, 1}));
}

TEST(FaultTree, GateKindNames) {
    EXPECT_EQ(to_string(GateKind::Or), "OR");
    EXPECT_EQ(to_string(GateKind::And), "AND");
}

// ---- structural hash & canonical form: degenerate shapes -------------------

TEST(StructuralHashDegenerate, SingleBasicEventTop) {
    // A tree that is one basic event: the hash must abstract the name
    // away but keep the rate.
    FaultTree a;
    a.set_top(a.add_basic_event("only", 3e-7));
    FaultTree b;
    b.set_top(b.add_basic_event("renamed", 3e-7));
    EXPECT_EQ(a.structural_hash(), b.structural_hash());

    FaultTree c;
    c.set_top(c.add_basic_event("only", 4e-7));
    EXPECT_NE(a.structural_hash(), c.structural_hash());
}

TEST(StructuralHashDegenerate, GateWithOneChild) {
    // OR(e) and AND(e) denote the same boolean function but are distinct
    // structures — and both differ from the bare event.
    FaultTree plain;
    plain.set_top(plain.add_basic_event("e", 1e-7));

    FaultTree unary_or;
    unary_or.set_top(
        unary_or.add_gate("g", GateKind::Or, {unary_or.add_basic_event("e", 1e-7)}));
    FaultTree unary_and;
    unary_and.set_top(
        unary_and.add_gate("g", GateKind::And, {unary_and.add_basic_event("e", 1e-7)}));

    EXPECT_NE(unary_or.structural_hash(), unary_and.structural_hash());
    EXPECT_NE(plain.structural_hash(), unary_or.structural_hash());
    // Canonicalising a unary gate is a no-op structurally.
    EXPECT_EQ(canonical_form(unary_or).structural_hash(), unary_or.structural_hash());
}

TEST(StructuralHashDegenerate, SharedEventUnderAndVsOr) {
    auto shared_pair = [](GateKind kind) {
        FaultTree t;
        const FtRef e = t.add_basic_event("e", 1e-7);
        t.set_top(t.add_gate("top", kind, {e, e}));
        return t;
    };
    const FaultTree under_and = shared_pair(GateKind::And);
    const FaultTree under_or = shared_pair(GateKind::Or);
    EXPECT_NE(under_and.structural_hash(), under_or.structural_hash());

    // The sharing itself is visible under both kinds: AND(e, e) != AND(e, f).
    FaultTree distinct;
    const FtRef d1 = distinct.add_basic_event("e", 1e-7);
    const FtRef d2 = distinct.add_basic_event("f", 1e-7);
    distinct.set_top(distinct.add_gate("top", GateKind::And, {d1, d2}));
    EXPECT_NE(under_and.structural_hash(), distinct.structural_hash());
    EXPECT_NE(canonical_form(under_and).structural_hash(),
              canonical_form(distinct).structural_hash());
}

TEST(StructuralHashDegenerate, StableAcrossNodeIdRenumbering) {
    // The same logical tree built in two different insertion orders gets
    // different node indices; first-occurrence numbering must erase that.
    FaultTree forward;
    {
        const FtRef a = forward.add_basic_event("a", 1e-7);
        const FtRef b = forward.add_basic_event("b", 2e-7);
        const FtRef c = forward.add_basic_event("c", 3e-7);
        const FtRef left = forward.add_gate("left", GateKind::Or, {a, b});
        forward.set_top(forward.add_gate("top", GateKind::And, {left, c}));
    }
    FaultTree backward;
    {
        const FtRef c = backward.add_basic_event("c", 3e-7);
        const FtRef b = backward.add_basic_event("b", 2e-7);
        const FtRef a = backward.add_basic_event("a", 1e-7);
        backward.add_gate("decoy", GateKind::Or, {c});  // shifts gate indices
        const FtRef left = backward.add_gate("left", GateKind::Or, {a, b});
        backward.set_top(backward.add_gate("top", GateKind::And, {left, c}));
    }
    EXPECT_EQ(forward.structural_hash(), backward.structural_hash());
    EXPECT_EQ(canonical_form(forward).structural_hash(),
              canonical_form(backward).structural_hash());
}

// ---- modularization --------------------------------------------------------

TEST(Modules, IndependentBranchesAreModules) {
    // AND(OR(a, b), OR(c, d)): both ORs share nothing, so the
    // decomposition is {OR(a,b), OR(c,d), top}.
    FaultTree ft;
    const FtRef a = ft.add_basic_event("a", 1e-7);
    const FtRef b = ft.add_basic_event("b", 2e-7);
    const FtRef c = ft.add_basic_event("c", 3e-7);
    const FtRef d = ft.add_basic_event("d", 4e-7);
    const FtRef left = ft.add_gate("left", GateKind::Or, {a, b});
    const FtRef right = ft.add_gate("right", GateKind::Or, {c, d});
    const FtRef top = ft.add_gate("top", GateKind::And, {left, right});
    ft.set_top(top);

    const ModuleDecomposition dec = find_modules(ft);
    ASSERT_EQ(dec.size(), 3u);
    EXPECT_EQ(dec.top().root, top);
    EXPECT_EQ(dec.top().child_modules.size(), 2u);
    EXPECT_EQ(dec.top().basic_events, 0u);  // both children are pseudo leaves
    ASSERT_TRUE(dec.module_of(left.index).has_value());
    ASSERT_TRUE(dec.module_of(right.index).has_value());
    EXPECT_EQ(dec.modules[*dec.module_of(left.index)].basic_events, 2u);
}

TEST(Modules, SharedEventKeepsRegionTogether) {
    // AND(OR(a, s), OR(b, s)): the shared event s glues both branches to
    // the top region — the top is the only module.
    FaultTree ft;
    const FtRef a = ft.add_basic_event("a", 1e-7);
    const FtRef b = ft.add_basic_event("b", 2e-7);
    const FtRef s = ft.add_basic_event("s", 3e-7);
    const FtRef left = ft.add_gate("left", GateKind::Or, {a, s});
    const FtRef right = ft.add_gate("right", GateKind::Or, {b, s});
    ft.set_top(ft.add_gate("top", GateKind::And, {left, right}));

    const ModuleDecomposition dec = find_modules(ft);
    ASSERT_EQ(dec.size(), 1u);
    EXPECT_EQ(dec.top().basic_events, 3u);
    EXPECT_TRUE(dec.top().child_modules.empty());
}

TEST(Modules, NestedModulesComposeBottomUp) {
    // OR(AND(OR(a, b), c), d): three nested modules, children listed
    // before parents.
    FaultTree ft;
    const FtRef a = ft.add_basic_event("a", 1e-7);
    const FtRef b = ft.add_basic_event("b", 2e-7);
    const FtRef c = ft.add_basic_event("c", 3e-7);
    const FtRef d = ft.add_basic_event("d", 4e-7);
    const FtRef inner = ft.add_gate("inner", GateKind::Or, {a, b});
    const FtRef mid = ft.add_gate("mid", GateKind::And, {inner, c});
    const FtRef top = ft.add_gate("top", GateKind::Or, {mid, d});
    ft.set_top(top);

    const ModuleDecomposition dec = find_modules(ft);
    ASSERT_EQ(dec.size(), 3u);
    const Module& inner_m = dec.modules[dec.module_of(inner.index).value()];
    const Module& mid_m = dec.modules[dec.module_of(mid.index).value()];
    EXPECT_TRUE(inner_m.child_modules.empty());
    ASSERT_EQ(mid_m.child_modules.size(), 1u);
    EXPECT_EQ(mid_m.child_modules.front(), dec.module_of(inner.index).value());
    ASSERT_EQ(dec.top().child_modules.size(), 1u);
    EXPECT_EQ(dec.top().child_modules.front(), dec.module_of(mid.index).value());
    // Children-before-parents order.
    EXPECT_LT(dec.module_of(inner.index).value(), dec.module_of(mid.index).value());
}

TEST(Modules, SharedGateIsStillAModule) {
    // g = OR(a, b) referenced twice by the top: g's subtree is reachable
    // only through g, so g is a module whose pseudo-variable occurs
    // twice in the top region.
    FaultTree ft;
    const FtRef a = ft.add_basic_event("a", 1e-7);
    const FtRef b = ft.add_basic_event("b", 2e-7);
    const FtRef g = ft.add_gate("g", GateKind::Or, {a, b});
    ft.set_top(ft.add_gate("top", GateKind::And, {g, g}));

    const ModuleDecomposition dec = find_modules(ft);
    ASSERT_EQ(dec.size(), 2u);
    ASSERT_EQ(dec.top().child_modules.size(), 1u);  // one pseudo leaf, used twice
    EXPECT_EQ(dec.top().child_modules.front(), dec.module_of(g.index).value());
}

TEST(Modules, SingleBasicEventTop) {
    FaultTree ft;
    ft.set_top(ft.add_basic_event("only", 5e-7));
    const ModuleDecomposition dec = find_modules(ft);
    ASSERT_EQ(dec.size(), 1u);
    EXPECT_EQ(dec.top().basic_events, 1u);
    EXPECT_TRUE(dec.top().child_modules.empty());
}

TEST(Modules, SubtreeHashIsContextFree) {
    // The same module subtree embedded in two different trees must carry
    // the same subtree_hash — that is what lets the engine replay it
    // across candidate architectures.
    auto sub = [](FaultTree& t) {
        const FtRef a = t.add_basic_event("sub_a", 1e-7);
        const FtRef b = t.add_basic_event("sub_b", 2e-7);
        return t.add_gate("sub", GateKind::Or, {a, b});
    };
    FaultTree host1;
    {
        const FtRef s = sub(host1);
        const FtRef c = host1.add_basic_event("c", 3e-7);
        host1.set_top(host1.add_gate("top", GateKind::And, {s, c}));
    }
    FaultTree host2;
    {
        const FtRef x = host2.add_basic_event("x", 9e-7);
        const FtRef y = host2.add_basic_event("y", 8e-7);
        const FtRef other = host2.add_gate("other", GateKind::And, {x, y});
        const FtRef s = sub(host2);
        host2.set_top(host2.add_gate("top", GateKind::Or, {other, s}));
    }
    const ModuleDecomposition d1 = find_modules(host1);
    const ModuleDecomposition d2 = find_modules(host2);
    std::uint64_t h1 = 0;
    std::uint64_t h2 = 0;
    for (const Module& mod : d1.modules) {
        if (host1.gate(mod.root).name == "sub") h1 = mod.subtree_hash;
    }
    for (const Module& mod : d2.modules) {
        if (host2.gate(mod.root).name == "sub") h2 = mod.subtree_hash;
    }
    ASSERT_NE(h1, 0u);
    EXPECT_EQ(h1, h2);
    // And the hash sees the content: the top modules of the two hosts
    // are different trees.
    EXPECT_NE(d1.top().subtree_hash, d2.top().subtree_hash);
}

TEST(CanonicalForm, ConstructionOrderOfTiedSharedEventsDoesNotChangeHashes) {
    // Regression: two DISTINCT shared events with the same lambda and
    // the same reference count tie in the bottom-up ordering hashes;
    // before the context refinement, the stable sort fell back to
    // construction order, so isomorphic trees built in different arena
    // orders canonicalised differently.  The entanglement below (a is
    // shared by or1/and_c, b by or1/and_d) is only resolvable through
    // each event's parent-gate context.
    auto build = [](bool swapped) {
        FaultTree t;
        FtRef a{};
        FtRef b{};
        if (swapped) {
            b = t.add_basic_event("b", 1e-7);
            a = t.add_basic_event("a", 1e-7);
        } else {
            a = t.add_basic_event("a", 1e-7);
            b = t.add_basic_event("b", 1e-7);
        }
        const FtRef c = t.add_basic_event("c", 2e-7);
        const FtRef d = t.add_basic_event("d", 3e-7);
        const FtRef or1 = swapped ? t.add_gate("or1", GateKind::Or, {b, a})
                                  : t.add_gate("or1", GateKind::Or, {a, b});
        const FtRef and_c = t.add_gate("and_c", GateKind::And, {a, c});
        const FtRef and_d = t.add_gate("and_d", GateKind::And, {b, d});
        t.set_top(t.add_gate("top", GateKind::Or, {or1, and_c, and_d}));
        return t;
    };
    const FaultTree c1 = canonical_form(build(false));
    const FaultTree c2 = canonical_form(build(true));
    EXPECT_EQ(c1.structural_hash(), c2.structural_hash());
    EXPECT_EQ(c1.shape_hash(), c2.shape_hash());
    EXPECT_TRUE(identical_shape(c1, c2));
}

TEST(CanonicalForm, FullyTiedChildrenKeepTheirOriginalOrder) {
    // Children that tie on the whole ordering key — equal-rate events
    // referenced once from the same gate — keep their original relative
    // order.  Sizes past std::sort's insertion-sort cutoff exercise the
    // partitioning path, where only the position key can keep it.
    for (const std::size_t n : {3u, 17u, 64u}) {
        FaultTree ft;
        std::vector<FtRef> events;
        for (std::size_t i = 0; i < n; ++i) {
            events.push_back(ft.add_basic_event(std::string("e").append(std::to_string(i)), 1e-6));
        }
        // A child order unrelated to event numbering: a stride permutation.
        std::vector<FtRef> children;
        for (std::size_t i = 0; i < n; ++i) children.push_back(events[(i * 7 + 3) % n]);
        ft.set_top(ft.add_gate("top", GateKind::Or, children));

        for (const bool move_source : {false, true}) {
            FaultTree source = ft;
            const CanonicalTree canon =
                move_source ? canonicalize(std::move(source)) : canonicalize(source);
            const Gate& top = canon.tree.gate(canon.tree.top());
            ASSERT_EQ(top.children.size(), n);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(canon.tree.basic_event(top.children[i]).name,
                          ft.basic_event(children[i]).name)
                    << "n=" << n << " slot " << i;
            }
        }
    }
}

TEST(CanonicalForm, MovedSourceMatchesCopiedSource) {
    // canonicalize(FaultTree&&) moves names and child lists out of the
    // source; the result must equal the copying edition bit for bit, and
    // the stats it folds up must equal stats() of either tree.
    for (std::uint32_t seed = 0; seed < 40; ++seed) {
        const FaultTree ft = testing::random_fault_tree(seed, 3 + seed % 11, 2 + seed % 7);
        const CanonicalTree copied = canonicalize(ft);
        FaultTree source = ft;
        const CanonicalTree moved = canonicalize(std::move(source));
        ASSERT_EQ(copied.tree.basic_events().size(), moved.tree.basic_events().size());
        for (std::size_t i = 0; i < copied.tree.basic_events().size(); ++i) {
            EXPECT_EQ(copied.tree.basic_events()[i].name, moved.tree.basic_events()[i].name);
            EXPECT_EQ(copied.tree.basic_events()[i].lambda, moved.tree.basic_events()[i].lambda);
        }
        ASSERT_EQ(copied.tree.gates().size(), moved.tree.gates().size());
        for (std::size_t g = 0; g < copied.tree.gates().size(); ++g) {
            EXPECT_EQ(copied.tree.gates()[g].name, moved.tree.gates()[g].name);
            EXPECT_EQ(copied.tree.gates()[g].kind, moved.tree.gates()[g].kind);
            EXPECT_EQ(copied.tree.gates()[g].children, moved.tree.gates()[g].children);
        }
        EXPECT_TRUE(copied.tree.top() == moved.tree.top());
        EXPECT_EQ(copied.structural_hash, moved.structural_hash);
        EXPECT_EQ(copied.shape_hash, moved.shape_hash);
        EXPECT_EQ(copied.stats, ft.stats()) << "seed " << seed;
        EXPECT_EQ(moved.stats, copied.tree.stats()) << "seed " << seed;
        // Every event name of the canonical tree resolves through its index.
        for (const BasicEvent& e : moved.tree.basic_events()) {
            EXPECT_EQ(moved.tree.basic_event(moved.tree.find_basic_event(e.name)).name, e.name);
        }
    }
}

TEST(CanonicalForm, BasicEventTopCarriesLeafStats) {
    FaultTree ft;
    ft.set_top(ft.add_basic_event("only", 1e-6));
    const CanonicalTree canon = canonicalize(FaultTree(ft));
    EXPECT_EQ(canon.stats, ft.stats());
    EXPECT_EQ(canon.tree.basic_event(canon.tree.top()).name, "only");
    EXPECT_EQ(canon.structural_hash, ft.structural_hash());
}

}  // namespace
}  // namespace asilkit::ftree
