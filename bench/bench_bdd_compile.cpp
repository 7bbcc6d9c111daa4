// BDD compilation costs of the DSE loop (see docs/bdd.md).
//
// The DSE loop recompiles near-identical fault trees thousands of times.
// This bench measures:
//   * whole-tree compilation on a cold manager per candidate, on a
//     rotating-variant regime (the steepest-descent access pattern: the
//     same shapes come back with perturbed rates);
//   * module evaluation — every module of the canonical tree through a
//     fresh manager per module vs one reused bdd::ModuleEvaluator
//     workspace (the engine's per-thread path);
//   * the batched multi-lambda probability kernel — k rate lanes in one
//     SoA sweep vs k sequential probability() calls, k = 1/8/64.
#include "bench_util.h"

#include <chrono>
#include <cstdio>
#include <vector>

#include "bdd/bdd.h"
#include "bdd/from_fault_tree.h"
#include "ftree/builder.h"
#include "ftree/modules.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

ftree::FaultTree tree_with_blocks(std::size_t blocks) {
    ArchitectureModel m = scenarios::chain_n_stages(blocks);
    for (std::size_t i = 1; i <= blocks; ++i) {
        transform::expand(m, m.find_app_node(std::string("f").append(std::to_string(i))));
    }
    return ftree::build_fault_tree(m).tree;
}

/// The same tree with every rate scaled: a rate-only candidate variant
/// (indices preserved, diagram unchanged).
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

std::vector<ftree::FaultTree> rotating_variants(std::size_t blocks, std::size_t count) {
    const ftree::FaultTree base = tree_with_blocks(blocks);
    std::vector<ftree::FaultTree> variants;
    for (std::size_t v = 0; v < count; ++v) {
        variants.push_back(scale_rates(base, 1.0 + 0.05 * static_cast<double>(v)));
    }
    return variants;
}

/// A canonical tree with its module decomposition: what the engine
/// evaluates per candidate.
struct ModularTree {
    ftree::FaultTree tree;
    ftree::ModuleDecomposition dec;
};

std::vector<ModularTree> modular_variants(std::size_t blocks, std::size_t count) {
    std::vector<ModularTree> out;
    for (const ftree::FaultTree& ft : rotating_variants(blocks, count)) {
        ftree::FaultTree canon = ftree::canonical_form(ft);
        ftree::ModuleDecomposition dec = ftree::find_modules(canon);
        out.push_back({std::move(canon), std::move(dec)});
    }
    return out;
}

/// Evaluates every module bottom-up through `eval` (a fresh manager per
/// module when null); returns the top probability.
double evaluate_modules(const ModularTree& t, bdd::ModuleEvaluator* eval) {
    std::vector<double> prob(t.dec.size());
    std::vector<double> children;
    for (std::size_t i = 0; i < t.dec.size(); ++i) {
        children.clear();
        for (const std::uint32_t c : t.dec.modules[i].child_modules) children.push_back(prob[c]);
        prob[i] = (eval != nullptr ? eval->evaluate_module(t.tree, t.dec, i, children, 1.0)
                                   : bdd::evaluate_module(t.tree, t.dec, i, children, 1.0))
                      .probability;
    }
    return prob.back();
}

std::vector<bdd::ProbVector> rate_lanes(const ftree::FaultTree& ft,
                                        const std::vector<std::uint32_t>& event_of_var,
                                        std::size_t k) {
    std::vector<bdd::ProbVector> lanes;
    for (std::size_t j = 0; j < k; ++j) {
        const double factor = 1.0 + 0.01 * static_cast<double>(j);
        bdd::ProbVector lane;
        lane.reserve(event_of_var.size());
        for (const std::uint32_t event : event_of_var) {
            lane.push_back(bdd::basic_event_probability(ft.basic_event(event).lambda * factor, 1.0));
        }
        lanes.push_back(std::move(lane));
    }
    return lanes;
}

void print_report() {
    using clock = std::chrono::steady_clock;
    const auto ns_since = [](clock::time_point start) {
        return static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start).count());
    };

    bench::heading("module evaluation: fresh managers vs reused workspace (6 blocks)");
    const std::vector<ModularTree> variants = modular_variants(6, 8);
    constexpr int kRounds = 64;
    const auto fresh_start = clock::now();
    for (int r = 0; r < kRounds; ++r) {
        benchmark::DoNotOptimize(evaluate_modules(variants[r % variants.size()], nullptr));
    }
    const double fresh_ns = ns_since(fresh_start) / kRounds;

    bdd::ModuleEvaluator workspace;
    const auto reused_start = clock::now();
    for (int r = 0; r < kRounds; ++r) {
        benchmark::DoNotOptimize(evaluate_modules(variants[r % variants.size()], &workspace));
    }
    const double reused_ns = ns_since(reused_start) / kRounds;
    bench::row("fresh manager per module ns/tree", fresh_ns);
    bench::row("reused workspace ns/tree", reused_ns);
    bench::row("speedup", fresh_ns / reused_ns);
    bench::note("the workspace resets one manager per module and reuses the ordering");
    bench::note("and compile scratch; results are bitwise identical to fresh managers.");

    bench::heading("batched multi-lambda kernel vs sequential probability (k = 64)");
    const ftree::FaultTree ft = tree_with_blocks(8);
    const bdd::CompiledFaultTree compiled = bdd::compile_fault_tree(ft);
    const std::vector<bdd::ProbVector> lanes = rate_lanes(ft, compiled.event_of_var, 64);
    const auto seq_start = clock::now();
    for (int rep = 0; rep < 32; ++rep) {
        for (const bdd::ProbVector& lane : lanes) {
            benchmark::DoNotOptimize(compiled.manager.probability(compiled.root, lane));
        }
    }
    const double seq_ns = ns_since(seq_start) / 32.0;
    const auto batch_start = clock::now();
    for (int rep = 0; rep < 32; ++rep) {
        benchmark::DoNotOptimize(compiled.manager.probability_batch(compiled.root, lanes));
    }
    const double batch_ns = ns_since(batch_start) / 32.0;
    bench::row("sequential 64 lanes ns", seq_ns);
    bench::row("batched 64 lanes ns", batch_ns);
    bench::row("speedup", seq_ns / batch_ns);
    bench::note("one reachable-subgraph gather + one SoA sweep amortises the per-call");
    bench::note("traversal; per-lane doubles are bitwise identical to probability().");
}

void BM_RotatingVariants_ColdCompile(benchmark::State& state) {
    const std::vector<ftree::FaultTree> variants =
        rotating_variants(static_cast<std::size_t>(state.range(0)), 8);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bdd::compile_fault_tree(variants[i++ % variants.size()]));
    }
    state.SetLabel(std::to_string(state.range(0)) + " blocks");
}
BENCHMARK(BM_RotatingVariants_ColdCompile)->Arg(4)->Arg(6);

void BM_ModuleEvaluation(benchmark::State& state) {
    // Arg 0: fresh manager per module; arg 1: one reused workspace.
    const std::vector<ModularTree> variants = modular_variants(6, 8);
    bdd::ModuleEvaluator workspace;
    bdd::ModuleEvaluator* const eval = state.range(0) != 0 ? &workspace : nullptr;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(evaluate_modules(variants[i++ % variants.size()], eval));
    }
    state.counters["modules"] = static_cast<double>(variants.front().dec.size());
    state.SetLabel(eval != nullptr ? "reused workspace" : "fresh managers");
}
BENCHMARK(BM_ModuleEvaluation)->Arg(0)->Arg(1);

void BM_ProbabilityBatch(benchmark::State& state) {
    const ftree::FaultTree ft = tree_with_blocks(8);
    const bdd::CompiledFaultTree compiled = bdd::compile_fault_tree(ft);
    const auto k = static_cast<std::size_t>(state.range(0));
    const std::vector<bdd::ProbVector> lanes = rate_lanes(ft, compiled.event_of_var, k);
    for (auto _ : state) {
        benchmark::DoNotOptimize(compiled.manager.probability_batch(compiled.root, lanes));
    }
    state.counters["batch_lanes"] = static_cast<double>(k);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k));
    state.SetLabel(std::string("k=").append(std::to_string(k)));
}
BENCHMARK(BM_ProbabilityBatch)->Arg(1)->Arg(8)->Arg(64);

void BM_ProbabilitySequential(benchmark::State& state) {
    const ftree::FaultTree ft = tree_with_blocks(8);
    const bdd::CompiledFaultTree compiled = bdd::compile_fault_tree(ft);
    const auto k = static_cast<std::size_t>(state.range(0));
    const std::vector<bdd::ProbVector> lanes = rate_lanes(ft, compiled.event_of_var, k);
    for (auto _ : state) {
        for (const bdd::ProbVector& lane : lanes) {
            benchmark::DoNotOptimize(compiled.manager.probability(compiled.root, lane));
        }
    }
    state.counters["batch_lanes"] = static_cast<double>(k);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k));
    state.SetLabel(std::string("k=").append(std::to_string(k)));
}
BENCHMARK(BM_ProbabilitySequential)->Arg(1)->Arg(8)->Arg(64);

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
