// Module-granular candidate evaluation under rotating rate variants.
//
// Workload: chain_n_stages(3) with every stage expanded, evaluated
// without location events — location events are *global* shared basic
// events (one per physical position, referenced by every co-located
// component), which glue the whole tree into a single module and thereby
// define away the decomposition (see docs/engine.md "Modularization").
// Without them the canonical tree splits into ~15 independent modules.
//
// The steady-state loop rotates through *perturbed workload variants*:
// every round overrides one resource's data-sheet failure rate with a
// fresh value.  That models the realistic iterative-DSE regime — the
// architect nudges a parameter and re-runs the search.  Whole-tree keys
// never repeat across rounds (every canonical tree embeds the new rate),
// so all cross-round reuse comes from the module keys: the engine replays
// every module the perturbed resource does not touch and recompiles only
// the dirty spine.
//
// Counters exported per timing (consumed by tools/bench_to_json):
//   cache_hit_rate   combined tree+module hit rate during the timing
//   evals            engine evaluations (analyze calls)
#include "bench_util.h"

#include "explore/mapping_search.h"
#include "scenarios/micro.h"
#include "transform/expand.h"

using namespace asilkit;

namespace {

/// Fully expanded 3-stage chain with the actuator resource's failure
/// rate overridden; a new `round` yields a new variant (and so a new
/// set of whole-tree cache keys) while every module not containing that
/// resource's event is unchanged.  The actuator is the most downstream
/// component, and the chain's fault tree nests downstream-outward — so
/// the perturbation dirties only the outermost module and the rest of
/// the decomposition replays.
ArchitectureModel workload_variant(std::uint64_t round) {
    ArchitectureModel m = scenarios::chain_n_stages(3);
    for (const char* n : {"f1", "f2", "f3"}) transform::expand(m, m.find_app_node(n));
    const NodeId act = m.find_app_node("act");
    const ResourceId r = m.mapped_resources(act).front();
    m.resources().node(r).lambda_override = 1e-9 * (1.0 + 1e-3 * static_cast<double>(round + 1));
    return m;
}

/// Rounds share this counter so every search in the process — whichever
/// benchmark or report section issues it — sees a variant no earlier
/// round used, keeping whole-tree keys cold across rounds by design.
std::uint64_t next_round() {
    static std::uint64_t round = 0;
    return round++;
}

explore::MappingSearchOptions search_options() {
    explore::MappingSearchOptions options;
    options.probability.include_location_events = false;
    options.engine = {.threads = 1, .cache_capacity = 1 << 14};
    return options;
}

struct RotatingTotals {
    std::uint64_t evals = 0;
    std::uint64_t tree_hits = 0;
    std::uint64_t module_hits = 0;
    std::uint64_t module_misses = 0;
    double probability_after = 0.0;

    [[nodiscard]] double combined_hit_rate() const noexcept {
        const std::uint64_t hits = tree_hits + module_hits;
        const std::uint64_t total = evals + module_hits + module_misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
};

RotatingTotals run_round(engine::EvalEngine& engine, const explore::MappingSearchOptions& options,
                         RotatingTotals totals) {
    ArchitectureModel m = workload_variant(next_round());
    const auto r = explore::search_mapping(m, options, engine);
    totals.evals += r.evaluations;
    totals.tree_hits += r.eval_cache_hits;
    totals.module_hits += r.module_cache_hits;
    totals.module_misses += r.module_cache_misses;
    totals.probability_after = r.probability_after;
    return totals;
}

void print_report() {
    bench::heading("Modularized incremental evaluation (chain x3 expanded, rotating variants)");

    constexpr int kRounds = 4;
    engine::EvalEngine modular(search_options().engine);
    RotatingTotals on;
    for (int i = 0; i < kRounds; ++i) on = run_round(modular, search_options(), on);

    ArchitectureModel probe = workload_variant(next_round());
    const auto canon =
        engine::EvalEngine(search_options().engine).analyze(probe, search_options().probability);
    bench::row("modules per canonical tree", static_cast<double>(canon.modules));
    bench::row("evaluations per rotating round", static_cast<double>(on.evals / kRounds));
    std::printf("  %-46s %.1f%%  (%llu tree hits, +%llu module hits, %llu module misses)\n",
                "modularized cache, rotating variants", 100.0 * on.combined_hit_rate(),
                static_cast<unsigned long long>(on.tree_hits),
                static_cast<unsigned long long>(on.module_hits),
                static_cast<unsigned long long>(on.module_misses));
}

// Per-module keys replay every region the perturbation does not touch,
// so each round only recompiles the dirty spine.
void BM_RotatingVariants_ModularizedCache(benchmark::State& state) {
    engine::EvalEngine engine(search_options().engine);
    RotatingTotals totals;
    for (auto _ : state) {
        totals = run_round(engine, search_options(), totals);
        benchmark::DoNotOptimize(totals);
    }
    state.counters["cache_hit_rate"] = totals.combined_hit_rate();
    state.counters["evals"] = static_cast<double>(totals.evals);
}
BENCHMARK(BM_RotatingVariants_ModularizedCache)->Unit(benchmark::kMillisecond);

}  // namespace

ASILKIT_BENCH_MAIN(print_report)
