#include "engine/engine.h"

#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "core/hash.h"
#include "ftree/builder.h"
#include "obs/trace.h"

namespace asilkit::engine {
namespace {

// Keeps module keys disjoint from whole-tree keys even when a tree is a
// single module (identical structural content, different granularity).
constexpr std::uint64_t kModuleKeySalt = 0x6D6F646B6579;  // "modkey"

[[nodiscard]] std::uint64_t double_bits(double d) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

[[nodiscard]] std::uint64_t module_cache_key(std::uint64_t subtree_hash, double hours) noexcept {
    return hash::combine(hash::combine(kModuleKeySalt, subtree_hash), double_bits(hours));
}

void fill_from_value(analysis::ProbabilityResult& result, const EvalValue& value) {
    result.failure_probability = value.failure_probability;
    result.bdd_nodes = value.bdd_nodes;
    result.bdd_total_nodes = value.bdd_total_nodes;
    result.variables = value.variables;
    result.modules = value.modules;
}

}  // namespace

EvalEngine::EvalEngine(const EngineOptions& options)
    : pool_(core::resolve_thread_count(options.threads)),
      cache_(options.cache_capacity),
      analyze_calls_(obs::Registry::global().counter("engine.analyze_calls")),
      tree_hits_(obs::Registry::global().counter("engine.tree_hits")),
      tree_misses_(obs::Registry::global().counter("engine.tree_misses")),
      module_hits_(obs::Registry::global().counter("engine.module_hits")),
      module_misses_(obs::Registry::global().counter("engine.module_misses")),
      lint_rejections_(obs::Registry::global().counter("engine.lint_rejections")),
      batch_groups_(obs::Registry::global().counter("engine.batch_groups")),
      batch_lanes_(obs::Registry::global().counter("engine.batch_lanes")),
      fragments_built_(obs::Registry::global().counter("ftree.fragment.built")),
      fragments_reused_(obs::Registry::global().counter("ftree.fragment.reused")),
      ftree_memo_hits_(obs::Registry::global().counter("ftree.memo_hits")) {
    base_.analyze_calls = analyze_calls_.value();
    base_.tree_hits = tree_hits_.value();
    base_.tree_misses = tree_misses_.value();
    base_.module_hits = module_hits_.value();
    base_.module_misses = module_misses_.value();
    base_.lint_rejections = lint_rejections_.value();
    base_.batch_groups = batch_groups_.value();
    base_.batch_lanes = batch_lanes_.value();
    base_.fragments_built = fragments_built_.value();
    base_.fragments_reused = fragments_reused_.value();
    base_.ftree_memo_hits = ftree_memo_hits_.value();
}

EvalEngine::Stats EvalEngine::stats() const {
    Stats s;
    s.cache = cache_.stats();
    s.analyze_calls = analyze_calls_.value() - base_.analyze_calls;
    s.tree_hits = tree_hits_.value() - base_.tree_hits;
    s.tree_misses = tree_misses_.value() - base_.tree_misses;
    s.module_hits = module_hits_.value() - base_.module_hits;
    s.module_misses = module_misses_.value() - base_.module_misses;
    s.lint_rejections = lint_rejections_.value() - base_.lint_rejections;
    s.batch_groups = batch_groups_.value() - base_.batch_groups;
    s.batch_lanes = batch_lanes_.value() - base_.batch_lanes;
    s.fragments_built = fragments_built_.value() - base_.fragments_built;
    s.fragments_reused = fragments_reused_.value() - base_.fragments_reused;
    s.ftree_memo_hits = ftree_memo_hits_.value() - base_.ftree_memo_hits;
    return s;
}

bdd::ModuleEvaluator& EvalEngine::evaluator_lane() {
    const std::thread::id id = std::this_thread::get_id();
    const core::MutexLock lock(evaluators_mutex_);
    std::unique_ptr<bdd::ModuleEvaluator>& slot = evaluators_[id];
    if (slot == nullptr) slot = std::make_unique<bdd::ModuleEvaluator>();
    return *slot;
}

ftree::IncrementalTreeBuilder& EvalEngine::ftree_lane() {
    const std::thread::id id = std::this_thread::get_id();
    const core::MutexLock lock(ftree_lanes_mutex_);
    std::unique_ptr<ftree::IncrementalTreeBuilder>& slot = ftree_lanes_[id];
    if (slot == nullptr) slot = std::make_unique<ftree::IncrementalTreeBuilder>();
    return *slot;
}

EvalEngine::PreparedModel EvalEngine::prepare(const ArchitectureModel& m,
                                              const analysis::ProbabilityOptions& options) {
    analyze_calls_.inc();

    ftree::FtBuildOptions build_options;
    build_options.approximate = options.approximate;
    build_options.include_location_events = options.include_location_events;
    build_options.rates = options.rates;

    PreparedModel p;
    // The engine evaluates the canonical form of the tree: gate children
    // sorted by a structural subtree hash.  AND/OR commute, so the
    // probability is unchanged — but candidate architectures that differ
    // only by a symmetry (mirror merges in redundant branches, sibling
    // chains of a sensor fan) collapse onto the SAME canonical tree and
    // therefore the same cache key, the same module decomposition, the
    // same BDD variable orders, and bit-identical arithmetic.  That is
    // what makes a cache hit safe to substitute for a fresh evaluation
    // at any thread count.  Fragments are dirty-tracked per thread,
    // repeat compositions served from the finished-tree memo and rate
    // variants of a memoized structure bound to its skeleton; the
    // assembled tree is bitwise identical to build_fault_tree.
    p.tree = ftree_lane().prepare(m, build_options);
    p.result.ft_stats = p.tree.stats;
    p.result.approximated_blocks = p.tree.approximated_blocks;
    p.result.cycles_cut = p.tree.cycles_cut;
    p.result.warnings = std::move(p.tree.warnings);
    p.tree_key = hash::combine(p.tree.structural_hash, double_bits(options.mission_hours));
    return p;
}

void EvalEngine::finish(PreparedModel& p, const analysis::ProbabilityOptions& options) {
    if (const auto cached = cache_.lookup(p.tree_key)) {
        tree_hits_.inc();
        fill_from_value(p.result, *cached);
        return;
    }
    tree_misses_.inc();

    // Whole-tree miss: evaluate module by module, bottom-up.  A
    // candidate move only perturbs the modules its basic events sit in;
    // every other module's key is unchanged from previously scored
    // candidates and replays from cache — module subtree hashes are
    // context-free, so the same region under a different tree yields
    // the same key and the same bitwise value.
    const ftree::ModuleDecomposition& dec = *p.tree.modules;
    bdd::ModuleEvaluator& evaluator = evaluator_lane();
    std::vector<double> module_prob(dec.size());
    std::vector<double> child_probs;
    EvalValue total;
    total.modules = dec.size();
    std::uint64_t local_hits = 0;
    std::uint64_t local_misses = 0;
    for (std::size_t i = 0; i < dec.size(); ++i) {
        const ftree::Module& mod = dec.modules[i];
        const std::uint64_t module_key =
            module_cache_key(p.tree.module_hashes[i], options.mission_hours);
        if (const auto cached = cache_.lookup(module_key)) {
            ++local_hits;
            module_prob[i] = cached->failure_probability;
            total.bdd_nodes += cached->bdd_nodes;
            total.bdd_total_nodes += cached->bdd_total_nodes;
            total.variables += cached->variables;
            continue;
        }
        ++local_misses;
        child_probs.clear();
        for (const std::uint32_t child : mod.child_modules) {
            child_probs.push_back(module_prob[child]);
        }
        const std::span<const double> lambdas[1] = {p.tree.lambdas};
        const std::span<const double> children[1] = {child_probs};
        bdd::ModuleEvalResult eval;
        evaluator.evaluate_module_lanes(*p.tree.canonical, dec, i, lambdas, children,
                                        options.mission_hours, {&eval, 1});
        module_prob[i] = eval.probability;
        total.bdd_nodes += eval.bdd_nodes;
        total.bdd_total_nodes += eval.bdd_total_nodes;
        total.variables += eval.variables;
        cache_.insert(module_key, EvalValue{eval.probability, eval.bdd_nodes,
                                            eval.bdd_total_nodes, eval.variables});
    }
    module_hits_.add(local_hits);
    module_misses_.add(local_misses);

    total.failure_probability = module_prob.back();
    cache_.insert(p.tree_key, total);
    fill_from_value(p.result, total);
}

void EvalEngine::finish_group(std::span<PreparedModel* const> lanes,
                              const analysis::ProbabilityOptions& options) {
    const obs::ObsSpan span("finish_group", "engine", "lanes",
                            static_cast<double>(lanes.size()));
    // Lanes share one canonical skeleton but carry distinct tree keys
    // (rates differ); whole-tree hits from earlier batches drop out.
    std::vector<PreparedModel*> live;
    live.reserve(lanes.size());
    for (PreparedModel* p : lanes) {
        if (const auto cached = cache_.lookup(p->tree_key)) {
            tree_hits_.inc();
            fill_from_value(p->result, *cached);
        } else {
            tree_misses_.inc();
            live.push_back(p);
        }
    }
    if (live.empty()) return;
    const std::size_t k = live.size();
    bdd::ModuleEvaluator& evaluator = evaluator_lane();

    // Module boundaries and order are purely structural, so the first
    // lane's skeleton and decomposition address every lane; the module
    // keys are per lane because module subtree hashes include the
    // lane's rates.
    const ftree::FaultTree& skeleton = *live.front()->tree.canonical;
    const ftree::ModuleDecomposition& dec = *live.front()->tree.modules;
    const std::size_t nmodules = dec.size();

    std::vector<std::vector<double>> module_prob(k, std::vector<double>(nmodules));
    std::vector<EvalValue> totals(k);
    for (EvalValue& t : totals) t.modules = nmodules;
    std::uint64_t local_hits = 0;
    std::uint64_t local_misses = 0;

    std::vector<std::uint64_t> keys(k);
    std::vector<std::size_t> eval_lanes;
    std::vector<std::pair<std::size_t, std::size_t>> dedup;  // (follower lane, leader lane)
    std::unordered_map<std::uint64_t, std::size_t> first_with_key;
    std::vector<std::span<const double>> lambda_spans;
    std::vector<std::vector<double>> child_probs;
    std::vector<std::span<const double>> child_spans;
    std::vector<bdd::ModuleEvalResult> evals;
    for (std::size_t i = 0; i < nmodules; ++i) {
        eval_lanes.clear();
        dedup.clear();
        first_with_key.clear();
        for (std::size_t j = 0; j < k; ++j) {
            keys[j] = module_cache_key(live[j]->tree.module_hashes[i], options.mission_hours);
            if (const auto cached = cache_.lookup(keys[j])) {
                ++local_hits;
                module_prob[j][i] = cached->failure_probability;
                totals[j].bdd_nodes += cached->bdd_nodes;
                totals[j].bdd_total_nodes += cached->bdd_total_nodes;
                totals[j].variables += cached->variables;
                continue;
            }
            // In-group dedup: two lanes whose rates agree on this module
            // share one evaluation (a hit in all but name).
            if (const auto it = first_with_key.find(keys[j]); it != first_with_key.end()) {
                ++local_hits;
                dedup.emplace_back(j, it->second);
                continue;
            }
            first_with_key.emplace(keys[j], j);
            ++local_misses;
            eval_lanes.push_back(j);
        }
        evals.assign(eval_lanes.size(), bdd::ModuleEvalResult{});
        if (!eval_lanes.empty()) {
            lambda_spans.clear();
            child_probs.resize(eval_lanes.size());
            child_spans.clear();
            for (std::size_t idx = 0; idx < eval_lanes.size(); ++idx) {
                const std::size_t j = eval_lanes[idx];
                lambda_spans.emplace_back(live[j]->tree.lambdas);
                child_probs[idx].clear();
                for (const std::uint32_t child : dec.modules[i].child_modules) {
                    child_probs[idx].push_back(module_prob[j][child]);
                }
                child_spans.emplace_back(child_probs[idx]);
            }
            // One compilation + one SoA sweep for every lane of the
            // module, each lane a lambda span over the shared skeleton.
            evaluator.evaluate_module_lanes(skeleton, dec, i, lambda_spans, child_spans,
                                            options.mission_hours, evals);
            for (std::size_t idx = 0; idx < eval_lanes.size(); ++idx) {
                const std::size_t j = eval_lanes[idx];
                const bdd::ModuleEvalResult& eval = evals[idx];
                module_prob[j][i] = eval.probability;
                totals[j].bdd_nodes += eval.bdd_nodes;
                totals[j].bdd_total_nodes += eval.bdd_total_nodes;
                totals[j].variables += eval.variables;
                cache_.insert(keys[j], EvalValue{eval.probability, eval.bdd_nodes,
                                                 eval.bdd_total_nodes, eval.variables});
            }
        }
        for (const auto& [follower, leader] : dedup) {
            // The leader is always an eval lane of this module (dedup
            // only forms behind a cache miss), so its slot is final.
            module_prob[follower][i] = module_prob[leader][i];
            for (std::size_t idx = 0; idx < eval_lanes.size(); ++idx) {
                if (eval_lanes[idx] == leader) {
                    totals[follower].bdd_nodes += evals[idx].bdd_nodes;
                    totals[follower].bdd_total_nodes += evals[idx].bdd_total_nodes;
                    totals[follower].variables += evals[idx].variables;
                    break;
                }
            }
        }
    }
    module_hits_.add(local_hits);
    module_misses_.add(local_misses);
    for (std::size_t j = 0; j < k; ++j) {
        totals[j].failure_probability = module_prob[j].back();
        cache_.insert(live[j]->tree_key, totals[j]);
        fill_from_value(live[j]->result, totals[j]);
    }
}

analysis::ProbabilityResult EvalEngine::analyze(const ArchitectureModel& m,
                                                const analysis::ProbabilityOptions& options) {
    const obs::ObsSpan span("analyze", "engine");
    static obs::Histogram& latency =
        obs::Registry::global().histogram("engine.analyze_ns", obs::latency_bounds_ns());
    const obs::ScopedTimer timer(latency);
    PreparedModel p = prepare(m, options);
    finish(p, options);
    return std::move(p.result);
}

std::vector<analysis::ProbabilityResult> EvalEngine::analyze_batch(
    std::span<const ArchitectureModel* const> models,
    const analysis::ProbabilityOptions& options) {
    const obs::ObsSpan span("analyze_batch", "engine", "batch_size",
                            static_cast<double>(models.size()));
    // Phase A (parallel): model -> canonical tree and keys.  All cache
    // traffic waits for phase C, so the grouping below is a pure
    // function of the batch — deterministic at any thread count.
    std::vector<std::optional<PreparedModel>> prepared(models.size());
    pool_.parallel_for(models.size(), [&](std::size_t i) {
        if (models[i] != nullptr) prepared[i] = prepare(*models[i], options);
    });

    // Phase B (serial, input order): dedup identical tree keys — the
    // follower replays its leader, a tree hit in all but name — then
    // group the remaining leaders by structure: rate variants of one
    // structure share its canonical skeleton, which each lane confirms
    // (the same skeleton object, or an index-identical one built by
    // another lane's builder — keys only shortlist).
    std::unordered_map<std::uint64_t, std::size_t> leader_of_key;
    std::vector<std::pair<std::size_t, std::size_t>> followers;  // (model, leader)
    std::vector<std::size_t> leaders;
    for (std::size_t i = 0; i < prepared.size(); ++i) {
        if (!prepared[i].has_value()) continue;
        if (const auto it = leader_of_key.find(prepared[i]->tree_key);
            it != leader_of_key.end()) {
            followers.emplace_back(i, it->second);
        } else {
            leader_of_key.emplace(prepared[i]->tree_key, i);
            leaders.push_back(i);
        }
    }
    std::vector<std::vector<std::size_t>> units;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> units_of_structure;
    for (const std::size_t i : leaders) {
        const ftree::FaultTree& skeleton = *prepared[i]->tree.canonical;
        std::vector<std::size_t>& candidates = units_of_structure[prepared[i]->tree.structure_key];
        bool placed = false;
        for (const std::size_t u : candidates) {
            const ftree::FaultTree& rep = *prepared[units[u].front()]->tree.canonical;
            if (&rep == &skeleton || ftree::identical_shape(rep, skeleton)) {
                units[u].push_back(i);
                placed = true;
                break;
            }
        }
        if (!placed) {
            candidates.push_back(units.size());
            units.push_back({i});
        }
    }
    for (const std::vector<std::size_t>& unit : units) {
        if (unit.size() > 1) {
            batch_groups_.inc();
            batch_lanes_.add(unit.size());
        }
    }
    // Phase C (parallel over units): singles run the ordinary tail,
    // multi-lane groups run the batched multi-lambda kernel.
    pool_.parallel_for(units.size(), [&](std::size_t u) {
        const std::vector<std::size_t>& unit = units[u];
        if (unit.size() == 1) {
            finish(*prepared[unit.front()], options);
            return;
        }
        std::vector<PreparedModel*> ptrs;
        ptrs.reserve(unit.size());
        for (const std::size_t i : unit) ptrs.push_back(&*prepared[i]);
        finish_group(ptrs, options);
    });

    for (const auto& [i, leader] : followers) {
        tree_hits_.inc();
        fill_from_value(prepared[i]->result, EvalValue{
                                                 prepared[leader]->result.failure_probability,
                                                 prepared[leader]->result.bdd_nodes,
                                                 prepared[leader]->result.bdd_total_nodes,
                                                 prepared[leader]->result.variables,
                                                 prepared[leader]->result.modules,
                                             });
    }

    std::vector<analysis::ProbabilityResult> results(models.size());
    for (std::size_t i = 0; i < prepared.size(); ++i) {
        if (prepared[i].has_value()) results[i] = std::move(prepared[i]->result);
    }
    return results;
}

}  // namespace asilkit::engine
