#include "workloads.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <optional>
#include <random>
#include <stdexcept>
#include <utility>

#include "analysis/probability.h"
#include "analysis/sim_engine.h"
#include "core/hash.h"
#include "cost/cost_analysis.h"
#include "engine/engine.h"
#include "explore/driver.h"
#include "explore/mapping_search.h"
#include "ftree/builder.h"
#include "ftree/fault_tree.h"
#include "io/model_json.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "scenarios/synthetic.h"

namespace e2ebench {

using namespace asilkit;

void Tally::fail(std::string what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(what));
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
    return hash::combine(hash::combine(hash::mix64(seed), a), b);
}

/// Engine results and the engine-free reference differ only by the
/// evaluation order of the same doubles.
constexpr double kRelTol = 1e-12;

bool close(double a, double b) {
    return std::abs(a - b) <= kRelTol * std::max(std::abs(a), std::abs(b));
}

std::string describe(const char* what, double got, double want) {
    char text[160];
    std::snprintf(text, sizeof text, "%s: got %.17g, reference %.17g", what, got, want);
    return text;
}

/// Ascending cost with strictly falling probability: sorted and
/// non-dominated.
bool front_ok(const std::vector<explore::TradeoffPoint>& front) {
    if (front.empty()) return false;
    for (std::size_t i = 1; i < front.size(); ++i) {
        if (!(front[i].cost > front[i - 1].cost) ||
            !(front[i].failure_probability < front[i - 1].failure_probability)) {
            return false;
        }
    }
    return true;
}

bool front_has(const std::vector<explore::TradeoffPoint>& front, double cost, double p) {
    for (const explore::TradeoffPoint& q : front) {
        if (close(q.cost, cost) && close(q.failure_probability, p)) return true;
    }
    return false;
}

/// One search_mapping call and what its reference check needs.
struct SearchRun {
    ArchitectureModel before;
    ArchitectureModel after;
    cost::CostMetric metric = cost::CostMetric::exponential_metric1();
    explore::MappingSearchResult result;
    bool ran = false;
};

/// Runs one search, timing it into search_ms; its CPU share feeds
/// engine.cpu_util.
void run_search(SearchRun& s, std::size_t capacity, engine::EvalEngine& engine, Tally& tally) {
    explore::MappingSearchOptions options;
    options.metric = s.metric;
    options.max_nodes_per_resource = capacity;
    options.engine.threads = engine.threads();
    s.after = s.before;
    ++tally.attempted;
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    try {
        s.result = explore::search_mapping(s.after, options, engine);
        s.ran = true;
    } catch (const std::exception& e) {
        tally.fail(std::string("search_mapping threw: ") + e.what());
    }
    const double wall = seconds_since(start);
    tally.add("search_cpu_s", process_cpu_seconds() - cpu0);
    tally.add("search_wall_s", wall);
    tally.sample("search_ms", 1e3 * wall);
}

/// Times ftree::canonical_form on the model's tree (ftree.canonical_us).
void probe_canonical(const ArchitectureModel& m, Tally& tally) {
    const ftree::FaultTree tree = ftree::build_fault_tree(m).tree;
    const auto start = Clock::now();
    const ftree::FaultTree canonical = ftree::canonical_form(tree);
    tally.sample("canonical_us", 1e6 * seconds_since(start));
    if (canonical.gates().size() != tree.gates().size()) {
        tally.fail("canonical_form changed the gate count");
    }
}

/// Recomputes the search's objectives with cost::total_cost and the
/// engine-free analysis::analyze_failure_probability.
void check_search(const SearchRun& s, Tally& tally, bool probes) {
    if (!s.ran) return;
    const explore::MappingSearchResult& r = s.result;
    const double c0 = cost::total_cost(s.before, s.metric);
    const double c1 = cost::total_cost(s.after, s.metric);
    const double p0 = analysis::analyze_failure_probability(s.before).failure_probability;
    const double p1 = analysis::analyze_failure_probability(s.after).failure_probability;
    std::string problem;
    if (!close(r.cost_before, c0)) problem = describe("cost_before", r.cost_before, c0);
    else if (!close(r.cost_after, c1)) problem = describe("cost_after", r.cost_after, c1);
    else if (!close(r.probability_before, p0))
        problem = describe("probability_before", r.probability_before, p0);
    else if (!close(r.probability_after, p1))
        problem = describe("probability_after", r.probability_after, p1);
    else if (c1 > c0) problem = describe("cost rose", c1, c0);
    else if (p1 > p0) problem = describe("probability rose", p1, p0);
    else if (!front_ok(r.front)) problem = "front not sorted or dominated";
    else if (!front_has(r.front, c1, p1)) problem = "returned model missing from the front";
    if (!problem.empty()) tally.fail("search: " + problem);
    if (probes) {
        probe_canonical(s.before, tally);
        probe_canonical(s.after, tally);
    }
}

engine::EngineOptions engine_options(unsigned threads) {
    engine::EngineOptions options;
    options.threads = threads;
    return options;
}

// ---- dse-sweep --------------------------------------------------------------

/// The paper's trade-off loop on one shared engine.
class DseSweep final : public Workload {
public:
    DseSweep(std::uint64_t seed, const std::string& work_dir) : seed_(seed) {
        const std::array<std::pair<const char*, ArchitectureModel>, 3> models{{
            {"ecotwin_lateral", scenarios::ecotwin_lateral_control()},
            {"ecotwin_longitudinal", scenarios::ecotwin_longitudinal_control()},
            {"fig3", scenarios::fig3_camera_gps_fusion()},
        }};
        for (const auto& [name, model] : models) {
            paths_.push_back(work_dir + "/" + name + "-" + std::to_string(::getpid()) + ".json");
            io::save_model(model, paths_.back());
        }
    }
    ~DseSweep() override {
        for (const std::string& p : paths_) std::remove(p.c_str());
    }
    DseSweep(const DseSweep&) = delete;
    DseSweep& operator=(const DseSweep&) = delete;

    bool measures_scaling() const override { return true; }

    void setup(std::uint64_t round, unsigned threads, Tally& tally) override {
        round_ = round;
        threads_ = threads;
        for (const std::string& p : paths_) {
            const auto start = Clock::now();
            loaded_.push_back(io::load_model(p));
            tally.sample("io_load_ms", 1e3 * seconds_since(start));
        }
        engine_ = std::make_unique<engine::EvalEngine>(engine_options(threads_));
    }

    void measure(Tally& tally) override {
        const std::vector<std::string> chain = scenarios::ecotwin_decision_nodes();
        const std::array<DecompositionStrategy, 3> strategies{
            DecompositionStrategy::BB, DecompositionStrategy::AC, DecompositionStrategy::RND};
        const std::array<cost::CostMetric, 3> metrics{cost::CostMetric::exponential_metric1(),
                                                      cost::CostMetric::exponential_metric2(),
                                                      cost::CostMetric::linear_metric3()};
        for (std::size_t s = 0; s < strategies.size(); ++s) {
            for (std::size_t k = 0; k < metrics.size(); ++k) {
                Exploration x;
                x.options.strategy = strategies[s];
                x.options.metric = metrics[k];
                x.options.engine.threads = threads_;
                x.options.rng_seed = static_cast<unsigned>(derive(seed_, round_, 3 * s + k));
                ++tally.attempted;
                const auto start = Clock::now();
                try {
                    x.result = explore::run_exploration(loaded_[0], chain, x.options, *engine_);
                    x.ran = true;
                } catch (const std::exception& e) {
                    tally.fail(std::string("run_exploration threw: ") + e.what());
                }
                tally.sample("explore_ms", 1e3 * seconds_since(start));
                explorations_.push_back(std::move(x));
            }
        }
        for (const Exploration& x : explorations_) {
            if (!x.ran) continue;
            for (std::size_t capacity : kCapacities) {
                search(x.result.final_model, x.options.metric, capacity, tally);
            }
        }
        for (std::size_t i = 1; i < loaded_.size(); ++i) {
            for (std::size_t capacity : kCapacities) {
                search(loaded_[i], cost::CostMetric::exponential_metric1(), capacity, tally);
            }
        }
    }

    void check(Tally& tally, bool probes) override {
        for (const Exploration& x : explorations_) check_exploration(x, tally);
        for (const SearchRun& s : searches_) check_search(s, tally, probes);
    }

    void teardown() override {
        engine_.reset();
        loaded_.clear();
        explorations_.clear();
        searches_.clear();
    }

private:
    static constexpr std::array<std::size_t, 3> kCapacities{2, 3, 4};

    struct Exploration {
        explore::ExplorationOptions options;
        explore::ExplorationResult result;
        bool ran = false;
    };

    void search(const ArchitectureModel& m, const cost::CostMetric& metric, std::size_t capacity,
                Tally& tally) {
        SearchRun s;
        s.before = m;
        s.metric = metric;
        run_search(s, capacity, *engine_, tally);
        searches_.push_back(std::move(s));
    }

    void check_exploration(const Exploration& x, Tally& tally) const {
        if (!x.ran) return;
        const explore::TradeoffCurve& curve = x.result.curve;
        const auto reference = [&](const ArchitectureModel& m) {
            return std::pair{cost::total_cost(m, x.options.metric),
                             analysis::analyze_failure_probability(m, x.options.probability)
                                 .failure_probability};
        };
        const auto [c0, p0] = reference(loaded_[0]);
        const auto [c1, p1] = reference(x.result.final_model);
        const auto on_curve = [&](const explore::TradeoffPoint& f) {
            return std::any_of(curve.points.begin(), curve.points.end(), [&](const auto& q) {
                return q.cost == f.cost && q.failure_probability == f.failure_probability;
            });
        };
        std::string problem;
        if (curve.points.empty()) problem = "empty curve";
        else if (!close(curve.front().cost, c0))
            problem = describe("initial cost", curve.front().cost, c0);
        else if (!close(curve.front().failure_probability, p0))
            problem = describe("initial probability", curve.front().failure_probability, p0);
        else if (!close(curve.back().cost, c1))
            problem = describe("final cost", curve.back().cost, c1);
        else if (!close(curve.back().failure_probability, p1))
            problem = describe("final probability", curve.back().failure_probability, p1);
        else if (!front_ok(x.result.front)) problem = "front not sorted or dominated";
        else if (!std::all_of(x.result.front.begin(), x.result.front.end(), on_curve))
            problem = "front point not on the curve";
        if (!problem.empty()) tally.fail("exploration " + curve.name + ": " + problem);
    }

    std::uint64_t seed_;
    unsigned threads_ = 1;
    std::uint64_t round_ = 0;
    std::vector<std::string> paths_;
    std::vector<ArchitectureModel> loaded_;  ///< lateral, longitudinal, Fig. 3
    std::unique_ptr<engine::EvalEngine> engine_;
    std::vector<Exploration> explorations_;
    std::vector<SearchRun> searches_;
};

// ---- search-cold ------------------------------------------------------------

/// Independent searches on fresh single-thread engines: every candidate
/// is new, every cache is cold.
class SearchCold final : public Workload {
public:
    explicit SearchCold(std::uint64_t seed) : seed_(seed) {}

    void setup(std::uint64_t round, unsigned threads, Tally& /*tally*/) override {
        for (std::size_t i = 0; i < kSearchesPerRound; ++i) {
            scenarios::SyntheticOptions options;
            options.seed = static_cast<std::uint32_t>(derive(seed_, round, i));
            if (i + 1 == kSearchesPerRound) {  // the one ~41-node model
                options.sensors = 4;
                options.layers = 4;
                options.width = 4;
            }  // else the generator's default ~25-node model
            SearchRun s;
            s.before = scenarios::synthetic_model(options);
            searches_.push_back(std::move(s));
            engines_.push_back(std::make_unique<engine::EvalEngine>(engine_options(threads)));
        }
    }

    void measure(Tally& tally) override {
        for (std::size_t i = 0; i < searches_.size(); ++i) {
            run_search(searches_[i], kCapacity, *engines_[i], tally);
            engines_[i].reset();  // one cold engine alive at a time, as in separate CLI runs
        }
    }

    void check(Tally& tally, bool probes) override {
        for (const SearchRun& s : searches_) check_search(s, tally, probes);
    }

    void teardown() override {
        engines_.clear();
        searches_.clear();
    }

private:
    static constexpr std::size_t kSearchesPerRound = 16;
    static constexpr std::size_t kCapacity = 4;

    std::uint64_t seed_;
    std::vector<std::unique_ptr<engine::EvalEngine>> engines_;
    std::vector<SearchRun> searches_;
};

// ---- rate-sweep -------------------------------------------------------------

/// A rate-uncertainty study: lognormal per-resource rate perturbations
/// of three fixed architectures, scored in shape-identical batches.
class RateSweep final : public Workload {
public:
    explicit RateSweep(std::uint64_t seed) : seed_(seed) {}

    void setup(std::uint64_t round, unsigned threads, Tally& /*tally*/) override {
        // Expanded EcoTwin: the decision chain expanded, nothing merged.
        explore::ExplorationOptions expand_only;
        expand_only.run_connect_reduce = false;
        expand_only.run_mapping_optimization = false;
        expand_only.engine.threads = 1;
        const std::array<ArchitectureModel, 3> archs{
            explore::run_exploration(scenarios::ecotwin_lateral_control(),
                                     scenarios::ecotwin_decision_nodes(), expand_only)
                .final_model,
            scenarios::ecotwin_longitudinal_control(), scenarios::fig3_camera_gps_fusion()};
        std::mt19937_64 rng(derive(seed_, round));
        std::lognormal_distribution<double> factor(0.0, kSigma);
        for (std::size_t b = 0; b < kBatchesPerArch; ++b) {
            for (const ArchitectureModel& arch : archs) {
                const std::vector<ResourceId> used = arch.used_resources();
                Batch batch;
                batch.variants.assign(kLanes, arch);
                for (ArchitectureModel& v : batch.variants) {
                    for (ResourceId r : used) {
                        v.resources().node(r).lambda_override = arch.resource_lambda(r) * factor(rng);
                    }
                }
                batches_.push_back(std::move(batch));
            }
        }
        engine_ = std::make_unique<engine::EvalEngine>(engine_options(threads));
    }

    void measure(Tally& tally) override {
        for (Batch& batch : batches_) {
            std::vector<const ArchitectureModel*> models;
            for (const ArchitectureModel& v : batch.variants) models.push_back(&v);
            tally.attempted += models.size();
            const auto start = Clock::now();
            try {
                batch.results = engine_->analyze_batch(models, {});
            } catch (const std::exception& e) {
                for (std::size_t i = 0; i < models.size(); ++i) {
                    tally.fail(std::string("analyze_batch threw: ") + e.what());
                }
            }
            tally.add("batch_s", seconds_since(start));
            tally.add("variants", static_cast<double>(models.size()));
        }
    }

    void check(Tally& tally, bool /*probes*/) override {
        for (const Batch& batch : batches_) {
            if (batch.results.size() != batch.variants.size()) continue;  // counted as thrown
            const auto start = Clock::now();
            for (std::size_t i = 0; i < batch.variants.size(); ++i) {
                const double want =
                    analysis::analyze_failure_probability(batch.variants[i]).failure_probability;
                const double got = batch.results[i].failure_probability;
                if (!close(got, want)) tally.fail(describe("batched variant probability", got, want));
            }
            tally.add("reference_s", seconds_since(start));
        }
    }

    void teardown() override {
        engine_.reset();
        batches_.clear();
    }

private:
    static constexpr std::size_t kBatchesPerArch = 2;
    static constexpr std::size_t kLanes = 64;
    static constexpr double kSigma = 0.5;  ///< lognormal spread of each resource rate

    struct Batch {
        std::vector<ArchitectureModel> variants;
        std::vector<analysis::ProbabilityResult> results;
    };

    std::uint64_t seed_;
    std::unique_ptr<engine::EvalEngine> engine_;
    std::vector<Batch> batches_;
};

// ---- simulate ---------------------------------------------------------------

/// The exact BDD probability of `tree`, computed in a child process
/// under a CPU, address-space and wall-clock budget; nullopt when the
/// BDD does not compile within it (random DAGs of 10^4+ nodes do not).
std::optional<double> exact_within_budget(const ftree::FaultTree& tree) {
    int fds[2];
    if (::pipe(fds) != 0) return std::nullopt;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return std::nullopt;
    }
    if (pid == 0) {
        ::close(fds[0]);
        const rlimit cpu{1, 1};
        const rlimit memory{rlim_t{1} << 29, rlim_t{1} << 29};
        ::setrlimit(RLIMIT_CPU, &cpu);
        ::setrlimit(RLIMIT_AS, &memory);
        ::alarm(5);
        try {
            const double p = analysis::fault_tree_probability(tree);
            const bool sent = ::write(fds[1], &p, sizeof p) == static_cast<ssize_t>(sizeof p);
            ::_exit(sent ? 0 : 1);
        } catch (...) {
            ::_exit(1);
        }
    }
    ::close(fds[1]);
    double p = 0.0;
    ssize_t got = 0;
    do {
        got = ::read(fds[0], &p, sizeof p);
    } while (got < 0 && errno == EINTR);
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got == static_cast<ssize_t>(sizeof p) && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        return p;
    }
    return std::nullopt;
}

/// Monte Carlo estimation: plain bit-parallel sampling on large random
/// DAGs and cut-set importance sampling on EcoTwin at unscaled rates.
class Simulate final : public Workload {
public:
    explicit Simulate(std::uint64_t seed) : seed_(seed) {}

    void setup(std::uint64_t round, unsigned threads, Tally& tally) override {
        round_ = round;
        threads_ = threads;
        for (std::size_t i = 0; i < kSizes.size(); ++i) {
            scenarios::SyntheticTreeOptions options;
            options.seed = static_cast<std::uint32_t>(derive(seed_, i));
            options.events = kSizes[i] - kSizes[i] / 3;
            options.gates = kSizes[i] / 3 - 1;  // + the top gate = kSizes[i] nodes
            trees_.push_back(std::make_unique<ftree::FaultTree>(
                scenarios::synthetic_fault_tree(options)));
        }
        trees_.push_back(std::make_unique<ftree::FaultTree>(
            ftree::build_fault_tree(scenarios::ecotwin_lateral_control()).tree));
        const auto start = Clock::now();
        for (const auto& tree : trees_) {
            engines_.push_back(std::make_unique<analysis::SimEngine>(*tree));
        }
        tally.sample("sim_plan_ms", 1e3 * seconds_since(start));
    }

    void measure(Tally& tally) override {
        for (std::size_t i = 0; i < kSizes.size(); ++i) {
            analysis::SimulationOptions options;
            options.trials = kPlainTrials[i];
            options.seed = derive(seed_, round_, i);
            options.threads = threads_;
            const auto r = run(*engines_[i], options, tally);
            if (!r) continue;
            tally.add("plain_trials", static_cast<double>(r->trials));
            tally.add("plain_s", last_wall_);
            tally.add("trial_nodes", static_cast<double>(r->trials) *
                                         static_cast<double>(trees_[i]->basic_events().size() +
                                                             trees_[i]->gates().size()));
            plain_[i].failures += r->failures;
            plain_[i].trials += r->trials;
            ++plain_[i].runs;
        }
        for (std::size_t j = 0; j < kIsRuns; ++j) {
            analysis::SimulationOptions options;
            options.trials = kIsTrials;
            options.seed = derive(seed_, round_, kSizes.size() + j);
            options.threads = threads_;
            options.importance_sampling = true;
            const auto r = run(*engines_.back(), options, tally);
            if (!r) continue;
            tally.add("is_trials", static_cast<double>(r->trials));
            tally.add("is_s", last_wall_);
            tally.add("is_ess", r->ess);
            is_.estimate += r->estimate;
            is_.variance += r->std_error * r->std_error;
            // The IS interval's continuity slack beyond 1.96 sigma.
            is_.slack += std::max(0.0, 0.5 * (r->ci95_high - r->ci95_low) - 1.96 * r->std_error);
            ++is_.runs;
        }
    }

    /// The references, once per run (every round has the same trees):
    /// each synthetic tree's exact BDD value where the BDD compiles, else
    /// the scalar Naive oracle at a smaller trial count; EcoTwin's exact
    /// BDD value for importance sampling.
    void check(Tally& /*tally*/, bool /*probes*/) override {
        if (!references_.empty()) return;
        for (std::size_t i = 0; i < kSizes.size(); ++i) {
            Reference ref;
            if (const std::optional<double> exact = exact_within_budget(*trees_[i])) {
                ref.value = *exact;
            } else {
                analysis::SimulationOptions naive;
                naive.engine = analysis::SimEngineKind::Naive;
                naive.trials = kNaiveTrials;
                naive.seed = derive(seed_, ~std::uint64_t{0}, i);
                const analysis::SimulationResult r = engines_[i]->run(naive);
                ref = {r.estimate, r.std_error * r.std_error, "Naive oracle"};
            }
            references_.push_back(ref);
        }
        is_exact_ = analysis::fault_tree_probability(*trees_.back());
    }

    void teardown() override {
        engines_.clear();
        trees_.clear();
    }

    /// Pooled over the run, so that many rounds do not add false alarms:
    /// each tree's plain estimate within 4 sigma of its reference (sigma
    /// includes the oracle's own error), and the EcoTwin IS mean within
    /// 4 sigma plus the interval's continuity slack of the exact value.
    void finish(Tally& tally) override {
        for (std::size_t i = 0; i < references_.size(); ++i) {
            const Pool& pool = plain_[i];
            if (pool.trials == 0) continue;
            const double n = static_cast<double>(pool.trials);
            const double estimate = static_cast<double>(pool.failures) / n;
            const double sigma2 = estimate * (1.0 - estimate) / n + references_[i].sigma2;
            if (std::abs(estimate - references_[i].value) > 4.0 * std::sqrt(sigma2)) {
                for (std::size_t k = 0; k < pool.runs; ++k) {
                    tally.fail(describe(references_[i].oracle, estimate, references_[i].value));
                }
            }
        }
        if (is_.runs > 0) {
            const double k = static_cast<double>(is_.runs);
            const double mean = is_.estimate / k;
            const double half_width = 4.0 * std::sqrt(is_.variance) / k + is_.slack / k;
            if (std::abs(mean - is_exact_) > half_width) {
                for (std::size_t j = 0; j < is_.runs; ++j) {
                    tally.fail(describe("IS interval misses exact BDD", mean, is_exact_));
                }
            }
        }
    }

private:
    static constexpr std::array<std::size_t, 3> kSizes{10000, 30000, 100000};
    static constexpr std::array<std::uint64_t, 3> kPlainTrials{16384, 8192, 4096};
    static constexpr std::uint64_t kNaiveTrials = 1024;
    static constexpr std::size_t kIsRuns = 4;
    static constexpr std::uint64_t kIsTrials = std::uint64_t{1} << 18;

    struct Pool {
        std::uint64_t failures = 0;
        std::uint64_t trials = 0;
        std::size_t runs = 0;
    };
    struct Reference {
        double value = 0.0;
        double sigma2 = 0.0;  ///< the reference's own variance (0 when exact)
        const char* oracle = "exact BDD";
    };
    struct IsPool {
        double estimate = 0.0;
        double variance = 0.0;
        double slack = 0.0;
        std::size_t runs = 0;
    };

    std::optional<analysis::SimulationResult> run(const analysis::SimEngine& engine,
                                                  const analysis::SimulationOptions& options,
                                                  Tally& tally) {
        ++tally.attempted;
        const auto start = Clock::now();
        std::optional<analysis::SimulationResult> result;
        try {
            result = engine.run(options);
        } catch (const std::exception& e) {
            tally.fail(std::string("SimEngine::run threw: ") + e.what());
        }
        last_wall_ = seconds_since(start);
        if (result && (result->trials != options.trials || !(result->estimate >= 0.0) ||
                       !(result->estimate <= 1.0))) {
            tally.fail("simulation returned an invalid estimate");
            result.reset();
        }
        return result;
    }

    std::uint64_t seed_;
    std::uint64_t round_ = 0;
    unsigned threads_ = 1;
    double last_wall_ = 0.0;
    std::vector<std::unique_ptr<ftree::FaultTree>> trees_;  ///< synthetic ..., EcoTwin
    std::vector<std::unique_ptr<analysis::SimEngine>> engines_;
    std::array<Pool, kSizes.size()> plain_{};
    IsPool is_;
    std::vector<Reference> references_;
    double is_exact_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        const std::string& work_dir) {
    if (name == "dse-sweep") return std::make_unique<DseSweep>(seed, work_dir);
    if (name == "search-cold") return std::make_unique<SearchCold>(seed);
    if (name == "rate-sweep") return std::make_unique<RateSweep>(seed);
    if (name == "simulate") return std::make_unique<Simulate>(seed);
    return nullptr;
}

}  // namespace e2ebench
