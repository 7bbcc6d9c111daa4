// The four workloads of the end-to-end benchmark (README.md gives the
// reason for each).  A workload is run in rounds: every round builds a
// fixed set of inputs from (seed, round), runs them, and checks every
// output against an independent reference.  main.cpp owns the clock,
// the tracer and the metrics registry; a workload only drives the
// library's public functions and records what it saw into a Tally.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

/// What a run accumulates: raw samples (for order statistics), sums
/// (for rates and ratios) and the operation ledger behind error_rate.
struct Tally {
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> sums;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< first few failure messages

    void sample(const std::string& name, double value) { samples[name].push_back(value); }
    void add(const std::string& name, double value) { sums[name] += value; }
    [[nodiscard]] double sum(const std::string& name) const {
        const auto it = sums.find(name);
        return it == sums.end() ? 0.0 : it->second;
    }
    /// Counts one failed operation (threw, or disagreed with its reference).
    void fail(std::string what);
};

class Workload {
public:
    virtual ~Workload() = default;

    /// True for the workload whose traced runs add an untraced pass at
    /// several evaluation lanes, measuring thread scaling.
    [[nodiscard]] virtual bool measures_scaling() const { return false; }
    /// Builds round `round`'s inputs for engines of `threads` evaluation
    /// lanes: model generation or load, variant construction, engine
    /// construction, simulation plans (setup_s).
    virtual void setup(std::uint64_t round, unsigned threads, Tally& tally) = 0;
    /// Runs the round's operations (wall_s).  Every operation counts
    /// into tally.attempted.
    virtual void measure(Tally& tally) = 0;
    /// Checks the round's outputs against references computed on other
    /// paths (untimed).  `probes` adds the per-layer probes of a traced
    /// run.
    virtual void check(Tally& tally, bool probes) = 0;
    /// Releases the round's engines and inputs (untimed, so that neither
    /// the next set-up nor the next measured phase pays for it).
    virtual void teardown() = 0;
    /// Checks pooled over every round, after the last one.
    virtual void finish(Tally& /*tally*/) {}
};

/// Returns nullptr for an unknown name.  `work_dir` holds the model
/// files the dse-sweep workload writes and reads back.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                                      const std::string& work_dir);

}  // namespace e2ebench
