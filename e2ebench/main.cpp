// asilkit end-to-end benchmark.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Runs rounds of one workload (workloads.h) until S seconds have passed,
// checks every output against its reference, prints a human-readable
// report and, as the last line of standard output, one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run alternates
// untraced and traced rounds on the same inputs and the metrics are the
// per-layer ones, folded from the library's own spans and counters.
// README.md explains every metric.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using e2ebench::Tally;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string work_dir = ".";
    std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* problem) {
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--git-sha SHA]\n",
                 problem);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + key).c_str());
        const char* value = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value, &end, 10);
            if (end == value || *end != '\0') usage("--seed must be a whole number");
            have_seed = true;
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
                usage("--seconds must be in (0, 600]");
            }
        } else if (key == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
                usage("--trace must be 0 or 1");
            }
            a.trace = value[0] - '0';
        } else if (key == "--work-dir") {
            a.work_dir = value;
        } else if (key == "--git-sha") {
            a.git_sha = value;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || a.trace < 0) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    return a;
}

double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(const std::vector<double>& v) {
    return v.empty() ? 0.0 : e2ebench::percentile(v, 0.5);
}

double sum(const std::vector<double>& v) {
    double total = 0.0;
    for (double x : v) total += x;
    return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Span time per "category/name" and self time per category over every
/// traced round, plus the measuring thread's time that some span covers.
struct SpanFold {
    std::map<std::string, std::uint64_t> total_ns;
    std::map<std::string, std::uint64_t> self_by_cat;
    std::uint64_t covered_ns = 0;  ///< measuring thread, outermost spans only
    std::uint64_t unmatched = 0;

    /// `events` as obs::snapshot_events() returns them; the measuring
    /// thread is the one that recorded the "round" marker.
    void add(const std::vector<asilkit::obs::TraceEvent>& events) {
        std::uint32_t main_tid = ~0u;
        for (const auto& e : events) {
            if (e.ph == 'I' && std::strcmp(e.cat, "e2ebench") == 0) {
                main_tid = e.tid;
                break;
            }
        }
        struct Open {
            const asilkit::obs::TraceEvent* begin;
            std::uint64_t child_ns;
        };
        std::map<std::uint32_t, std::vector<Open>> stacks;
        for (const auto& e : events) {
            if (e.ph == 'B') {
                stacks[e.tid].push_back({&e, 0});
            } else if (e.ph == 'E') {
                auto& stack = stacks[e.tid];
                if (stack.empty() || std::strcmp(stack.back().begin->name, e.name) != 0) {
                    ++unmatched;
                    continue;
                }
                const Open open = stack.back();
                stack.pop_back();
                const std::uint64_t dur = e.ts_ns - open.begin->ts_ns;
                const std::uint64_t self = dur > open.child_ns ? dur - open.child_ns : 0;
                total_ns[std::string(e.cat) + "/" + e.name] += dur;
                self_by_cat[e.cat] += self;
                if (!stack.empty()) {
                    stack.back().child_ns += dur;
                } else if (e.tid == main_tid) {
                    covered_ns += dur;
                }
            }
        }
        for (const auto& [tid, stack] : stacks) unmatched += stack.size();
    }

    [[nodiscard]] static double ms(const std::map<std::string, std::uint64_t>& m,
                                   const std::string& key) {
        const auto it = m.find(key);
        return it == m.end() ? 0.0 : 1e-6 * static_cast<double>(it->second);
    }
    [[nodiscard]] double total_ms(const std::string& key) const { return ms(total_ns, key); }
    [[nodiscard]] double self_ms_of(const std::string& cat) const { return ms(self_by_cat, cat); }
};

std::map<std::string, std::uint64_t> counter_values() {
    std::map<std::string, std::uint64_t> out;
    for (const auto& c : asilkit::obs::Registry::global().snapshot().counters) {
        out[c.id] = c.value;
    }
    return out;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;  ///< sample count or ratio base
};

void print_table(const char* title, const std::vector<Metric>& metrics) {
    std::printf("%s\n", title);
    for (const Metric& m : metrics) {
        std::printf("  %-32s %16.6g  %-10s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.c_str());
    }
}

std::string json_metrics(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (const Metric& m : metrics) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
        if (out.size() > 1) out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
}

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
#ifndef __OPTIMIZE__
    std::fprintf(stderr,
                 "e2ebench: run invalid: built without optimisation (build type %s); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 E2EBENCH_BUILD_TYPE);
    return 3;
#endif
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    auto workload = e2ebench::make_workload(args.workload, args.seed, args.work_dir);
    if (!workload) usage(("unknown workload " + args.workload).c_str());
    // Gated and traced rounds run at one evaluation lane: multi-lane wall
    // times on a shared VM do not repeat (README.md).  A traced run of a
    // scaling workload adds an untraced pass at up to 4 lanes.
    const unsigned scaling_threads =
        args.trace == 1 && workload->measures_scaling() ? std::min(4u, nproc) : 1;

    std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
    std::printf(
        "# context {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"gcc %s\", "
        "\"git_sha\": \"%s\", \"seed\": %llu, \"engine_threads\": 1, \"scaling_threads\": %u, "
        "\"optimized\": true}\n",
        nproc, E2EBENCH_BUILD_TYPE, __VERSION__, args.git_sha.c_str(),
        static_cast<unsigned long long>(args.seed), scaling_threads);
    std::fflush(stdout);

    // ---- the run: rounds until the time is up --------------------------------
    Tally plain;   // untraced rounds: every end-to-end number
    Tally traced;  // traced rounds (--trace 1): spans and counters
    Tally scaled;  // untraced rounds at scaling_threads lanes (--trace 1)
    std::vector<double> setup_s, wall_s, traced_wall_s, scaled_wall_s;
    std::map<std::string, std::uint64_t> deltas;
    SpanFold fold;
    std::uint64_t dropped = 0;
    std::uint64_t rounds = 0;
    const auto run_start = Clock::now();
    try {
        do {
            const int passes = args.trace == 0 ? 1 : scaling_threads > 1 ? 3 : 2;
            for (int pass = 0; pass < passes; ++pass) {
                const bool tracing = pass == 1;
                const bool scaling = pass == 2;
                Tally& tally = scaling ? scaled : tracing ? traced : plain;
                const auto setup_start = Clock::now();
                workload->setup(rounds, scaling ? scaling_threads : 1, tally);
                if (!scaling) setup_s.push_back(since(setup_start));

                std::map<std::string, std::uint64_t> before;
                if (tracing) {
                    before = counter_values();
                    asilkit::obs::start_tracing();
                    asilkit::obs::trace_instant("round", "e2ebench");
                }
                const auto start = Clock::now();
                workload->measure(tally);
                const double wall = since(start);
                if (tracing) {
                    asilkit::obs::stop_tracing();
                    fold.add(asilkit::obs::snapshot_events());
                    const std::uint64_t lost = asilkit::obs::trace_dropped_count();
                    if (lost > 0) tally.fail("traced round dropped " + std::to_string(lost) + " events");
                    dropped += lost;
                    for (const auto& [id, value] : counter_values()) deltas[id] += value - before[id];
                    traced_wall_s.push_back(wall);
                } else {
                    (scaling ? scaled_wall_s : wall_s).push_back(wall);
                }
                workload->check(tally, tracing);
                workload->teardown();
            }
            ++rounds;
        } while (since(run_start) < args.seconds);
    } catch (const std::exception& e) {
        // Set-up failures end the run; they are reported, never measured.
        plain.fail(std::string("round aborted: ") + e.what());
    }
    const double rss = peak_rss_mb();
    workload->finish(plain);

    const std::uint64_t attempted = plain.attempted + traced.attempted + scaled.attempted;
    const std::uint64_t failed = plain.failed + traced.failed + scaled.failed;
    const bool correct = failed == 0 && attempted > 0;

    // ---- end-to-end metrics ------------------------------------------------------
    const auto ops = [&](const char* name) -> const std::vector<double>& {
        static const std::vector<double> none;
        const auto it = plain.samples.find(name);
        return it == plain.samples.end() ? none : it->second;
    };
    const auto pct = [](const std::vector<double>& v, double q) {
        return v.empty() ? 0.0 : e2ebench::percentile(v, q);
    };
    const auto tail_note = [](const std::vector<double>& v, double q) {
        return count_note(v.size()) + ", beyond=" +
               std::to_string(v.empty() ? 0 : e2ebench::samples_beyond(v.size(), q));
    };
    // wall_s is the mean round: rounds are random draws whose cost comes
    // in discrete levels (how many RND branches came out heavy, which
    // model is the large one), so their median jumps between levels
    // from run to run while the mean does not.
    const std::vector<Metric> e2e{
        {"setup_s", median(setup_s), "s", count_note(setup_s.size()) + " set-ups"},
        {"wall_s", ratio(sum(wall_s), static_cast<double>(wall_s.size())), "s",
         count_note(wall_s.size()) + " rounds, mean"},
    };
    // Printed, not gated: defined on some workloads only, or (latency
    // percentiles, peak RSS) not repeatable within a bound; README.md.
    std::vector<Metric> named{{"peak_rss_mb", rss, "MB", "whole process"}};
    if (!ops("search_ms").empty()) {
        named.push_back({"search_ms_p50", pct(ops("search_ms"), 0.5), "ms",
                         count_note(ops("search_ms").size())});
        named.push_back({"search_ms_p90", pct(ops("search_ms"), 0.9), "ms",
                         tail_note(ops("search_ms"), 0.9)});
    }
    if (!ops("explore_ms").empty()) {
        named.push_back({"explore_ms_p50", pct(ops("explore_ms"), 0.5), "ms",
                         count_note(ops("explore_ms").size())});
    }
    if (plain.sum("variants") > 0) {
        named.push_back({"variants_per_s", ratio(plain.sum("variants"), plain.sum("batch_s")),
                         "1/s", "variants=" + std::to_string(static_cast<long long>(plain.sum("variants")))});
    }
    if (plain.sum("plain_trials") > 0) {
        named.push_back({"trials_per_s", ratio(plain.sum("plain_trials"), plain.sum("plain_s")),
                         "1/s", "trials=" + std::to_string(static_cast<long long>(plain.sum("plain_trials")))});
        named.push_back({"is_trials_per_s", ratio(plain.sum("is_trials"), plain.sum("is_s")), "1/s",
                         "trials=" + std::to_string(static_cast<long long>(plain.sum("is_trials")))});
    }
    named.push_back({"error_rate", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                     "ratio", "failed=" + std::to_string(failed) + " of attempted=" +
                                  std::to_string(attempted)});

    print_table("end-to-end, gated (untraced rounds)", e2e);
    print_table("end-to-end, printed only", named);

    // ---- per-layer metrics (--trace 1) -----------------------------------------
    std::vector<Metric> layers;
    if (args.trace == 1) {
        const double r = static_cast<double>(traced_wall_s.size());
        const auto c = [&](const char* id) { return static_cast<double>(deltas[id]); };
        const auto per_round = [&](double v) { return ratio(v, r); };
        const auto base = [&](const char* id) {
            return "base " + std::string(id) + "=" + std::to_string(deltas[id]);
        };
        const auto all_samples = [&](const char* name) {
            std::vector<double> v = plain.samples[name];
            const std::vector<double>& t = traced.samples[name];
            v.insert(v.end(), t.begin(), t.end());
            return v;
        };
        const double evals = c("engine.analyze_calls");
        const Tally& lanes = scaling_threads > 1 ? scaled : plain;
        const std::vector<double> io_ms = all_samples("io_load_ms");
        const std::vector<double> plan_ms = all_samples("sim_plan_ms");
        const std::vector<double>& canon = traced.samples["canonical_us"];
        // Each traced round repeats its untraced twin's inputs.
        const double traced_total = sum(traced_wall_s);
        const double overhead = wall_s.empty() ? 0.0 : traced_total / sum(wall_s) - 1.0;
        layers = {
            {"io.load_model_ms", median(io_ms), "ms", count_note(io_ms.size()) + " loads"},
            {"transform.ops",
             per_round(c("transform.expand.ops") + c("transform.connect.ops") +
                       c("transform.reduce.ops")),
             "count/round", "expand+connect+reduce"},
            {"transform.self_ms", per_round(fold.self_ms_of("transform")), "ms/round", "span self time"},
            {"lint.prefilter_ms", per_round(fold.total_ms("explore/lint_prefilter")), "ms/round", "span"},
            {"lint.rejections", per_round(c("engine.lint_rejections")), "count/round", ""},
            {"explore.candidates", per_round(c("explore.candidates_generated")), "count/round", ""},
            {"explore.evaluations", per_round(evals), "count/round", "engine.analyze_calls"},
            {"explore.prune_ratio", ratio(c("explore.bound_rejections"), c("explore.candidates_generated")),
             "ratio", base("explore.candidates_generated")},
            {"explore.generate_ms", per_round(fold.total_ms("explore/generate")), "ms/round", "span"},
            {"explore.bound_check_ms", per_round(fold.total_ms("explore/bound_check")), "ms/round", "span"},
            {"explore.select_ms", per_round(fold.total_ms("explore/select")), "ms/round", "span"},
            {"explore.cutset_memo_hits", per_round(c("explore.cutset_memo_hits")), "count/round",
             base("explore.iterations")},
            {"explore.iterations", per_round(c("explore.iterations")), "count/round", ""},
            {"explore.dedup_hit_ratio", ratio(c("explore.dedup_hits"), evals), "ratio",
             base("engine.analyze_calls")},
            {"engine.tree_hit_ratio",
             ratio(c("engine.tree_hits"), c("engine.tree_hits") + c("engine.tree_misses")), "ratio",
             base("engine.analyze_calls")},
            {"engine.module_hit_ratio",
             ratio(c("engine.module_hits"), c("engine.module_hits") + c("engine.module_misses")),
             "ratio", "base module lookups=" +
                          std::to_string(deltas["engine.module_hits"] + deltas["engine.module_misses"])},
            {"engine.cpu_util",
             ratio(lanes.sum("search_cpu_s"),
                   lanes.sum("search_wall_s") * static_cast<double>(scaling_threads)),
             "ratio", "untraced searches, threads=" + std::to_string(scaling_threads)},
            {"engine.thread_speedup", ratio(sum(wall_s), sum(scaled_wall_s)), "ratio",
             "1-lane / " + std::to_string(scaling_threads) + "-lane wall_s, " +
                 count_note(scaled_wall_s.size()) + " pairs"},
            {"engine.self_ms", per_round(fold.self_ms_of("engine")), "ms/round", "span self time"},
            {"engine.batch_lanes_per_group", ratio(c("engine.batch_lanes"), c("engine.batch_groups")),
             "ratio", base("engine.batch_groups")},
            {"engine.overhead_ratio", ratio(plain.sum("batch_s"), plain.sum("reference_s")), "ratio",
             "analyze_batch / analyze_failure_probability wall, untraced"},
            {"ftree.assemble_ms", per_round(fold.total_ms("ftree/assemble")), "ms/round", "span"},
            {"ftree.build_ms", per_round(fold.total_ms("ftree/build_fault_tree")), "ms/round", "span"},
            {"ftree.find_modules_ms", per_round(fold.total_ms("ftree/find_modules")), "ms/round", "span"},
            {"ftree.gates_per_eval", ratio(c("ftree.gates_built"), evals), "ratio",
             base("engine.analyze_calls")},
            {"ftree.canonical_us", median(canon), "us", count_note(canon.size()) + " probes"},
            {"ftree.fragment_reuse_ratio",
             ratio(c("ftree.fragment.reused"), c("ftree.fragment.built") + c("ftree.fragment.reused")),
             "ratio", "base fragments=" + std::to_string(deltas["ftree.fragment.built"] +
                                                         deltas["ftree.fragment.reused"])},
            // Every analyze call assembles its tree before the cache
            // lookup, so the memo is consulted once per evaluation.
            {"ftree.memo_hit_ratio", ratio(c("ftree.memo_hits"), evals), "ratio",
             base("engine.analyze_calls")},
            {"bdd.evaluate_module_ms", per_round(fold.total_ms("bdd/evaluate_module")), "ms/round",
             "span"},
            {"bdd.nodes_per_eval", ratio(c("bdd.nodes_created"), evals), "ratio",
             base("engine.analyze_calls")},
            {"bdd.apply_hit_ratio", ratio(c("bdd.apply_hits"), c("bdd.apply_lookups")), "ratio",
             base("bdd.apply_lookups")},
            {"bdd.subtree_memo_hit_ratio",
             ratio(c("bdd.subtree_memo_hits"), c("bdd.subtree_memo_hits") + c("bdd.subtree_memo_misses")),
             "ratio", "base lookups=" + std::to_string(deltas["bdd.subtree_memo_hits"] +
                                                       deltas["bdd.subtree_memo_misses"])},
            {"bdd.gc_collections", per_round(c("bdd.gc.collections")), "count/round", ""},
            {"analysis.sim_plan_ms", median(plan_ms), "ms", count_note(plan_ms.size()) + " set-ups, all four plans"},
            {"analysis.sim_ns_per_trial_node", 1e9 * ratio(plain.sum("plain_s"), plain.sum("trial_nodes")),
             "ns", "untraced plain sampling"},
            {"analysis.is_ess_ratio", ratio(plain.sum("is_ess"), plain.sum("is_trials")), "ratio",
             "base IS trials=" + std::to_string(static_cast<long long>(plain.sum("is_trials")))},
            {"obs.trace_overhead", overhead, "ratio",
             "traced/untraced wall_s - 1, " + count_note(traced_wall_s.size()) + " pairs"},
            {"obs.unattributed_share", 1.0 - ratio(1e-9 * static_cast<double>(fold.covered_ns), traced_total),
             "ratio", "traced wall outside any span on the measuring thread"},
            {"obs.trace_dropped", static_cast<double>(dropped), "count",
             "unmatched spans=" + std::to_string(fold.unmatched)},
        };
        print_table("per-layer (traced rounds; 0 where the layer does not run)", layers);
    }

    for (const Tally* t : {&plain, &traced, &scaled}) {
        for (const std::string& m : t->failures) std::printf("FAILED: %s\n", m.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                json_metrics(args.trace == 1 ? layers : e2e).c_str());
    return correct ? 0 : 1;
}
