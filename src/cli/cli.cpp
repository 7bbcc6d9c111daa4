#include "cli/cli.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>

#include "analysis/ccf.h"
#include "analysis/fmea.h"
#include "analysis/probability.h"
#include "analysis/simulation.h"
#include "analysis/tolerance.h"
#include "analysis/traceability.h"
#include "cost/cost_analysis.h"
#include "explore/advisor.h"
#include "explore/driver.h"
#include "explore/mapping_search.h"
#include "io/json.h"
#include "io/csv.h"
#include "io/dot.h"
#include "io/graphml.h"
#include "io/model_diff.h"
#include "io/model_json.h"
#include "io/watch_rules.h"
#include "engine/engine.h"
#include "lint/emit.h"
#include "lint/lint.h"
#include "model/validation.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "scenarios/ecotwin.h"
#include "scenarios/fig3.h"
#include "scenarios/longitudinal.h"
#include "transform/connect.h"
#include "transform/expand.h"
#include "transform/reduce.h"

namespace asilkit::cli {
namespace {

/// Parsed invocation: positionals + --key value / --flag options.
struct Args {
    std::vector<std::string> positionals;
    std::map<std::string, std::string> options;

    [[nodiscard]] bool has(const std::string& key) const { return options.contains(key); }
    [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const {
        if (auto it = options.find(key); it != options.end()) return it->second;
        return fallback;
    }
};

/// A command-line option value the command refuses; run_cli reports it
/// as a usage error (exit 2).
class OptionError : public Error {
public:
    explicit OptionError(const std::string& what) : Error("invalid option: " + what) {}
};

/// Every --option, whether a value follows it, and the commands that read
/// it ("*": every command — help and the observability session).  An
/// unknown --key is refused while parsing, before it can swallow the next
/// token as its value; a known option given to a command that does not
/// read it is refused by check_options.
struct OptionSpec {
    std::string_view name;
    bool takes_value;
    std::string_view commands;  ///< space-separated command names, or "*"
};
constexpr OptionSpec kOptions[] = {
    {"all", false, "connect"},
    {"approximate", false, "analyze search stats"},
    {"block", true, "simulate"},
    {"branches", true, "advise expand"},
    {"csv", true, "explore"},
    {"engine", true, "simulate"},
    {"format", true, "lint simulate export stats"},
    {"help", false, "*"},
    {"hours", true, "analyze simulate fmea search stats"},
    {"is", false, "simulate"},
    {"is-bias", true, "simulate"},
    {"is-max-order", true, "simulate"},
    {"layer", true, "export"},
    {"max-nodes", true, "search"},
    {"max-order", true, "tolerance"},
    {"merger", true, "connect"},
    {"metric", true, "analyze search explore"},
    {"metrics", true, "*"},
    {"node", true, "expand"},
    {"nodes", true, "explore"},
    {"openmetrics-out", true, "*"},
    {"out", true, "demo lint expand connect reduce search explore export"},
    {"profile", false, "*"},
    {"profile-format", true, "*"},
    {"profile-out", true, "*"},
    {"rate-scale", true, "simulate"},
    {"rules", true, "lint"},
    {"sample-capacity", true, "*"},
    {"sample-ndjson", true, "*"},
    {"sample-out", true, "*"},
    {"sample-period", true, "*"},
    {"seed", true, "simulate"},
    {"strategy", true, "advise expand explore"},
    {"stream-front", true, "search explore"},
    {"strict", false, "validate"},
    {"threads", true, "simulate search stats"},
    {"trace", true, "*"},
    {"trials", true, "simulate"},
    {"watch-out", true, "*"},
    {"watch-rules", true, "*"},
};

[[nodiscard]] const OptionSpec* find_option(std::string_view name) {
    const auto spec = std::find_if(std::begin(kOptions), std::end(kOptions),
                                   [&](const OptionSpec& o) { return o.name == name; });
    return spec == std::end(kOptions) ? nullptr : spec;
}

/// Whether `command` appears in the space-separated `commands` list.
[[nodiscard]] bool lists_command(std::string_view commands, std::string_view command) {
    if (commands == "*") return true;
    while (!commands.empty()) {
        const std::size_t end = std::min(commands.find(' '), commands.size());
        if (commands.substr(0, end) == command) return true;
        commands.remove_prefix(std::min(end + 1, commands.size()));
    }
    return false;
}

Args parse_args(const std::vector<std::string>& argv) {
    Args args;
    for (std::size_t i = 0; i < argv.size(); ++i) {
        const std::string& token = argv[i];
        if (token.rfind("--", 0) == 0) {
            const std::string key = token.substr(2);
            const OptionSpec* spec = find_option(key);
            if (spec == nullptr) throw OptionError(token);
            if (!spec->takes_value) {
                args.options[key] = "1";
            } else if (i + 1 < argv.size()) {
                args.options[key] = argv[++i];
            } else {
                throw OptionError(token + " needs a value");
            }
        } else if (token == "-o") {
            if (i + 1 == argv.size()) throw OptionError("-o needs a value");
            args.options["out"] = argv[++i];
        } else {
            args.positionals.push_back(token);
        }
    }
    return args;
}

/// The value of numeric option --`key`, or `fallback` when it is absent.
/// Accepts exactly one finite, strictly positive number (durations,
/// scale factors and probability floors); anything else — negative, zero,
/// nan, inf, trailing text — throws OptionError.
double positive_option(const Args& args, const std::string& key, double fallback) {
    if (!args.has(key)) return fallback;
    const std::string text = args.get(key);
    double value = 0.0;
    std::size_t used = 0;
    try {
        value = std::stod(text, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used == 0 || used != text.size() || !std::isfinite(value) || value <= 0.0) {
        throw OptionError("--" + key + " expects a finite positive number, got '" + text + "'");
    }
    return value;
}

/// The value of integer option --`key`, or `fallback` when it is absent.
/// Accepts exactly one run of decimal digits whose value lies in
/// [`min`, max of T] (counts, seeds, sizes, periods); anything else — a
/// sign, trailing text, an empty value, an out-of-range number — throws
/// OptionError.
template <typename T>
T integer_option(const Args& args, const std::string& key, T fallback, T min = 0) {
    if (!args.has(key)) return fallback;
    const std::string text = args.get(key);
    T value = 0;
    const bool digits = !text.empty() && text.find_first_not_of("0123456789") == std::string::npos;
    if (!digits ||
        std::from_chars(text.data(), text.data() + text.size(), value).ec != std::errc{} ||
        value < min) {
        throw OptionError("--" + key + " expects a whole number from " + std::to_string(min) +
                          " to " + std::to_string(std::numeric_limits<T>::max()) + ", got '" +
                          text + "'");
    }
    return value;
}

DecompositionStrategy parse_strategy(const std::string& text) {
    if (text == "BB" || text == "bb") return DecompositionStrategy::BB;
    if (text == "AC" || text == "ac") return DecompositionStrategy::AC;
    if (text == "RND" || text == "rnd") return DecompositionStrategy::RND;
    throw IoError("unknown strategy '" + text + "' (expected BB, AC or RND)");
}

cost::CostMetric parse_metric(const std::string& text) {
    if (text == "1" || text.empty()) return cost::CostMetric::exponential_metric1();
    if (text == "2") return cost::CostMetric::exponential_metric2();
    if (text == "3") return cost::CostMetric::linear_metric3();
    throw IoError("unknown metric '" + text + "' (expected 1, 2 or 3)");
}

ArchitectureModel load_positional_model(const Args& args) {
    if (args.positionals.size() < 2) throw IoError("missing model file argument");
    return io::load_model(args.positionals[1]);
}

std::string require_out(const Args& args) {
    if (!args.has("out")) throw IoError("missing -o <output file>");
    return args.get("out");
}

int cmd_demo(const Args& args, std::ostream& out) {
    if (args.positionals.size() < 2) throw IoError("demo: missing scenario name");
    const std::string& name = args.positionals[1];
    ArchitectureModel m;
    if (name == "fig3") {
        m = scenarios::fig3_camera_gps_fusion();
    } else if (name == "fig3-ccf") {
        m = scenarios::fig3_with_shared_ecu_ccf();
    } else if (name == "ecotwin") {
        m = scenarios::ecotwin_lateral_control();
    } else if (name == "longitudinal") {
        m = scenarios::ecotwin_longitudinal_control();
    } else {
        throw IoError("unknown demo scenario '" + name +
                      "' (expected fig3, fig3-ccf, ecotwin or longitudinal)");
    }
    io::save_model(m, require_out(args));
    out << "wrote " << m.name() << " (" << m.app().node_count() << " nodes, "
        << m.resources().node_count() << " resources) to " << args.get("out") << "\n";
    return 0;
}

int cmd_validate(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    const ValidationReport report = validate(m);
    out << m.name() << ": " << report.error_count() << " errors, " << report.warning_count()
        << " warnings\n";
    for (const ValidationIssue& issue : report.issues) out << "  " << issue << "\n";
    // --strict promotes warnings: a report that is not fully clean fails.
    if (args.has("strict")) return report.ok() ? 0 : 1;
    return report.error_count() == 0 ? 0 : 1;
}

/// Exit codes mirror severities so CI can distinguish outcomes: 0 =
/// clean (notes allowed), 3 = warnings present, 4 = errors present
/// (1/2 stay reserved for input/usage errors).
int cmd_lint(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    lint::LintOptions options;
    if (args.has("rules")) options.config = lint::load_lint_config(args.get("rules"));
    const lint::LintReport report = lint::run_lint(m, options);

    const std::string format = args.get("format", "text");
    std::string text;
    if (format == "text") {
        text = lint::to_text(report, m.name());
    } else if (format == "json") {
        text = lint::to_json(report, m.name()).dump(2) + "\n";
    } else if (format == "sarif") {
        text = lint::to_sarif(report).dump(2) + "\n";
    } else {
        throw IoError("unknown format '" + format + "' (expected text, json or sarif)");
    }
    if (args.has("out")) {
        io::save_text_file(text, args.get("out"));
        out << "wrote " << format << " lint report to " << args.get("out") << "\n";
    } else {
        out << text;
    }
    if (report.error_count() > 0) return 4;
    if (report.warning_count() > 0) return 3;
    return 0;
}

int cmd_analyze(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    analysis::ProbabilityOptions options;
    options.approximate = args.has("approximate");
    options.mission_hours = positive_option(args, "hours", options.mission_hours);
    // The engine path, as every other scoring command takes it, so the
    // engine.* metrics (and watch rules on them) see this analysis.  One
    // model on the calling thread: no worker lanes.
    engine::EvalEngine engine({.threads = 1});
    const analysis::ProbabilityResult result = engine.analyze(m, options);
    const cost::CostMetric metric = parse_metric(args.get("metric", "1"));
    out << "model              : " << m.name() << "\n"
        << "application nodes  : " << m.app().node_count() << "\n"
        << "resources          : " << m.resources().node_count() << "\n"
        << "cost (" << metric.name() << "): " << cost::total_cost(m, metric) << "\n"
        << "fault tree         : " << result.ft_stats.dag_nodes << " nodes, "
        << result.ft_stats.paths << " paths\n"
        << "bdd                : " << result.bdd_nodes << " nodes over " << result.variables
        << " variables\n"
        << "P(system failure)  : " << result.failure_probability << " over "
        << options.mission_hours << " h\n";
    if (result.approximated_blocks > 0) {
        out << "approximated blocks: " << result.approximated_blocks << "\n";
    }
    for (const std::string& w : result.warnings) out << "warning: " << w << "\n";
    return 0;
}

/// Monte Carlo estimation of the top-event probability via the
/// vectorized SimEngine (docs/simulation.md).  Exit 0 always — the
/// estimate plus its CI is the product; judging it is the caller's job.
int cmd_simulate(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    analysis::SimulationOptions options;
    options.trials = integer_option<std::uint64_t>(args, "trials", options.trials, 1);
    options.seed = integer_option<std::uint64_t>(args, "seed", options.seed);
    options.mission_hours = positive_option(args, "hours", options.mission_hours);
    options.rate_scale = positive_option(args, "rate-scale", options.rate_scale);
    options.threads = integer_option<unsigned>(args, "threads", options.threads);
    options.block_trials = integer_option<std::uint64_t>(args, "block", options.block_trials);
    options.importance_sampling = args.has("is");
    options.is_bias = positive_option(args, "is-bias", options.is_bias);
    options.is_max_order = integer_option<std::size_t>(args, "is-max-order", options.is_max_order);
    const std::string engine = args.get("engine", "bitparallel");
    if (engine == "naive") {
        options.engine = analysis::SimEngineKind::Naive;
    } else if (engine == "bitparallel") {
        options.engine = analysis::SimEngineKind::BitParallel;
    } else {
        throw IoError("unknown engine '" + engine + "' (expected naive or bitparallel)");
    }

    const analysis::SimulationResult r = analysis::simulate_failure_probability(m, options);
    const std::string format = args.get("format", "text");
    if (format == "json") {
        io::Json doc = io::Json::object();
        doc["model"] = m.name();
        doc["engine"] = engine;
        doc["trials"] = r.trials;
        doc["failures"] = r.failures;
        doc["estimate"] = r.estimate;
        doc["std_error"] = r.std_error;
        doc["ci95_low"] = r.ci95_low;
        doc["ci95_high"] = r.ci95_high;
        doc["ess"] = r.ess;
        doc["importance_sampled"] = r.importance_sampled;
        doc["mission_hours"] = options.mission_hours;
        doc["rate_scale"] = options.rate_scale;
        out << doc.dump(2) << "\n";
    } else if (format == "text") {
        out << "model              : " << m.name() << "\n"
            << "engine             : " << engine
            << (r.importance_sampled ? " + importance sampling" : "") << "\n"
            << "trials             : " << r.trials << "\n"
            << "failures           : " << r.failures << "\n"
            << "P(system failure)  : " << r.estimate << " over " << options.mission_hours
            << " h\n"
            << "std error          : " << r.std_error << "\n"
            << "95% CI             : [" << r.ci95_low << ", " << r.ci95_high << "]\n"
            << "effective samples  : " << r.ess << "\n";
    } else {
        throw IoError("unknown format '" + format + "' (expected text or json)");
    }
    return 0;
}

int cmd_ccf(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    const analysis::CcfReport report = analysis::analyze_ccf(m);
    if (report.independent()) {
        out << "no common cause faults: every decomposition is independent\n";
        return 0;
    }
    out << report.findings.size() << " finding(s):\n";
    for (const analysis::CcfFinding& f : report.findings) out << "  " << f << "\n";
    return 1;
}

int cmd_tolerance(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    analysis::FaultToleranceOptions options;
    options.max_order = integer_option<std::size_t>(args, "max-order", options.max_order);
    const analysis::FaultToleranceReport report = analyze_fault_tolerance(m, options);
    out << "minimal cut order : " << report.min_cut_order << "\n"
        << "tolerated faults  : " << report.tolerated_faults << "\n";
    for (std::size_t order = 1; order < report.cut_sets_by_order.size(); ++order) {
        out << "cut sets, order " << order << " : " << report.cut_sets_by_order[order] << "\n";
    }
    out << "single points of failure:\n";
    for (const std::string& spof : report.single_points_of_failure) out << "  " << spof << "\n";
    return 0;
}

int cmd_trace(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    const analysis::TraceabilityReport report = analysis::trace_requirements(m);
    for (const analysis::FsrStatus& status : report.requirements) {
        out << "  " << status << "\n";
        for (const std::string& node : status.under_implemented) {
            out << "    under-implemented: " << node << "\n";
        }
    }
    if (!report.untraced_nodes.empty()) {
        out << "  " << report.untraced_nodes.size() << " node(s) without an FSR\n";
    }
    return report.all_satisfied() ? 0 : 1;
}

int cmd_fmea(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    analysis::FmeaOptions options;
    options.mission_hours = positive_option(args, "hours", options.mission_hours);
    for (const analysis::FmeaRow& row : analysis::fmea_report(m, options)) {
        out << "  " << row << "\n";
    }
    return 0;
}

int cmd_advise(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    explore::AdvisorOptions options;
    options.strategy = parse_strategy(args.get("strategy", "BB"));
    options.branches = integer_option<std::size_t>(args, "branches", options.branches);
    options.probability.approximate = true;
    for (const explore::ExpansionAdvice& advice : explore::advise_expansions(m, options)) {
        out << "  " << advice << "\n";
    }
    return 0;
}

int cmd_expand(const Args& args, std::ostream& out) {
    ArchitectureModel m = load_positional_model(args);
    if (!args.has("node")) throw IoError("expand: missing --node NAME");
    const NodeId n = m.find_app_node(args.get("node"));
    if (!n.valid()) throw IoError("no application node named '" + args.get("node") + "'");
    transform::ExpandOptions options;
    options.strategy = parse_strategy(args.get("strategy", "BB"));
    options.branches = integer_option<std::size_t>(args, "branches", options.branches);
    const transform::ExpandResult result = transform::expand(m, n, options);
    io::save_model(m, require_out(args));
    out << "expanded '" << args.get("node") << "' with " << to_string(result.pattern) << " into "
        << result.branches.size() << " branches; wrote " << args.get("out") << "\n";
    return 0;
}

int cmd_connect(const Args& args, std::ostream& out) {
    ArchitectureModel m = load_positional_model(args);
    std::size_t merges = 0;
    if (args.has("all")) {
        transform::reduce_all(m);
        merges = transform::connect_all(m);
    } else {
        if (!args.has("merger")) throw IoError("connect: need --merger NAME or --all");
        const NodeId merger = m.find_app_node(args.get("merger"));
        if (!merger.valid()) throw IoError("no node named '" + args.get("merger") + "'");
        transform::connect(m, merger);
        merges = 1;
    }
    io::save_model(m, require_out(args));
    out << "performed " << merges << " connect(s); wrote " << args.get("out") << "\n";
    return 0;
}

int cmd_reduce(const Args& args, std::ostream& out) {
    ArchitectureModel m = load_positional_model(args);
    const std::size_t reductions = transform::reduce_all(m);
    io::save_model(m, require_out(args));
    out << "performed " << reductions << " reduction(s); wrote " << args.get("out") << "\n";
    return 0;
}

/// One NDJSON line per front change: the anytime contract's streamed
/// output.  Each line is a complete JSON object, so a consumer can
/// follow the file while the search still runs.
class FrontStream {
public:
    explicit FrontStream(const std::string& path) : stream_(path) {
        if (!stream_) throw IoError("cannot open '" + path + "' for writing");
    }
    void write(const explore::TradeoffPoint& p, std::size_t front_size) {
        io::Json line = io::Json::object();
        line["label"] = p.label;
        line["cost"] = p.cost;
        line["failure_probability"] = p.failure_probability;
        line["front_size"] = static_cast<std::uint64_t>(front_size);
        stream_ << line.dump() << "\n";
        stream_.flush();  // a crashed/killed run still leaves every line behind
        ++lines_;
    }
    [[nodiscard]] std::size_t lines() const noexcept { return lines_; }

private:
    std::ofstream stream_;
    std::size_t lines_ = 0;
};

int cmd_search(const Args& args, std::ostream& out) {
    ArchitectureModel m = load_positional_model(args);
    explore::MappingSearchOptions options;
    options.metric = parse_metric(args.get("metric", "1"));
    options.probability.approximate = args.has("approximate");
    options.probability.mission_hours =
        positive_option(args, "hours", options.probability.mission_hours);
    options.max_nodes_per_resource =
        integer_option<std::size_t>(args, "max-nodes", options.max_nodes_per_resource);
    options.engine.threads = integer_option<unsigned>(args, "threads", options.engine.threads);
    std::optional<FrontStream> stream;
    if (args.has("stream-front")) {
        stream.emplace(args.get("stream-front"));
        options.on_front_update = [&](const explore::TradeoffPoint& p, std::size_t front_size) {
            stream->write(p, front_size);
        };
    }
    const explore::MappingSearchResult r = explore::search_mapping(m, options);
    out << "merges            : " << r.merges << " over " << r.iterations << " iteration(s)"
        << (r.reached_local_optimum ? " (local optimum)" : "") << "\n"
        << "cost              : " << r.cost_before << " -> " << r.cost_after << "\n"
        << "P(system failure) : " << r.probability_before << " -> " << r.probability_after << "\n"
        << "evaluations       : " << r.evaluations << " (" << r.bound_rejections
        << " bound-pruned, " << r.lint_rejections << " lint-rejected)\n"
        << "front             : " << r.front.size() << " point(s), " << r.front_updates
        << " update(s)\n";
    if (stream) {
        out << "front stream written to " << args.get("stream-front") << " (" << stream->lines()
            << " lines)\n";
    }
    if (args.has("out")) {
        io::save_model(m, args.get("out"));
        out << "optimized model written to " << args.get("out") << "\n";
    }
    return 0;
}

int cmd_explore(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    if (!args.has("nodes")) throw IoError("explore: missing --nodes a,b,c");
    std::vector<std::string> nodes;
    std::stringstream ss(args.get("nodes"));
    for (std::string item; std::getline(ss, item, ',');) {
        if (!item.empty()) nodes.push_back(item);
    }
    explore::ExplorationOptions options;
    options.strategy = parse_strategy(args.get("strategy", "BB"));
    options.metric = parse_metric(args.get("metric", "1"));
    options.probability.approximate = true;
    std::optional<FrontStream> stream;
    if (args.has("stream-front")) {
        stream.emplace(args.get("stream-front"));
        options.on_front_update = [&](const explore::TradeoffPoint& p, std::size_t front_size) {
            stream->write(p, front_size);
        };
    }
    const explore::ExplorationResult result = explore::run_exploration(m, nodes, options);
    for (const explore::TradeoffPoint& p : result.curve.points) out << "  " << p << "\n";
    if (stream) {
        out << "front stream written to " << args.get("stream-front") << " (" << stream->lines()
            << " lines)\n";
    }
    if (args.has("csv")) {
        io::CsvWriter csv({"label", "cost", "failure_probability"});
        for (const explore::TradeoffPoint& p : result.curve.points) {
            csv.add_row({p.label, io::CsvWriter::number(p.cost),
                         io::CsvWriter::number(p.failure_probability)});
        }
        csv.save(args.get("csv"));
        out << "curve written to " << args.get("csv") << "\n";
    }
    if (args.has("out")) {
        io::save_model(result.final_model, args.get("out"));
        out << "final model written to " << args.get("out") << "\n";
    }
    return 0;
}

int cmd_export(const Args& args, std::ostream& out) {
    const ArchitectureModel m = load_positional_model(args);
    const std::string layer = args.get("layer", "app");
    const std::string format = args.get("format", "dot");
    std::string text;
    if (format == "graphml") {
        if (layer == "app") {
            text = io::app_graph_to_graphml(m);
        } else if (layer == "resources") {
            text = io::resource_graph_to_graphml(m);
        } else {
            throw IoError("graphml export supports layers: app, resources");
        }
    } else if (format == "dot") {
        if (layer == "app") {
            text = io::app_graph_to_dot(m);
        } else if (layer == "resources") {
            text = io::resource_graph_to_dot(m);
        } else if (layer == "physical") {
            text = io::physical_graph_to_dot(m);
        } else if (layer == "ftree") {
            text = io::fault_tree_to_dot(ftree::build_fault_tree(m).tree);
        } else {
            throw IoError("unknown layer '" + layer +
                          "' (expected app, resources, physical, ftree)");
        }
    } else {
        throw IoError("unknown format '" + format + "' (expected dot or graphml)");
    }
    io::save_text_file(text, require_out(args));
    out << "wrote " << layer << " graph (" << format << ") to " << args.get("out") << "\n";
    return 0;
}

int cmd_diff(const Args& args, std::ostream& out) {
    if (args.positionals.size() < 3) throw IoError("diff: need two model files");
    const ArchitectureModel before = io::load_model(args.positionals[1]);
    const ArchitectureModel after = io::load_model(args.positionals[2]);
    const io::ModelDiff diff = io::diff_models(before, after);
    out << diff;
    return diff.empty() ? 0 : 1;
}

/// `stats [model.json]`: with a model, runs one engine-backed analysis
/// so the registry reflects the full pipeline (fault tree -> modules ->
/// BDD -> probability); without one, reports whatever this process has
/// already recorded (useful after --metrics-producing commands in the
/// same run).  Prints the metrics snapshot as text or JSON.
int cmd_stats(const Args& args, std::ostream& out) {
    obs::set_detail_enabled(true);  // stats exists to measure: populate histograms too
    const bool want_profile = args.has("profile") || args.has("profile-out");
    // A profile is folded from span events, so measuring one implies
    // tracing the analysis below (a prior --trace session still counts:
    // start_tracing is idempotent).
    if (want_profile) obs::start_tracing();
    if (args.positionals.size() >= 2) {
        const ArchitectureModel m = io::load_model(args.positionals[1]);
        analysis::ProbabilityOptions options;
        options.approximate = args.has("approximate");
        options.mission_hours = positive_option(args, "hours", options.mission_hours);
        engine::EvalEngine engine({.threads = integer_option<unsigned>(args, "threads", 0)});
        const analysis::ProbabilityResult result = engine.analyze(m, options);
        out << "model             : " << m.name() << "\n"
            << "P(system failure) : " << result.failure_probability << " over "
            << options.mission_hours << " h\n\n";
    }
    if (want_profile) {
        const obs::SpanProfile profile = obs::profile_current_trace();
        if (args.has("profile-out")) {
            // Always collapsed-stack format: the file feeds flamegraph.pl
            // (or any folded-stack consumer) directly.
            io::save_text_file(profile.to_collapsed(), args.get("profile-out"));
            out << "wrote folded profile to " << args.get("profile-out") << "\n";
        }
        if (args.has("profile")) {
            const std::string pf = args.get("profile-format", "text");
            if (pf == "text") {
                out << profile.to_text();
            } else if (pf == "json") {
                out << profile.to_json() << "\n";
            } else if (pf == "collapsed") {
                out << profile.to_collapsed();
            } else {
                throw IoError("unknown profile format '" + pf +
                              "' (expected text, json or collapsed)");
            }
            return 0;  // the profile replaces the metrics document
        }
    }
    const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
    const std::string format = args.get("format", "text");
    if (format == "json") {
        out << snapshot.to_json() << "\n";
    } else if (format == "text") {
        out << snapshot.to_text();
    } else if (format == "openmetrics") {
        out << obs::to_openmetrics(snapshot);
    } else {
        throw IoError("unknown format '" + format +
                      "' (expected text, json or openmetrics)");
    }
    return 0;
}

using CommandFn = int (*)(const Args&, std::ostream&);
constexpr std::pair<std::string_view, CommandFn> kCommands[] = {
    {"demo", cmd_demo},         {"validate", cmd_validate}, {"lint", cmd_lint},
    {"analyze", cmd_analyze},   {"simulate", cmd_simulate}, {"ccf", cmd_ccf},
    {"tolerance", cmd_tolerance}, {"trace", cmd_trace},     {"fmea", cmd_fmea},
    {"advise", cmd_advise},     {"expand", cmd_expand},     {"connect", cmd_connect},
    {"reduce", cmd_reduce},     {"search", cmd_search},     {"explore", cmd_explore},
    {"export", cmd_export},     {"diff", cmd_diff},         {"stats", cmd_stats},
};

[[nodiscard]] CommandFn find_command(std::string_view name) {
    for (const auto& [command, fn] : kCommands) {
        if (command == name) return fn;
    }
    return nullptr;
}

/// Refuses every option that `command` does not read (exit 2), so a
/// foreign option cannot be silently ignored.  An unknown command is left
/// to run_cli, which reports it.
void check_options(const std::string& command, const Args& args) {
    if (find_command(command) == nullptr) return;
    for (const auto& [key, value] : args.options) {
        if (!lists_command(find_option(key)->commands, command)) {
            throw OptionError((key == "out" ? std::string("-o/--out") : "--" + key) +
                              " is not an option of '" + command + "'");
        }
    }
}

/// RAII for the global observability options (available on every
/// subcommand): `--trace out.json`, `--metrics out.json`, the
/// time-series sampler (`--sample-out/--sample-ndjson/--sample-period/
/// --sample-capacity/--openmetrics-out`) and the threshold watchdog
/// (`--watch-rules/--watch-out`).  Telemetry starts before the command
/// runs and the requested files are written afterwards — including on
/// the error path, so a failing run still leaves its trace behind.
class ObsSession {
public:
    ObsSession(const Args& args, std::ostream& err)
        : trace_path_(args.get("trace")),
          metrics_path_(args.get("metrics")),
          sample_out_(args.get("sample-out")) {
        if (!metrics_path_.empty()) obs::set_detail_enabled(true);
        if (!trace_path_.empty()) obs::start_tracing();

        if (args.has("watch-rules")) {
            watchdog_.emplace(io::load_watch_rules(args.get("watch-rules")));
            if (args.has("watch-out")) {
                watch_file_.open(args.get("watch-out"), std::ios::trunc);
                if (!watch_file_) {
                    throw IoError("cannot open '" + args.get("watch-out") +
                                  "' for watchdog events");
                }
                watchdog_->set_sink(&watch_file_);
            } else {
                watchdog_->set_sink(&err);  // NDJSON events, one per line
            }
        }

        const bool want_sampler = !sample_out_.empty() || args.has("sample-ndjson") ||
                                  args.has("openmetrics-out") || watchdog_.has_value();
        if (want_sampler) {
            obs::set_detail_enabled(true);  // sampled series should include histograms
            obs::TimeSeriesOptions options;
            options.period = std::chrono::milliseconds(integer_option<std::uint32_t>(
                args, "sample-period", static_cast<std::uint32_t>(options.period.count()), 1));
            options.capacity =
                integer_option<std::size_t>(args, "sample-capacity", options.capacity, 1);
            options.ndjson_path = args.get("sample-ndjson");
            options.openmetrics_path = args.get("openmetrics-out");
            sampler_.emplace(options);
            if (watchdog_) sampler_->attach_watchdog(&*watchdog_);
            sampler_->start();
        }
    }
    ~ObsSession() {
        if (sampler_) {
            sampler_->stop();
            sampler_->sample_now();  // final state: short commands still get an end point
            if (!sample_out_.empty()) {
                try {
                    io::save_text_file(sampler_->snapshot().to_json() + "\n", sample_out_);
                } catch (...) {  // a failed telemetry write never masks the outcome
                }
            }
        }
        if (!trace_path_.empty()) {
            obs::stop_tracing();
            try {
                io::save_text_file(obs::trace_to_json(), trace_path_);
            } catch (...) {
            }
        }
        if (!metrics_path_.empty()) {
            try {
                io::save_text_file(obs::Registry::global().snapshot().to_json() + "\n",
                                   metrics_path_);
            } catch (...) {
            }
        }
    }
    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

private:
    std::string trace_path_;
    std::string metrics_path_;
    std::string sample_out_;
    std::ofstream watch_file_;
    std::optional<obs::Watchdog> watchdog_;
    std::optional<obs::TimeSeriesSampler> sampler_;
};

}  // namespace

std::string usage() {
    return "usage: asilkit_cli <command> [arguments]\n"
           "\n"
           "commands:\n"
           "  demo <fig3|fig3-ccf|ecotwin|longitudinal> -o model.json\n"
           "  validate  model.json [--strict]\n"
           "  lint      model.json [--format text|json|sarif] [--rules config.json]\n"
           "            [-o report]   (exit: 0 clean, 3 warnings, 4 errors)\n"
           "  analyze   model.json [--approximate] [--hours H] [--metric 1|2|3]\n"
           "  simulate  model.json [--trials N] [--seed S] [--engine naive|bitparallel]\n"
           "            [--threads N] [--block N] [--is] [--is-bias Q] [--is-max-order K]\n"
           "            [--hours H] [--rate-scale X] [--format text|json]\n"
           "  ccf       model.json\n"
           "  tolerance model.json [--max-order K]\n"
           "  trace     model.json\n"
           "  fmea      model.json [--hours H]\n"
           "  advise    model.json [--strategy BB|AC|RND] [--branches N]\n"
           "  expand    model.json --node NAME [--strategy S] [--branches N] -o out.json\n"
           "  connect   model.json [--merger NAME | --all] -o out.json\n"
           "  reduce    model.json -o out.json\n"
           "  search    model.json [--metric M] [--max-nodes N] [--hours H]\n"
           "            [--approximate] [--threads N]\n"
           "            [--stream-front front.ndjson] [-o optimized.json]\n"
           "  explore   model.json --nodes a,b,c [--strategy S] [--metric M]\n"
           "            [--csv curve.csv] [--stream-front front.ndjson] [-o final.json]\n"
           "  export    model.json --layer app|resources|physical|ftree\n"
           "            [--format dot|graphml] -o out.dot\n"
           "  diff      before.json after.json\n"
           "  stats     [model.json] [--approximate] [--hours H] [--threads N]\n"
           "            [--format text|json|openmetrics]\n"
           "            [--profile] [--profile-format text|json|collapsed]\n"
           "            [--profile-out folded.txt]\n"
           "\n"
           "Options a command does not read are refused (exit 2).\n"
           "\n"
           "observability (any command):\n"
           "  --trace out.json         write a Chrome/Perfetto trace of the run\n"
           "  --metrics out.json       write a metrics-registry snapshot\n"
           "  --sample-out ts.json     sample the registry periodically; write the\n"
           "                           ring-buffered time series on exit\n"
           "  --sample-ndjson ts.ndjson  write one metrics line per sampler tick\n"
           "  --sample-period MS       sampler period (default 1000)\n"
           "  --sample-capacity N      points retained per series (default 600)\n"
           "  --openmetrics-out om.txt rewrite an OpenMetrics exposition per tick\n"
           "  --watch-rules rules.json evaluate threshold rules every tick\n"
           "  --watch-out events.ndjson  watchdog events (default: stderr)\n";
}

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
    try {
        const Args parsed = parse_args(args);
        if (parsed.positionals.empty() || parsed.has("help")) {
            out << usage();
            return parsed.positionals.empty() && !parsed.has("help") ? 2 : 0;
        }
        const std::string& command = parsed.positionals.front();
        check_options(command, parsed);
        const CommandFn run_command = find_command(command);
        if (run_command == nullptr) {
            err << "unknown command '" << command << "'\n" << usage();
            return 2;
        }
        const ObsSession obs_session(parsed, err);
        return run_command(parsed, out);
    } catch (const OptionError& e) {
        err << "error: " << e.what() << "\n";
        return 2;
    } catch (const Error& e) {
        err << "error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

}  // namespace asilkit::cli
