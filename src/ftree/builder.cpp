#include "ftree/builder.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "ftree/cft.h"
#include "model/blocks.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::ftree {
namespace {

/// `prefix` + `name` in one allocation.
[[nodiscard]] std::string prefixed(std::string_view prefix, std::string_view name) {
    std::string out;
    out.reserve(prefix.size() + name.size());
    out.append(prefix).append(name);
    return out;
}

/// Collects the base-event names an application node would contribute
/// (used for the branch-independence check before approximating a block).
void collect_event_names(const ArchitectureModel& m, NodeId n, bool with_locations,
                         std::unordered_set<std::string>& out) {
    for (ResourceId r : m.mapped_resources(n)) {
        out.insert(prefixed(kResourceEventPrefix, m.resources().node(r).name));
        if (with_locations) {
            for (LocationId p : m.resource_locations(r)) {
                out.insert(prefixed(kLocationEventPrefix, m.physical().node(p).name));
            }
        }
    }
}

class Builder {
public:
    using FragmentSource = std::function<const ComponentFragment*(NodeId)>;

    Builder(const ArchitectureModel& m, const FtBuildOptions& options,
            const FragmentSource* fragments = nullptr)
        : m_(m), options_(options), fragments_(fragments) {}

    FtBuildResult run() {
        const std::vector<NodeId> ids = m_.app().node_ids();
        // Node ids are slot indices, so per-node traversal state is flat.
        const std::size_t id_bound = ids.empty() ? 0 : ids.back().value() + 1;
        visit_.assign(id_bound, Visit::New);
        gate_of_.assign(id_bound, FtRef{});
        // One gate per node, one more per merger input, one system top;
        // at most every intrinsic event distinct.
        std::size_t events = 0;
        std::size_t gates = 1;
        std::vector<NodeId> actuators;
        std::vector<NodeId> qm_actuators;
        for (NodeId n : ids) {
            const AppNode& node = m_.app().node(n);
            events += intrinsic_event_count(n);
            gates += node.kind == NodeKind::Merger ? 2 : 1;
            if (node.kind != NodeKind::Actuator) continue;
            if (node.asil.level == Asil::QM && !options_.include_qm_actuators) {
                qm_actuators.push_back(n);
            } else {
                actuators.push_back(n);
            }
        }
        result_.tree.reserve(events, gates);
        if (actuators.empty()) actuators = std::move(qm_actuators);
        if (actuators.empty()) {
            throw AnalysisError("fault-tree generation requires at least one actuator node");
        }
        if (options_.approximate) index_blocks();

        std::vector<FtRef> tops;
        for (NodeId a : actuators) {
            if (auto g = gate_for(a)) tops.push_back(*g);
        }
        if (tops.size() == 1) {
            result_.tree.set_top(tops.front());
        } else {
            result_.tree.set_top(result_.tree.add_gate("system_failure", GateKind::Or, tops));
        }
        return std::move(result_);
    }

private:
    /// Caches the block headed by each merger and whether it may be
    /// approximated (well-formed + branch base-event independence).
    void index_blocks() {
        for (RedundantBlock& block : find_redundant_blocks(m_)) {
            bool collapsible = block.well_formed;
            if (collapsible) {
                // Branch independence: pairwise disjoint base-event sets.
                std::vector<std::unordered_set<std::string>> branch_events;
                for (const Branch& b : block.branches) {
                    std::unordered_set<std::string> events;
                    for (NodeId n : b.nodes) {
                        collect_event_names(m_, n, options_.include_location_events, events);
                    }
                    branch_events.push_back(std::move(events));
                }
                for (std::size_t i = 0; collapsible && i < branch_events.size(); ++i) {
                    for (std::size_t j = i + 1; collapsible && j < branch_events.size(); ++j) {
                        for (const std::string& e : branch_events[i]) {
                            if (branch_events[j].contains(e)) {
                                result_.warnings.push_back(
                                    "approximation disabled for block at merger '" +
                                    m_.app().node(block.merger).name +
                                    "': branches share base event '" + e +
                                    "' (potential common cause fault)");
                                collapsible = false;
                                break;
                            }
                        }
                    }
                }
                for (const Branch& b : block.branches) {
                    if (b.feeding_splitters.empty()) collapsible = false;
                }
            }
            const NodeId merger = block.merger;
            blocks_.emplace(merger, std::pair{std::move(block), collapsible});
        }
    }

    [[nodiscard]] const ComponentFragment* fragment_of(NodeId n) const {
        return fragments_ != nullptr ? (*fragments_)(n) : nullptr;
    }

    /// The number of intrinsic events `n` contributes, duplicates included.
    [[nodiscard]] std::size_t intrinsic_event_count(NodeId n) const {
        if (const ComponentFragment* fragment = fragment_of(n)) return fragment->events.size();
        std::size_t count = 0;
        for (const ResourceId r : m_.mapped_resources(n)) {
            count += 1 + (options_.include_location_events ? m_.resource_locations(r).size() : 0);
        }
        return count;
    }

    /// The event `prefix` + `name`; the name is composed in a reused
    /// buffer, so an event that already exists costs no allocation.
    FtRef add_event(const char* prefix, const std::string& name, double lambda) {
        name_buffer_.assign(prefix).append(name);
        return result_.tree.add_basic_event(std::string_view(name_buffer_), lambda);
    }

    /// Adds the intrinsic base events of `n` to `children`.  When a
    /// fragment source is wired in (assemble_fault_tree), the pre-built
    /// fragment replaces the model/rate-table lookups; the events replay
    /// through add_basic_event in the same order, so the arena is
    /// bitwise identical to the model-driven path.
    void add_intrinsic_events(NodeId n, std::vector<FtRef>& children) {
        if (const ComponentFragment* fragment = fragment_of(n)) {
            if (fragment->no_resource) {
                result_.warnings.push_back(
                    "node '" + m_.app().node(n).name +
                    "' has no mapped resource; it contributes no base event");
            }
            for (const BasicEvent& e : fragment->events) {
                children.push_back(result_.tree.add_basic_event(std::string_view(e.name), e.lambda));
            }
        } else {
            const auto& resources = m_.mapped_resources(n);
            if (resources.empty()) {
                result_.warnings.push_back(
                    "node '" + m_.app().node(n).name +
                    "' has no mapped resource; it contributes no base event");
            }
            for (ResourceId r : resources) {
                const Resource& res = m_.resources().node(r);
                children.push_back(add_event(kResourceEventPrefix, res.name,
                                             options_.rates.resource_rate(res)));
                if (options_.include_location_events) {
                    for (LocationId p : m_.resource_locations(r)) {
                        const Location& loc = m_.physical().node(p);
                        children.push_back(add_event(kLocationEventPrefix, loc.name,
                                                     options_.rates.location_rate(loc)));
                    }
                }
            }
        }
        // A resource mapped twice (e.g. a node on two shared ECUs in one
        // location) must not OR the same event twice; dedup keeps gate
        // child lists canonical.
        std::sort(children.begin(), children.end(), [](FtRef a, FtRef b) {
            return std::pair{a.kind, a.index} < std::pair{b.kind, b.index};
        });
        children.erase(std::unique(children.begin(), children.end()), children.end());
    }

    /// OR of a gate set, hash-consed on the (sorted, deduplicated) child
    /// set so that structurally identical inputs yield the same FtRef.
    FtRef or_of(std::vector<FtRef> gates, const std::string& name) {
        std::sort(gates.begin(), gates.end(), [](FtRef a, FtRef b) {
            return std::pair{a.kind, a.index} < std::pair{b.kind, b.index};
        });
        gates.erase(std::unique(gates.begin(), gates.end()), gates.end());
        if (gates.size() == 1) return gates.front();
        std::vector<std::uint64_t> key;
        key.reserve(gates.size());
        for (FtRef g : gates) {
            key.push_back((static_cast<std::uint64_t>(g.kind) << 32) | g.index);
        }
        if (auto it = or_cache_.find(key); it != or_cache_.end()) return it->second;
        const FtRef gate = result_.tree.add_gate(name, GateKind::Or, std::move(gates));
        or_cache_.emplace(std::move(key), gate);
        return gate;
    }

    /// Failure gate of application node `n`; nullopt when `n` is on the
    /// current traversal stack (cycle cut).
    std::optional<FtRef> gate_for(NodeId n) {
        const std::uint32_t i = n.value();
        if (visit_[i] == Visit::Done) return gate_of_[i];
        if (visit_[i] == Visit::OnStack) {
            ++result_.cycles_cut;
            return std::nullopt;
        }
        visit_[i] = Visit::OnStack;
        const AppNode& node = m_.app().node(n);
        const bool is_merger = node.kind == NodeKind::Merger;
        const auto& inputs = m_.app().in_edges(n);

        std::vector<FtRef> children;
        children.reserve(intrinsic_event_count(n) + (is_merger ? 1 : inputs.size()));
        add_intrinsic_events(n, children);

        if (is_merger) {
            if (auto child = merger_input_gate(n)) children.push_back(*child);
        } else {
            for (const ChannelId e : inputs) {
                if (auto g = gate_for(m_.app().edge(e).source)) children.push_back(*g);
            }
        }

        const FtRef gate = result_.tree.add_gate(prefixed(kNodeGatePrefix, node.name),
                                                 GateKind::Or, std::move(children));
        visit_[i] = Visit::Done;
        gate_of_[i] = gate;
        return gate;
    }

    /// The AND gate over a merger's redundant inputs — collapsed to the
    /// feeding splitters when the Section V approximation applies.
    std::optional<FtRef> merger_input_gate(NodeId merger) {
        const AppNode& node = m_.app().node(merger);
        if (options_.approximate) {
            if (auto it = blocks_.find(merger); it != blocks_.end() && it->second.second) {
                const RedundantBlock& block = it->second.first;
                // One input per branch: the (OR of the) splitter gates that
                // feed it.  Branches fed by the same splitters collapse to
                // the SAME gate, and AND(g, g) == g, so the AND is dropped
                // when every branch reduces to one shared input — this is
                // what halves the path count per decomposition (Sec. V).
                std::vector<FtRef> branch_inputs;
                for (const Branch& b : block.branches) {
                    std::vector<FtRef> splitter_gates;
                    for (NodeId s : b.feeding_splitters) {
                        if (auto g = gate_for(s)) splitter_gates.push_back(*g);
                    }
                    if (splitter_gates.empty()) continue;
                    branch_inputs.push_back(or_of(splitter_gates, prefixed("approx_in:", node.name)));
                }
                std::sort(branch_inputs.begin(), branch_inputs.end(), [](FtRef a, FtRef b) {
                    return std::pair{a.kind, a.index} < std::pair{b.kind, b.index};
                });
                branch_inputs.erase(std::unique(branch_inputs.begin(), branch_inputs.end()),
                                    branch_inputs.end());
                ++result_.approximated_blocks;
                if (branch_inputs.empty()) return std::nullopt;
                if (branch_inputs.size() == 1) return branch_inputs.front();
                return result_.tree.add_gate(prefixed("and:", node.name), GateKind::And,
                                             std::move(branch_inputs));
            }
        }
        const auto& in_edges = m_.app().in_edges(merger);
        std::vector<FtRef> inputs;
        inputs.reserve(in_edges.size());
        for (const ChannelId e : in_edges) {
            if (auto g = gate_for(m_.app().edge(e).source)) inputs.push_back(*g);
        }
        if (inputs.empty()) return std::nullopt;
        return result_.tree.add_gate(prefixed("and:", node.name), GateKind::And, std::move(inputs));
    }

    const ArchitectureModel& m_;
    const FtBuildOptions& options_;
    const FragmentSource* fragments_ = nullptr;
    FtBuildResult result_;
    /// Per node id: the traversal state and, once Done, the failure gate.
    enum class Visit : std::uint8_t { New, OnStack, Done };
    std::vector<Visit> visit_;
    std::vector<FtRef> gate_of_;
    std::string name_buffer_;
    std::unordered_map<NodeId, std::pair<RedundantBlock, bool>> blocks_;
    std::map<std::vector<std::uint64_t>, FtRef> or_cache_;
};

/// Shared book-keeping for both build entry points: tree counters plus
/// the gate-construction counter the incremental benchmarks read.
void record_build(const FtBuildResult& result) {
    static obs::Counter& trees = obs::Registry::global().counter("ftree.trees_built");
    static obs::Counter& gates = obs::Registry::global().counter("ftree.gates_built");
    static obs::Counter& cycles = obs::Registry::global().counter("ftree.cycles_cut");
    static obs::Counter& approx = obs::Registry::global().counter("ftree.approx_blocks");
    static obs::Gauge& tree_nodes = obs::Registry::global().gauge("ftree.tree_nodes");
    trees.inc();
    gates.add(result.tree.gates().size());
    cycles.add(result.cycles_cut);
    approx.add(result.approximated_blocks);
    tree_nodes.set(static_cast<double>(result.tree.basic_events().size() +
                                       result.tree.gates().size()));
}

}  // namespace

FtBuildResult build_fault_tree(const ArchitectureModel& m, const FtBuildOptions& options) {
    const obs::ObsSpan span("build_fault_tree", "ftree");
    FtBuildResult result = Builder(m, options).run();
    record_build(result);
    return result;
}

FtBuildResult assemble_fault_tree(
    const ArchitectureModel& m, const FtBuildOptions& options,
    const std::function<const ComponentFragment*(NodeId)>& fragment_of) {
    FtBuildResult result = Builder(m, options, &fragment_of).run();
    record_build(result);
    return result;
}

}  // namespace asilkit::ftree
