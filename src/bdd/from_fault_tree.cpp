#include "bdd/from_fault_tree.h"

#include <cmath>
#include <functional>
#include <unordered_map>

#include "obs/trace.h"

namespace asilkit::bdd {

using ftree::FaultTree;
using ftree::FtRef;
using ftree::GateKind;

std::vector<std::uint32_t> ft_variable_order(const FaultTree& ft) {
    // Index-addressed seen flags and a head-cursor queue.
    std::vector<std::uint32_t> order;
    std::vector<char> seen_events(ft.basic_events().size(), 0);
    std::vector<char> seen_gates(ft.gates().size(), 0);
    std::vector<FtRef> queue{ft.top()};
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const FtRef r = queue[head];
        if (r.kind == FtRef::Kind::Basic) {
            if (seen_events[r.index] == 0) {
                seen_events[r.index] = 1;
                order.push_back(r.index);
            }
            continue;
        }
        if (seen_gates[r.index] != 0) continue;
        seen_gates[r.index] = 1;
        for (FtRef c : ft.gate(r.index).children) queue.push_back(c);
    }
    return order;
}

CompiledFaultTree compile_fault_tree(const FaultTree& ft) {
    return compile_fault_tree(ft, ft_variable_order(ft));
}

CompiledFaultTree compile_fault_tree(const FaultTree& ft,
                                     const std::vector<std::uint32_t>& event_order) {
    CompiledFaultTree out{BddManager{static_cast<std::uint32_t>(event_order.size())}, kFalse,
                          event_order};
    std::unordered_map<std::uint32_t, std::uint32_t> var_of_event;
    for (std::uint32_t v = 0; v < event_order.size(); ++v) {
        var_of_event.emplace(event_order[v], v);
    }

    std::unordered_map<std::uint32_t, BddRef> gate_memo;
    std::function<BddRef(FtRef)> compile = [&](FtRef r) -> BddRef {
        if (r.kind == FtRef::Kind::Basic) {
            const auto it = var_of_event.find(r.index);
            if (it == var_of_event.end()) {
                throw AnalysisError("compile_fault_tree: event '" +
                                    ft.basic_event(r.index).name + "' missing from ordering");
            }
            return out.manager.variable(it->second);
        }
        if (auto it = gate_memo.find(r.index); it != gate_memo.end()) return it->second;
        const ftree::Gate& g = ft.gate(r.index);
        // A failure gate with no children has no failure mode: constant 0
        // for both gate kinds (fault-tree semantics, not boolean algebra).
        BddRef acc = kFalse;
        bool first = true;
        for (FtRef c : g.children) {
            const BddRef cb = compile(c);
            if (first) {
                acc = cb;
                first = false;
            } else {
                acc = out.manager.apply(g.kind == GateKind::Or ? BddOp::Or : BddOp::And, acc, cb);
            }
        }
        gate_memo.emplace(r.index, acc);
        return acc;
    };
    out.root = compile(ft.top());
    return out;
}

double basic_event_probability(double lambda, double hours) noexcept {
    return 1.0 - std::exp(-lambda * hours);
}

std::vector<double> CompiledFaultTree::variable_probabilities(const FaultTree& ft,
                                                              double hours) const {
    std::vector<double> probs;
    probs.reserve(event_of_var.size());
    for (std::uint32_t event : event_of_var) {
        probs.push_back(basic_event_probability(ft.basic_event(event).lambda, hours));
    }
    return probs;
}

ModuleEvalResult evaluate_module(const FaultTree& ft, const ftree::ModuleDecomposition& dec,
                                 std::size_t module_index,
                                 std::span<const double> child_probabilities,
                                 double mission_hours) {
    ModuleEvaluator evaluator;
    return evaluator.evaluate_module(ft, dec, module_index, child_probabilities, mission_hours);
}

// ---------------------------------------------------------------------------
// ModuleEvaluator

ModuleEvalResult ModuleEvaluator::evaluate_module(const FaultTree& ft,
                                                  const ftree::ModuleDecomposition& dec,
                                                  std::size_t module_index,
                                                  std::span<const double> child_probabilities,
                                                  double mission_hours) {
    const std::span<const double> child_probs[1] = {child_probabilities};
    ModuleEvalResult out[1];
    evaluate(ft, dec, module_index, {}, child_probs, mission_hours, out);
    return out[0];
}

void ModuleEvaluator::evaluate_module_lanes(
    const FaultTree& skeleton, const ftree::ModuleDecomposition& dec, std::size_t module_index,
    std::span<const std::span<const double>> lane_lambdas,
    std::span<const std::span<const double>> lane_child_probabilities, double mission_hours,
    std::span<ModuleEvalResult> out) {
    if (lane_lambdas.size() != lane_child_probabilities.size() ||
        out.size() != lane_lambdas.size()) {
        throw AnalysisError("evaluate_module_lanes: lane count mismatch");
    }
    for (const std::span<const double> lambdas : lane_lambdas) {
        if (lambdas.size() != skeleton.basic_events().size()) {
            throw AnalysisError("evaluate_module_lanes: lane rate count mismatch");
        }
    }
    evaluate(skeleton, dec, module_index, lane_lambdas, lane_child_probabilities, mission_hours,
             out);
}

void ModuleEvaluator::order(const FaultTree& ft, const ftree::ModuleDecomposition& dec,
                            const ftree::Module& mod) {
    if (++stamp_ == 0) {  // wrapped: no slot may carry a stale current stamp
        for (GateSlot& s : gates_) s.stamp = 0;
        for (EventSlot& s : events_) s.stamp = 0;
        stamp_ = 1;
    }
    if (gates_.size() < ft.gates().size()) gates_.resize(ft.gates().size());
    if (events_.size() < ft.basic_events().size()) events_.resize(ft.basic_events().size());
    leaves_.clear();
    real_events_ = 0;
    for (std::size_t i = 0; i < mod.child_modules.size(); ++i) {
        gate_slot(dec.modules[mod.child_modules[i]].root.index).pseudo =
            static_cast<std::uint32_t>(i);
    }
    gate_slot(mod.root.index).queued = true;
    queue_.assign(1, mod.root);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
        for (const FtRef c : ft.gate(queue_[head].index).children) {
            if (c.kind == FtRef::Kind::Basic) {
                EventSlot& e = events_[c.index];
                if (e.stamp != stamp_) {
                    e = EventSlot{stamp_, static_cast<std::uint32_t>(leaves_.size())};
                    leaves_.push_back({false, c.index});
                    ++real_events_;
                }
                continue;
            }
            GateSlot& g = gate_slot(c.index);
            if (g.pseudo != kNone) {
                if (g.var == kNone) {
                    g.var = static_cast<std::uint32_t>(leaves_.size());
                    leaves_.push_back({true, g.pseudo});
                }
                continue;
            }
            if (!g.queued) {
                g.queued = true;
                queue_.push_back(c);
            }
        }
    }
}

BddRef ModuleEvaluator::compile(const FaultTree& ft, FtRef r) {
    if (r.kind == FtRef::Kind::Basic) return manager_.variable(events_[r.index].var);
    // Every gate reached here was stamped by order(): the region's
    // interior gates and the nested-module roots that bound it.
    GateSlot& slot = gates_[r.index];
    if (slot.pseudo != kNone) return manager_.variable(slot.var);
    if (slot.compiled) return slot.bdd;
    const ftree::Gate& g = ft.gate(r.index);
    const BddOp op = g.kind == GateKind::Or ? BddOp::Or : BddOp::And;
    // A failure gate with no children has no failure mode: constant 0.
    BddRef acc = kFalse;
    bool first = true;
    for (const FtRef c : g.children) {
        const BddRef cb = compile(ft, c);
        acc = first ? cb : manager_.apply(op, acc, cb);
        first = false;
    }
    slot.compiled = true;
    slot.bdd = acc;
    return acc;
}

void ModuleEvaluator::evaluate(const FaultTree& ft, const ftree::ModuleDecomposition& dec,
                               std::size_t module_index,
                               std::span<const std::span<const double>> lane_lambdas,
                               std::span<const std::span<const double>> lane_child_probabilities,
                               double mission_hours, std::span<ModuleEvalResult> out) {
    const std::size_t k = lane_child_probabilities.size();
    if (k == 0) throw AnalysisError("evaluate_module_lanes: no lanes");
    const ftree::Module& mod = dec.modules.at(module_index);
    for (std::size_t j = 0; j < k; ++j) {
        if (lane_child_probabilities[j].size() != mod.child_modules.size()) {
            throw AnalysisError("evaluate_module: child probability count mismatch");
        }
    }
    // Lane j's rate of event e: its own span's, or the tree's.
    const auto lambda = [&](std::size_t j, std::uint32_t e) {
        return lane_lambdas.empty() ? ft.basic_event(e).lambda : lane_lambdas[j][e];
    };
    if (mod.root.kind == FtRef::Kind::Basic) {
        // Leaf module: the whole tree is one basic event (per-lane rate).
        (void)ft.basic_event(mod.root.index);  // range check
        for (std::size_t j = 0; j < k; ++j) {
            out[j].probability = basic_event_probability(lambda(j, mod.root.index), mission_hours);
            out[j].variables = 1;
            out[j].bdd_nodes = 1;
            out[j].bdd_total_nodes = 1;
        }
        return;
    }

    const obs::ObsSpan span("evaluate_module", "bdd", "module",
                            static_cast<double>(module_index));
    order(ft, dec, mod);
    const std::size_t nvars = leaves_.size();
    manager_.reset(static_cast<std::uint32_t>(nvars));
    const BddRef root = compile(ft, mod.root);

    // One probability vector per lane, in the shared variable order:
    // the lanes share the skeleton and differ only in rates (and
    // pseudo-variable probabilities), so event/child indices address
    // every lane.
    lanes_.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
        ProbVector& lane = lanes_[j];
        lane.resize(nvars);
        for (std::size_t v = 0; v < nvars; ++v) {
            const Leaf& leaf = leaves_[v];
            lane[v] = leaf.pseudo ? lane_child_probabilities[j][leaf.index]
                                  : basic_event_probability(lambda(j, leaf.index), mission_hours);
        }
    }
    lane_out_.resize(k);
    manager_.probability_batch(root, std::span<const ProbVector>(lanes_.data(), k), lane_out_);
    const std::size_t reachable = manager_.node_count(root);
    for (std::size_t j = 0; j < k; ++j) {
        out[j].probability = lane_out_[j];
        out[j].bdd_nodes = reachable;
        out[j].bdd_total_nodes = manager_.size();
        out[j].variables = real_events_;
    }
    manager_.flush_obs();
}

}  // namespace asilkit::bdd
