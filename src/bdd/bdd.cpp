#include "bdd/bdd.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace asilkit::bdd {
namespace {

/// Initial capacity of the unique table and of each apply cache for a
/// diagram over `variable_count` variables: 16 slots per variable,
/// rounded up to a power of two from 64 to 1024.  Module diagrams create
/// about 5-8 nodes and 7-10 apply entries per variable, so 16 keeps a
/// typical module under the 70 % load limit; diagrams that outgrow it
/// grow their tables.  The apply cache is a memo that never evicts, so
/// its starting size changes neither results, node numbering nor hit
/// counts.
[[nodiscard]] std::size_t initial_table_capacity(std::uint32_t variable_count) noexcept {
    constexpr std::size_t kMin = 1 << 6;
    constexpr std::size_t kMax = 1 << 10;
    return std::min(kMax, std::bit_ceil(std::max(kMin, 16 * std::size_t{variable_count})));
}

/// Grow when a table passes ~70 % occupancy.
[[nodiscard]] constexpr bool over_load(std::size_t entries, std::size_t capacity) noexcept {
    return entries * 10 >= capacity * 7;
}

[[nodiscard]] constexpr std::uint64_t pack_pair(BddRef f, BddRef g) noexcept {
    return (static_cast<std::uint64_t>(f) << 32) | g;
}

/// One node's Shannon step across all lanes.  Kept out-of-line with
/// fixed-width inner blocks: in this standalone shape the -O2 cost
/// model vectorises the block loop, which it refuses to do once the
/// body is inlined into the gather/transpose control flow of
/// probability_batch.  Per-element arithmetic matches probability()
/// verbatim, so lane results stay bitwise identical.
__attribute__((noinline)) void sweep_node_lanes(const double* __restrict pv,
                                                const double* __restrict vh,
                                                const double* __restrict vl,
                                                double* __restrict ov, std::size_t k) {
    std::size_t j = 0;
    for (; j + 8 <= k; j += 8) {
        for (std::size_t u = 0; u < 8; ++u) {
            const double p = pv[j + u];
            ov[j + u] = p * vh[j + u] + (1.0 - p) * vl[j + u];
        }
    }
    for (; j < k; ++j) {
        const double p = pv[j];
        ov[j] = p * vh[j] + (1.0 - p) * vl[j];
    }
}

}  // namespace

BddManager::BddManager(std::uint32_t variable_count) : variable_count_(variable_count) {
    nodes_.push_back(Node{variable_count_, kFalse, kFalse});  // terminal 0
    nodes_.push_back(Node{variable_count_, kTrue, kTrue});    // terminal 1
    const std::size_t capacity = initial_table_capacity(variable_count_);
    unique_.slots.assign(capacity, kFalse);
    for (ApplyCache& cache : apply_cache_) cache.slots.assign(capacity, ApplyCache::Slot{});
}

void BddManager::reset(std::uint32_t variable_count) {
    bank_nodes_created();
    variable_count_ = variable_count;
    nodes_.resize(2);
    nodes_[kFalse].var = variable_count_;
    nodes_[kTrue].var = variable_count_;
    // assign() to the initial capacity keeps any larger buffer but writes
    // only the slots this diagram starts with: the reset pays neither for
    // a table an earlier, larger diagram grew nor for a 1024-slot table
    // under a module of a few dozen nodes.
    const std::size_t capacity = initial_table_capacity(variable_count_);
    unique_.slots.assign(capacity, kFalse);
    unique_.entries = 0;
    for (ApplyCache& cache : apply_cache_) {
        cache.slots.assign(capacity, ApplyCache::Slot{});
        cache.entries = 0;
    }
    prob_memo_.clear();
    prob_vec_.clear();
    prob_valid_ = 0;
    batch_cached_root_ = kFalse;
}

BddRef BddManager::variable(std::uint32_t var) {
    if (var >= variable_count_) throw AnalysisError("bdd: variable index out of range");
    return make(var, kTrue, kFalse);
}

BddRef BddManager::make(std::uint32_t var, BddRef high, BddRef low) {
    if (high == low) return high;  // reduction rule
    return unique_lookup_or_insert(var, high, low);
}

BddRef BddManager::unique_lookup_or_insert(std::uint32_t var, BddRef high, BddRef low) {
    if (over_load(unique_.entries, unique_.slots.size())) unique_grow();
    const std::size_t mask = unique_.slots.size() - 1;
    std::size_t i = static_cast<std::size_t>(detail::mix_node_key(var, high, low)) & mask;
    for (;; i = (i + 1) & mask) {
        const BddRef ref = unique_.slots[i];
        if (ref == kFalse) break;  // empty slot: not present
        const Node& n = nodes_[ref];
        if (n.var == var && n.high == high && n.low == low) return ref;
    }
    const auto ref = static_cast<BddRef>(nodes_.size());
    nodes_.push_back(Node{var, high, low});
    unique_.slots[i] = ref;
    ++unique_.entries;
    return ref;
}

void BddManager::unique_grow() {
    ++obs_tally_.unique_resizes;
    obs::trace_instant("unique_grow", "bdd", "capacity",
                       static_cast<double>(unique_.slots.size() * 2));
    std::vector<BddRef> old = std::move(unique_.slots);
    unique_.slots.assign(old.size() * 2, kFalse);
    const std::size_t mask = unique_.slots.size() - 1;
    for (const BddRef ref : old) {
        if (ref == kFalse) continue;
        const Node& n = nodes_[ref];
        std::size_t i = static_cast<std::size_t>(detail::mix_node_key(n.var, n.high, n.low)) & mask;
        while (unique_.slots[i] != kFalse) i = (i + 1) & mask;
        unique_.slots[i] = ref;
    }
}

BddRef* BddManager::apply_slot(ApplyCache& cache, std::uint64_t key) {
    if (over_load(cache.entries, cache.slots.size())) apply_grow(cache);
    const std::size_t mask = cache.slots.size() - 1;
    std::size_t i = static_cast<std::size_t>(detail::mix64(key)) & mask;
    while (cache.slots[i].key != 0 && cache.slots[i].key != key) i = (i + 1) & mask;
    if (cache.slots[i].key == 0) {
        cache.slots[i].key = key;
        ++cache.entries;
    }
    return &cache.slots[i].result;
}

void BddManager::apply_grow(ApplyCache& cache) {
    ++obs_tally_.apply_resizes;
    obs::trace_instant("apply_grow", "bdd", "capacity",
                       static_cast<double>(cache.slots.size() * 2));
    std::vector<ApplyCache::Slot> old = std::move(cache.slots);
    cache.slots.assign(old.size() * 2, ApplyCache::Slot{});
    const std::size_t mask = cache.slots.size() - 1;
    for (const ApplyCache::Slot& s : old) {
        if (s.key == 0) continue;
        std::size_t i = static_cast<std::size_t>(detail::mix64(s.key)) & mask;
        while (cache.slots[i].key != 0) i = (i + 1) & mask;
        cache.slots[i] = s;
    }
}

BddRef BddManager::apply(BddOp op, BddRef f, BddRef g) {
    // Terminal cases.
    if (op == BddOp::Or) {
        if (f == kTrue || g == kTrue) return kTrue;
        if (f == kFalse) return g;
        if (g == kFalse) return f;
        if (f == g) return f;
    } else {
        if (f == kFalse || g == kFalse) return kFalse;
        if (f == kTrue) return g;
        if (g == kTrue) return f;
        if (f == g) return f;
    }
    // Both operations are commutative: canonicalise the cache key.  Both
    // operands are interior nodes here (>= 2), so the packed key is
    // nonzero and can use 0 as the empty-slot marker.
    const std::uint64_t key = pack_pair(std::min(f, g), std::max(f, g));
    ApplyCache& cache = apply_cache_[static_cast<std::size_t>(op)];
    // Plain (non-atomic) tallies on the hot path: a manager is
    // single-threaded, so these cost one register add each and are folded
    // into the global registry by flush_obs() at evaluation boundaries.
    ++obs_tally_.apply_lookups;
    {
        const std::size_t mask = cache.slots.size() - 1;
        std::size_t i = static_cast<std::size_t>(detail::mix64(key)) & mask;
        for (; cache.slots[i].key != 0; i = (i + 1) & mask) {
            if (cache.slots[i].key == key) {
                ++obs_tally_.apply_hits;
                return cache.slots[i].result;
            }
        }
    }

    const std::uint32_t vf = var_of(f);
    const std::uint32_t vg = var_of(g);
    const std::uint32_t v = std::min(vf, vg);
    // Paper Eq. 1 (X < Y): recurse into the smaller variable only;
    // Eq. 2 (X == Y): recurse into both cofactors.
    const BddRef f_high = vf == v ? nodes_[f].high : f;
    const BddRef f_low = vf == v ? nodes_[f].low : f;
    const BddRef g_high = vg == v ? nodes_[g].high : g;
    const BddRef g_low = vg == v ? nodes_[g].low : g;

    const BddRef high = apply(op, f_high, g_high);
    const BddRef low = apply(op, f_low, g_low);
    const BddRef result = make(v, high, low);
    // Insert after the recursion: the recursive calls may have grown the
    // cache, so the slot is located now (pointers would be stale).
    *apply_slot(cache, key) = result;
    return result;
}

BddRef BddManager::apply_not(BddRef f) {
    if (f == kFalse) return kTrue;
    if (f == kTrue) return kFalse;
    // Negation via Shannon expansion; memoised through the unique table
    // only (negation is rare in fault trees — used by importance
    // measures), so a local cache per call suffices.
    std::unordered_map<BddRef, BddRef> memo;
    std::function<BddRef(BddRef)> rec = [&](BddRef x) -> BddRef {
        if (x == kFalse) return kTrue;
        if (x == kTrue) return kFalse;
        if (auto it = memo.find(x); it != memo.end()) return it->second;
        const Node& n = nodes_[x];
        const BddRef r = make(n.var, rec(n.high), rec(n.low));
        memo.emplace(x, r);
        return r;
    };
    return rec(f);
}

double BddManager::probability(BddRef f, std::span<const double> var_probability) const {
    if (var_probability.size() != variable_count_) {
        throw AnalysisError("bdd: probability vector size != variable count");
    }
    // The memo is only valid under the exact probability vector it was
    // swept with.  Compare the retained copy bit-for-bit (memcmp over
    // the raw doubles): a hash fingerprint of the vector can collide and
    // would then silently serve per-node probabilities of a *different*
    // vector (regression-tested with a forced collision in
    // tests/test_bdd.cpp).  The compare is O(variables), vanishing next
    // to the O(nodes) sweep it guards.
    const bool same_vector =
        prob_vec_.size() == var_probability.size() &&
        (var_probability.empty() ||
         std::memcmp(prob_vec_.data(), var_probability.data(),
                     var_probability.size() * sizeof(double)) == 0);
    if (!same_vector || prob_memo_.size() < 2) {
        prob_vec_.assign(var_probability.begin(), var_probability.end());
        prob_memo_.assign(2, 0.0);
        prob_memo_[kTrue] = 1.0;
        prob_valid_ = 2;
    }
    // Children precede parents in the arena, so one bottom-up sweep over
    // the not-yet-evaluated suffix covers every node (including f).
    if (prob_valid_ < nodes_.size()) {
        prob_memo_.resize(nodes_.size());
        for (std::size_t i = prob_valid_; i < nodes_.size(); ++i) {
            const Node& n = nodes_[i];
            const double p = var_probability[n.var];
            prob_memo_[i] = p * prob_memo_[n.high] + (1.0 - p) * prob_memo_[n.low];
        }
        prob_valid_ = nodes_.size();
    }
    return prob_memo_[f];
}

void BddManager::gather(BddRef f) const {
    // Visit stamps are epoch-bumped (no O(arena) clear), so the gather
    // costs O(reachable) however large the arena is.
    if (batch_cached_root_ == f && batch_cached_arena_ == nodes_.size()) return;
    if (batch_stamp_.size() < nodes_.size()) {
        batch_stamp_.resize(nodes_.size(), 0);
        batch_pos_.resize(nodes_.size());
    }
    ++batch_epoch_;
    batch_refs_.clear();
    batch_refs_.push_back(f);
    batch_stamp_[f] = batch_epoch_;
    for (std::size_t head = 0; head < batch_refs_.size(); ++head) {
        const Node& n = nodes_[batch_refs_[head]];
        for (const BddRef child : {n.high, n.low}) {
            if (is_terminal(child) || batch_stamp_[child] == batch_epoch_) continue;
            batch_stamp_[child] = batch_epoch_;
            batch_refs_.push_back(child);
        }
    }
    // Ascending ref order is a topological order (children precede
    // parents in the arena), exactly like probability()'s suffix sweep.
    std::sort(batch_refs_.begin(), batch_refs_.end());
    std::uint32_t max_var = 0;
    for (std::size_t i = 0; i < batch_refs_.size(); ++i) {
        const Node& n = nodes_[batch_refs_[i]];
        if (n.var > max_var) max_var = n.var;
        batch_pos_[batch_refs_[i]] = static_cast<std::uint32_t>(i + 2);
    }
    batch_pos_[kFalse] = 0;
    batch_pos_[kTrue] = 1;
    batch_cached_root_ = f;
    batch_cached_arena_ = nodes_.size();
    batch_cached_max_var_ = max_var;
}

std::vector<double> BddManager::probability_batch(BddRef f,
                                                  std::span<const ProbVector> lanes) const {
    std::vector<double> out(lanes.size());
    probability_batch(f, lanes, out);
    return out;
}

void BddManager::probability_batch(BddRef f, std::span<const ProbVector> lanes,
                                   std::span<double> out) const {
    const std::size_t k = lanes.size();
    if (k == 0) throw AnalysisError("bdd: probability_batch needs at least one lane");
    if (out.size() != k) throw AnalysisError("bdd: probability_batch output size != lane count");
    const std::size_t lane_vars = lanes.front().size();
    for (const ProbVector& lane : lanes) {
        if (lane.size() != lane_vars) {
            throw AnalysisError("bdd: probability_batch lanes differ in length");
        }
    }
    if (is_terminal(f)) {
        std::fill(out.begin(), out.end(), f == kTrue ? 1.0 : 0.0);
        return;
    }

    gather(f);
    if (batch_cached_max_var_ >= lane_vars) {
        throw AnalysisError("bdd: probability_batch lane shorter than reachable variables");
    }

    // Transpose the lanes to var-major so one node visit reads its k
    // probabilities from one contiguous run.
    batch_probs_.resize(lane_vars * k);
    for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t v = 0; v < lane_vars; ++v) batch_probs_[v * k + j] = lanes[j][v];
    }

    // Node-major SoA sweep: slot i+2 holds node i's k per-lane values.
    // Each lane's arithmetic is the probability() expression verbatim,
    // so the results are bitwise identical to k independent sweeps.
    batch_values_.resize((batch_refs_.size() + 2) * k);
    std::fill_n(batch_values_.begin(), k, 0.0);
    std::fill_n(batch_values_.begin() + static_cast<std::ptrdiff_t>(k), k, 1.0);
    for (std::size_t i = 0; i < batch_refs_.size(); ++i) {
        const Node& n = nodes_[batch_refs_[i]];
        // The slots are provably disjoint (children precede parents, so
        // vh/vl index below slot i+2); __restrict lets the lane loop
        // vectorize.
        sweep_node_lanes(&batch_probs_[static_cast<std::size_t>(n.var) * k],
                         &batch_values_[static_cast<std::size_t>(batch_pos_[n.high]) * k],
                         &batch_values_[static_cast<std::size_t>(batch_pos_[n.low]) * k],
                         &batch_values_[(i + 2) * k], k);
    }
    const double* rv = &batch_values_[static_cast<std::size_t>(batch_pos_[f]) * k];
    std::copy_n(rv, k, out.begin());
}

std::size_t BddManager::node_count(BddRef f) const {
    if (is_terminal(f)) return 0;
    gather(f);
    return batch_refs_.size();
}

void BddManager::bank_nodes_created() const {
    if (nodes_.size() > obs_nodes_flushed_) {
        obs_tally_.nodes_created += nodes_.size() - obs_nodes_flushed_;
    }
    obs_nodes_flushed_ = 2;
}

bool BddManager::evaluate(BddRef f, const std::vector<bool>& assignment) const {
    if (assignment.size() != variable_count_) {
        throw AnalysisError("bdd: assignment size != variable count");
    }
    BddRef x = f;
    while (!is_terminal(x)) {
        const Node& n = nodes_[x];
        x = assignment[n.var] ? n.high : n.low;
    }
    return x == kTrue;
}

BddManager::NodeView BddManager::node(BddRef f) const {
    if (is_terminal(f) || f >= nodes_.size()) {
        throw AnalysisError("bdd: node() on terminal or invalid ref");
    }
    const Node& n = nodes_[f];
    return NodeView{n.var, n.high, n.low};
}

void BddManager::flush_obs() const {
    static obs::Counter& lookups = obs::Registry::global().counter("bdd.apply_lookups");
    static obs::Counter& hits = obs::Registry::global().counter("bdd.apply_hits");
    static obs::Counter& unique_resizes = obs::Registry::global().counter("bdd.unique_resizes");
    static obs::Counter& apply_resizes = obs::Registry::global().counter("bdd.apply_resizes");
    static obs::Counter& nodes_created = obs::Registry::global().counter("bdd.nodes_created");
    static obs::Gauge& high_water = obs::Registry::global().gauge("bdd.node_high_water");
    static obs::Gauge& load_factor = obs::Registry::global().gauge("bdd.unique_load_factor");

    lookups.add(obs_tally_.apply_lookups);
    hits.add(obs_tally_.apply_hits);
    unique_resizes.add(obs_tally_.unique_resizes);
    apply_resizes.add(obs_tally_.apply_resizes);

    // Arena growth since the last flush (the baseline starts past the two
    // terminals, which are storage, not created nodes), plus any growth
    // reset() banked before shrinking the arena.
    std::uint64_t created = obs_tally_.nodes_created;
    if (nodes_.size() > obs_nodes_flushed_) {
        created += nodes_.size() - obs_nodes_flushed_;
        obs_nodes_flushed_ = nodes_.size();
    }
    if (created != 0) nodes_created.add(created);
    obs_tally_ = ObsTally{};
    high_water.set_max(static_cast<double>(size()));
    if (!unique_.slots.empty()) {
        load_factor.set(static_cast<double>(unique_.entries) /
                        static_cast<double>(unique_.slots.size()));
    }
}

}  // namespace asilkit::bdd
