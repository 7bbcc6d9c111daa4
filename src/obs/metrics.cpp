#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>

namespace asilkit::obs {
namespace {

/// JSON string escaping for metric ids (conservative: ids are dotted
/// ASCII by convention, but a malformed id must not corrupt the file).
std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

/// Shortest round-trip double rendering (%.17g trims trailing noise for
/// representable values; integral values print without exponent).
std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double parsed = 0.0;
    for (int precision = 6; precision < 17; ++precision) {
        char trial[40];
        std::snprintf(trial, sizeof(trial), "%.*g", precision, v);
        std::sscanf(trial, "%lf", &parsed);
        if (parsed == v) return trial;
    }
    return buf;
}

/// "1.23 ms"-style rendering of a nanosecond quantity for to_text().
std::string human_ns(double ns) {
    char buf[48];
    if (ns >= 1e9) {
        std::snprintf(buf, sizeof(buf), "%.3g s", ns / 1e9);
    } else if (ns >= 1e6) {
        std::snprintf(buf, sizeof(buf), "%.3g ms", ns / 1e6);
    } else if (ns >= 1e3) {
        std::snprintf(buf, sizeof(buf), "%.3g us", ns / 1e3);
    } else {
        std::snprintf(buf, sizeof(buf), "%.3g ns", ns);
    }
    return buf;
}

}  // namespace

namespace detail {
std::atomic<bool> g_detail{false};
}  // namespace detail

void set_detail_enabled(bool on) noexcept {
    detail::g_detail.store(on, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::observe(double v) noexcept {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
}

namespace {

/// Bucket-interpolated q-quantile of a non-empty histogram.
double interpolate_quantile(std::span<const double> bounds, std::span<const std::uint64_t> counts,
                            std::uint64_t total, double q) noexcept {
    const double rank = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0) continue;
        const double lower = i == 0 ? 0.0 : bounds[i - 1];
        const std::uint64_t before = cumulative;
        cumulative += counts[i];
        if (static_cast<double>(cumulative) < rank) continue;
        if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
        const double upper = bounds[i];
        const double into =
            (rank - static_cast<double>(before)) / static_cast<double>(counts[i]);
        return lower + (upper - lower) * (into < 0.0 ? 0.0 : into);
    }
    return bounds.empty() ? 0.0 : bounds.back();  // unreachable with exact counts
}

}  // namespace

double histogram_quantile(std::span<const double> bounds, std::span<const std::uint64_t> counts,
                          double q, double min_value, double max_value) noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;
    if (total == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double estimate = interpolate_quantile(bounds, counts, total, q);
    return std::min(std::max(estimate, min_value), max_value);
}

std::span<const double> latency_bounds_ns() noexcept {
    static const std::array<double, 24> bounds = [] {
        std::array<double, 24> b{};
        double bound = 1e3;  // 1 µs
        for (double& slot : b) {
            slot = bound;
            bound *= 2.0;
        }
        return b;
    }();
    return bounds;
}

Registry& Registry::global() {
    static Registry* instance = new Registry();  // leaked: see header
    return *instance;
}

Counter& Registry::counter(std::string_view id) {
    const core::MutexLock lock(mutex_);
    auto it = counters_.find(id);
    if (it == counters_.end()) {
        it = counters_.emplace(std::string(id), std::unique_ptr<Counter>(new Counter())).first;
    }
    return *it->second;
}

Gauge& Registry::gauge(std::string_view id) {
    const core::MutexLock lock(mutex_);
    auto it = gauges_.find(id);
    if (it == gauges_.end()) {
        it = gauges_.emplace(std::string(id), std::unique_ptr<Gauge>(new Gauge())).first;
    }
    return *it->second;
}

Histogram& Registry::histogram(std::string_view id, std::span<const double> bounds) {
    const core::MutexLock lock(mutex_);
    auto it = histograms_.find(id);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(std::string(id),
                          std::unique_ptr<Histogram>(
                              new Histogram(std::vector<double>(bounds.begin(), bounds.end()))))
                 .first;
    }
    return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
    const core::MutexLock lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [id, c] : counters_) snap.counters.push_back({id, c->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto& [id, g] : gauges_) snap.gauges.push_back({id, g->value()});
    snap.histograms.reserve(histograms_.size());
    for (const auto& [id, h] : histograms_) {
        MetricsSnapshot::HistogramSample s;
        s.id = id;
        s.bounds.assign(h->bounds_.begin(), h->bounds_.end());
        s.counts.reserve(s.bounds.size() + 1);
        for (std::size_t i = 0; i <= s.bounds.size(); ++i) {
            s.counts.push_back(h->counts_[i].load(std::memory_order_relaxed));
        }
        s.count = h->count();
        s.sum = h->sum();
        snap.histograms.push_back(std::move(s));
    }
    return snap;
}

void Registry::reset() {
    const core::MutexLock lock(mutex_);
    for (auto& [id, c] : counters_) c->value_.store(0, std::memory_order_relaxed);
    for (auto& [id, g] : gauges_) g->value_.store(0.0, std::memory_order_relaxed);
    for (auto& [id, h] : histograms_) {
        for (std::size_t i = 0; i <= h->bounds_.size(); ++i) {
            h->counts_[i].store(0, std::memory_order_relaxed);
        }
        h->count_.store(0, std::memory_order_relaxed);
        h->sum_.store(0.0, std::memory_order_relaxed);
    }
}

std::uint64_t MetricsSnapshot::counter_or(std::string_view id,
                                          std::uint64_t fallback) const noexcept {
    for (const CounterSample& c : counters) {
        if (c.id == id) return c.value;
    }
    return fallback;
}

double MetricsSnapshot::gauge_or(std::string_view id, double fallback) const noexcept {
    for (const GaugeSample& g : gauges) {
        if (g.id == id) return g.value;
    }
    return fallback;
}

std::string MetricsSnapshot::to_json() const {
    std::ostringstream os;
    os << "{\"counters\":{";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (i != 0) os << ",";
        os << "\"" << json_escape(counters[i].id) << "\":" << counters[i].value;
    }
    os << "},\"gauges\":{";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        if (i != 0) os << ",";
        os << "\"" << json_escape(gauges[i].id) << "\":" << number(gauges[i].value);
    }
    os << "},\"histograms\":{";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
        const HistogramSample& h = histograms[i];
        if (i != 0) os << ",";
        os << "\"" << json_escape(h.id) << "\":{\"bounds\":[";
        for (std::size_t b = 0; b < h.bounds.size(); ++b) {
            if (b != 0) os << ",";
            os << number(h.bounds[b]);
        }
        os << "],\"counts\":[";
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
            if (b != 0) os << ",";
            os << h.counts[b];
        }
        os << "],\"count\":" << h.count << ",\"sum\":" << number(h.sum) << "}";
    }
    os << "}}";
    return os.str();
}

std::string MetricsSnapshot::to_text() const {
    std::ostringstream os;
    char line[160];
    if (!counters.empty()) {
        os << "counters:\n";
        for (const CounterSample& c : counters) {
            std::snprintf(line, sizeof(line), "  %-36s %llu\n", c.id.c_str(),
                          static_cast<unsigned long long>(c.value));
            os << line;
        }
    }
    if (!gauges.empty()) {
        os << "gauges:\n";
        for (const GaugeSample& g : gauges) {
            std::snprintf(line, sizeof(line), "  %-36s %s\n", g.id.c_str(),
                          number(g.value).c_str());
            os << line;
        }
    }
    if (!histograms.empty()) {
        os << "histograms:\n";
        for (const HistogramSample& h : histograms) {
            const double mean =
                h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count);
            std::snprintf(line, sizeof(line), "  %-36s count=%llu mean=%s\n", h.id.c_str(),
                          static_cast<unsigned long long>(h.count), human_ns(mean).c_str());
            os << line;
            for (std::size_t b = 0; b < h.counts.size(); ++b) {
                if (h.counts[b] == 0) continue;
                const std::string label =
                    b < h.bounds.size() ? "<= " + human_ns(h.bounds[b])
                                        : "> " + human_ns(h.bounds.back());
                std::snprintf(line, sizeof(line), "    %-34s %llu\n", label.c_str(),
                              static_cast<unsigned long long>(h.counts[b]));
                os << line;
            }
        }
    }
    if (counters.empty() && gauges.empty() && histograms.empty()) {
        os << "(no metrics registered)\n";
    }
    return os.str();
}

}  // namespace asilkit::obs
