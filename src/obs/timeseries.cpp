#include "obs/timeseries.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/watchdog.h"

namespace asilkit::obs {
namespace {

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

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

}  // namespace

const TimeSeriesSnapshot::Series* TimeSeriesSnapshot::find(
    std::string_view id) const noexcept {
    for (const Series& s : series) {
        if (s.id == id) return &s;
    }
    return nullptr;
}

std::string TimeSeriesSnapshot::to_json() const {
    std::ostringstream os;
    os << "{\"period_ms\":" << period_ms << ",\"capacity\":" << capacity
       << ",\"ticks\":" << ticks << ",\"series\":[";
    for (std::size_t i = 0; i < series.size(); ++i) {
        const Series& s = series[i];
        if (i != 0) os << ",";
        os << "{\"id\":\"" << json_escape(s.id) << "\",\"kind\":\"" << s.kind
           << "\",\"points\":[";
        for (std::size_t p = 0; p < s.points.size(); ++p) {
            if (p != 0) os << ",";
            os << "[" << s.points[p].ts_ns << "," << number(s.points[p].value) << "]";
        }
        os << "]}";
    }
    os << "]}";
    return os.str();
}

TimeSeriesSampler::TimeSeriesSampler(TimeSeriesOptions options)
    : options_([&options] {
          if (options.capacity == 0) options.capacity = 1;  // a ring needs a slot
          return std::move(options);
      }()),
      epoch_(std::chrono::steady_clock::now()) {}

TimeSeriesSampler::~TimeSeriesSampler() { stop(); }

void TimeSeriesSampler::attach_watchdog(Watchdog* watchdog) {
    const core::MutexLock lock(data_mutex_);
    watchdog_ = watchdog;
}

void TimeSeriesSampler::start() {
    const core::MutexLock lock(mutex_);
    if (worker_.joinable()) return;
    stop_requested_ = false;
    worker_ = std::thread([this] { run(); });
}

void TimeSeriesSampler::stop() {
    std::thread worker;
    {
        const core::MutexLock lock(mutex_);
        stop_requested_ = true;
        worker = std::move(worker_);
    }
    cv_.notify_all();
    if (worker.joinable()) worker.join();
}

bool TimeSeriesSampler::running() const {
    const core::MutexLock lock(mutex_);
    return worker_.joinable();
}

void TimeSeriesSampler::run() {
    tick();  // immediate first sample: short runs still get a point
    for (;;) {
        {
            const core::MutexLock lock(mutex_);
            if (stop_requested_) return;
            // A notification means stop; a timeout (or spurious wake)
            // means this tick is due — at worst slightly early, which
            // telemetry tolerates.
            (void)cv_.wait_for(mutex_, options_.period);
            if (stop_requested_) return;
        }
        tick();
    }
}

void TimeSeriesSampler::sample_now() { tick(); }

void TimeSeriesSampler::push_point(const std::string& id, const char* kind,
                                   std::uint64_t ts_ns, double value) {
    Ring& ring = series_[id];
    if (ring.points.empty()) ring.kind = kind;
    if (ring.points.size() < options_.capacity) {
        ring.points.push_back({ts_ns, value});
        ring.next = ring.points.size() % options_.capacity;
    } else {
        ring.points[ring.next] = {ts_ns, value};
        ring.next = (ring.next + 1) % options_.capacity;
    }
}

void TimeSeriesSampler::tick() {
    static Counter& ticks_total = Registry::global().counter("obs.sampler.ticks");
    const MetricsSnapshot snap = Registry::global().snapshot();
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t ts_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count());

    Watchdog* watchdog = nullptr;
    {
        const core::MutexLock lock(data_mutex_);
        for (const MetricsSnapshot::CounterSample& c : snap.counters) {
            push_point(c.id, "counter", ts_ns, static_cast<double>(c.value));
        }
        for (const MetricsSnapshot::GaugeSample& g : snap.gauges) {
            push_point(g.id, "gauge", ts_ns, g.value);
        }
        for (const MetricsSnapshot::HistogramSample& h : snap.histograms) {
            push_point(h.id + ".count", "histogram", ts_ns, static_cast<double>(h.count));
            push_point(h.id + ".sum", "histogram", ts_ns, h.sum);
        }
        ++ticks_;
        if (!options_.ndjson_path.empty()) {
            if (!ndjson_.is_open()) {
                ndjson_.open(options_.ndjson_path, std::ios::trunc);
            }
            if (ndjson_) {
                ndjson_ << "{\"ts_ns\":" << ts_ns << ",\"metrics\":" << snap.to_json()
                        << "}\n";
                ndjson_.flush();  // each line complete on disk: tail -f friendly
            }
        }
        watchdog = watchdog_;
    }
    ticks_total.inc();

    // Sinks that need no ring state run outside the data lock: the
    // exposition rewrite can be slow (disk), and the watchdog takes its
    // own mutex (lock order stays data_mutex_ -> watchdog, never back).
    if (!options_.openmetrics_path.empty()) {
        std::ofstream out(options_.openmetrics_path, std::ios::trunc);
        if (out) out << to_openmetrics(snap);
    }
    if (watchdog != nullptr) watchdog->evaluate(ts_ns, snap);
}

TimeSeriesSnapshot TimeSeriesSampler::snapshot() const {
    TimeSeriesSnapshot out;
    out.period_ms = static_cast<std::uint64_t>(options_.period.count());
    out.capacity = options_.capacity;
    const core::MutexLock lock(data_mutex_);
    out.ticks = ticks_;
    out.series.reserve(series_.size());
    for (const auto& [id, ring] : series_) {
        TimeSeriesSnapshot::Series s;
        s.id = id;
        s.kind = ring.kind;
        s.points.reserve(ring.points.size());
        // Chronological order: the ring wraps at `next`, so the oldest
        // point sits there once the ring is full.
        const std::size_t n = ring.points.size();
        const std::size_t start = n < options_.capacity ? 0 : ring.next;
        for (std::size_t i = 0; i < n; ++i) {
            s.points.push_back(ring.points[(start + i) % n]);
        }
        out.series.push_back(std::move(s));
    }
    return out;
}

std::uint64_t TimeSeriesSampler::ticks() const {
    const core::MutexLock lock(data_mutex_);
    return ticks_;
}

}  // namespace asilkit::obs
