// Time-series sampler: a background thread that periodically snapshots
// the metrics registry into per-metric fixed-capacity ring buffers of
// (steady_ns, value) points.
//
// The registry alone answers "how much, in total"; a long-running
// process (the `asilkit serve` daemon of ROADMAP item 1, or a multi-
// minute bench sweep) needs "how much, WHEN" — cache hit rate over the
// run, BDD node high-water as candidates stream through, queue depth
// under load.  The sampler provides that without touching any hot
// path: it only ever reads the registry's atomics from its own thread,
// so instrumentation sites are completely unaware of it and a run with
// the sampler on is bitwise identical to one without (tested in
// tests/test_obs.cpp at threads 1/2/4/8).
//
// Cost model: zero when not started (no thread, no allocation — the
// PR-4 one-branch contract trivially holds because there is not even a
// branch); when started, one registry snapshot per period on a
// dedicated thread, never on workers.
//
// Per tick the sampler can also:
//   * append one NDJSON line ({"ts_ns":..,"metrics":{...}}) to a file
//     for live tailing (the file is truncated at the first tick, so a
//     run never inherits an earlier run's lines),
//   * rewrite an OpenMetrics exposition file (obs/openmetrics.h) for a
//     file-based Prometheus scrape,
//   * evaluate an attached threshold watchdog (obs/watchdog.h).
//
// Sampled series: every counter and gauge under its registry id, plus
// `<id>.count` / `<id>.sum` projections of every histogram.  Rings keep
// the most recent `capacity` points; older points fall off the back.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/sync.h"

namespace asilkit::obs {

class Watchdog;

struct TimeSeriesOptions {
    std::chrono::milliseconds period{1000};
    std::size_t capacity = 600;  ///< points retained per series
    std::string ndjson_path;     ///< one line per tick when set (truncated at the first)
    std::string openmetrics_path;  ///< rewrite exposition per tick when set
};

/// Export of every ring at one moment, points in chronological order.
struct TimeSeriesSnapshot {
    struct Point {
        std::uint64_t ts_ns;  ///< steady-clock ns since the sampler's epoch
        double value;
    };
    struct Series {
        std::string id;
        std::string kind;  ///< "counter", "gauge" or "histogram"
        std::vector<Point> points;
    };

    std::vector<Series> series;  ///< sorted by id
    std::uint64_t ticks = 0;
    std::uint64_t period_ms = 0;
    std::size_t capacity = 0;

    [[nodiscard]] const Series* find(std::string_view id) const noexcept;
    /// {"period_ms":..,"capacity":..,"ticks":..,
    ///  "series":[{"id","kind","points":[[ts_ns,value],..]},..]}
    [[nodiscard]] std::string to_json() const;
};

class TimeSeriesSampler {
public:
    explicit TimeSeriesSampler(TimeSeriesOptions options = {});
    /// Stops and joins the background thread if still running.
    ~TimeSeriesSampler();

    TimeSeriesSampler(const TimeSeriesSampler&) = delete;
    TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

    /// Attach a watchdog evaluated on every tick (not owned; must
    /// outlive sampling).  Attach before start().
    void attach_watchdog(Watchdog* watchdog);

    /// Launches the sampler thread; the first tick is immediate, then
    /// one per period.  Idempotent while running.
    void start();
    /// Stops and joins.  Buffered series stay available for snapshot().
    void stop();
    [[nodiscard]] bool running() const;

    /// Takes one sample synchronously on the calling thread — the CLI's
    /// final flush before export, and the unit tests' deterministic
    /// driver (no background thread needed).
    void sample_now();

    [[nodiscard]] TimeSeriesSnapshot snapshot() const;
    [[nodiscard]] std::uint64_t ticks() const;

private:
    /// Fixed-capacity ring: `points` grows to capacity then wraps,
    /// `next` marks the slot the next point lands in.
    struct Ring {
        std::string kind;
        std::vector<TimeSeriesSnapshot::Point> points;
        std::size_t next = 0;
    };

    void run();
    void tick() EXCLUDES(data_mutex_);
    void push_point(const std::string& id, const char* kind, std::uint64_t ts_ns,
                    double value) REQUIRES(data_mutex_);

    const TimeSeriesOptions options_;
    const std::chrono::steady_clock::time_point epoch_;

    mutable core::Mutex mutex_;  // thread lifecycle
    core::CondVar cv_;
    bool stop_requested_ GUARDED_BY(mutex_) = false;
    std::thread worker_ GUARDED_BY(mutex_);

    mutable core::Mutex data_mutex_;  // rings + sinks
    std::map<std::string, Ring> series_ GUARDED_BY(data_mutex_);
    std::uint64_t ticks_ GUARDED_BY(data_mutex_) = 0;
    std::ofstream ndjson_ GUARDED_BY(data_mutex_);
    Watchdog* watchdog_ GUARDED_BY(data_mutex_) = nullptr;
};

}  // namespace asilkit::obs
