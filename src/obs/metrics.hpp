// Named counters / gauges / histograms behind sharded atomics.
//
// The registry is the process's one metrics namespace: pipeline cache
// hits, clause evaluations, serve latencies, shard progress all register
// here and export together as a versioned JSON document or Prometheus
// text.  Handles returned by counter()/gauge()/histogram() are stable for
// the life of the process (reset() zeroes values, never invalidates
// references), so hot paths resolve their series once and then touch only
// atomics:
//
//   * Counter  - adds go to one of 16 cache-line-padded shards picked per
//     thread, so concurrent writers never bounce one line; value() sums.
//   * Gauge    - a single atomic double, last-write-wins.
//   * Histogram - a fixed ring of the most recent samples (lock-free:
//     fetch_add slot index + relaxed store) with nearest-rank quantiles
//     computed at snapshot time (4096 samples, rank = floor(p*(n-1)+0.5);
//     test_obs pins the quantiles of a fixed stream).
//
// Series identity is `name` plus optional labels, rendered Prometheus
// style: `pipeline_cache_hits{stage="train",tier="disk"}`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace matador::obs {

using Labels = std::vector<std::pair<std::string, std::string>>;

/// `name{k="v",...}` (just `name` without labels).
std::string series_name(const std::string& name, const Labels& labels);

class Counter {
public:
    void add(std::uint64_t n = 1) {
        shard().fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const {
        std::uint64_t total = 0;
        for (const auto& s : shards_)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }
    void reset() {
        for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
    }

private:
    struct alignas(64) Shard {
        std::atomic<std::uint64_t> v{0};
    };
    std::atomic<std::uint64_t>& shard();
    std::array<Shard, 16> shards_{};
};

class Gauge {
public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { set(0.0); }

private:
    std::atomic<double> v_{0.0};
};

/// Fixed ring of the most recent samples; quantiles over whatever the ring
/// currently holds.  Thread-safe and lock-free on the record path.
class Histogram {
public:
    explicit Histogram(std::size_t capacity = 4096);

    void record(double v);

    /// Samples currently in the ring: min(total recorded, capacity).
    std::size_t samples() const;
    /// Total ever recorded (keeps counting past the ring capacity).
    std::uint64_t count() const {
        return next_.load(std::memory_order_relaxed);
    }
    double sum() const { return sum_.load(std::memory_order_relaxed); }

    struct Quantiles {
        double p50 = 0.0;
        double p95 = 0.0;
        double p99 = 0.0;
        std::size_t samples = 0;
    };
    /// Nearest-rank quantiles over the ring (zeros when empty):
    /// rank = floor(p * (n - 1) + 0.5).
    Quantiles quantiles() const;

    /// Copy of the ring's current samples (unordered across writers).
    std::vector<double> ring_samples() const;

    void reset();

private:
    std::vector<std::atomic<double>> ring_;
    std::atomic<std::uint64_t> next_{0};
    std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// The process-wide registry nearly all instrumentation uses.
    static MetricsRegistry& global();

    /// Find-or-register; the returned reference stays valid forever.
    Counter& counter(const std::string& name, const Labels& labels = {});
    Gauge& gauge(const std::string& name, const Labels& labels = {});
    Histogram& histogram(const std::string& name, const Labels& labels = {},
                         std::size_t capacity = 4096);

    /// Zero every metric's value; registrations (and outstanding handles)
    /// survive.  Used at post-fork shard start and in tests.
    void reset();

    /// Versioned JSON export ("matador-metrics" v1).  Histograms include
    /// their raw ring samples so cross-shard merges can recompute exact
    /// quantiles.
    static constexpr unsigned kMetricsJsonVersion = 1;
    util::Json to_json() const;

    /// Prometheus text exposition (counters, gauges, summaries).
    std::string to_prometheus() const;

private:
    template <typename T>
    struct Series {
        std::string name;
        Labels labels;
        std::unique_ptr<T> metric;
    };

    mutable std::mutex mu_;
    std::map<std::string, Series<Counter>> counters_;
    std::map<std::string, Series<Gauge>> gauges_;
    std::map<std::string, Series<Histogram>> histograms_;
};

}  // namespace matador::obs
