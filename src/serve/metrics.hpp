// Live serving telemetry, per model and global.
//
// Counters are written on the hot path (one record_response per request,
// one record_batch per dispatched block).  All numeric series live in a
// private obs::MetricsRegistry - serve_requests{model=...},
// serve_latency_us histograms, the serve_queue_depth gauge - so the same
// data exports as serve-status JSON, registry JSON, or Prometheus text
// without a second set of counters.  Only the rolling-accuracy outcome
// ring (not a registry primitive) stays local, under one mutex that also
// orders per-model registration.  snapshot() renders the whole view as a
// versioned JSON document - the `serve-status` wire format - without
// stopping the traffic it describes.
//
// Wire-format history:
//   v1  requests/shed/batches/latency quantiles/rolling accuracy
//   v2  + queue_depth, spans_dropped, per-reason shed counts
//   v3  + "breakers": per-target quarantine / error-budget state
//         ({model, failures, open, retry_after_ms, last_error}) - present
//         only when a breaker has state, sourced from the registry via
//         set_breaker_provider()
// format_status_text() reads every version (a v3 reader on an older file
// just omits the fields the file predates).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace matador::serve {

/// Nearest-rank latency quantiles over a model's recent samples.
struct LatencyQuantiles {
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    std::size_t samples = 0;
};

/// One model's live counters (a snapshot copy, not the live object).
struct ModelMetrics {
    std::string hash_hex;
    std::size_t requests = 0;   ///< completed predictions
    std::size_t errors = 0;     ///< typed failures attributed to this model
    std::size_t shed = 0;       ///< admission-control rejections
    std::size_t batches = 0;    ///< dispatched blocks
    std::size_t lanes = 0;      ///< sum of occupied lanes over all blocks
    std::size_t labeled = 0;    ///< requests that carried a label
    std::size_t correct = 0;    ///< ... where the prediction matched it
    LatencyQuantiles latency;
    double rolling_accuracy = 0.0;  ///< over the recent labeled window
    std::size_t rolling_window = 0; ///< labeled outcomes in that window

    /// Mean occupied lanes per 64-lane block (0 when no batch ran).
    double batch_occupancy() const {
        return batches == 0 ? 0.0 : double(lanes) / double(batches);
    }
};

class ServeMetrics {
public:
    ServeMetrics();

    /// One completed prediction: end-to-end latency (queue wait + compute)
    /// and, when the request carried a label, whether it was correct.
    void record_response(const std::string& hash_hex, double latency_us,
                         std::optional<bool> correct);
    /// One dispatched block and how many of its 64 lanes carried requests.
    void record_batch(const std::string& hash_hex, std::size_t lanes);
    /// One typed failure (feature mismatch, ...) attributed to a model.
    void record_error(const std::string& hash_hex);
    /// One admission-control rejection.  `hash_hex` may be empty when the
    /// request was shed before its model resolved; `reason` and
    /// `queue_depth` carry the overload context the v2 status exposes.
    void record_shed(const std::string& hash_hex,
                     const std::string& reason = "queue-full",
                     std::size_t queue_depth = 0);
    /// Pending-queue depth right now (a gauge: last write wins).
    void set_queue_depth(std::size_t depth);

    struct Snapshot {
        double uptime_seconds = 0.0;
        std::size_t total_requests = 0;
        std::size_t total_shed = 0;
        std::size_t queue_depth = 0;
        std::size_t spans_dropped = 0;  ///< trace events lost to full buffers
        std::vector<std::pair<std::string, std::size_t>> shed_reasons;
        std::vector<ModelMetrics> models;  ///< hash order
    };
    Snapshot snapshot() const;

    /// The versioned `serve-status` document.
    static constexpr unsigned kStatusVersion = 3;
    util::Json snapshot_json() const;

    /// v3: the server wires the registry's breaker view in here so the
    /// status document carries quarantine state without coupling metrics
    /// to the registry type.  The provider must be callable from any
    /// thread; it is invoked outside this object's lock.
    void set_breaker_provider(std::function<util::Json()> provider);

    /// The registry holding every serve series (latency histograms, shed
    /// reasons, queue depth); exportable as metrics JSON / Prometheus.
    const obs::MetricsRegistry& registry() const { return registry_; }

private:
    struct PerModel {
        obs::Counter* requests = nullptr;
        obs::Counter* errors = nullptr;
        obs::Counter* shed = nullptr;
        obs::Counter* batches = nullptr;
        obs::Counter* lanes = nullptr;
        obs::Counter* labeled = nullptr;
        obs::Counter* correct = nullptr;
        obs::Histogram* latency = nullptr;
        /// Ring of recent labeled outcomes (1 = correct).
        std::vector<std::uint8_t> outcomes;
        std::size_t outcome_next = 0;
        std::size_t outcome_count = 0;
    };
    PerModel& slot_locked(const std::string& hash_hex);

    mutable std::mutex mu_;
    /// Private registry: a process may run several servers (tests do) and
    /// each owns its own serve series; the process-global registry keeps
    /// pipeline/infer metrics.
    obs::MetricsRegistry registry_;
    obs::Gauge& queue_depth_;  ///< serve_queue_depth, resolved once
    std::map<std::string, PerModel> per_model_;
    std::map<std::string, obs::Counter*> shed_reasons_;
    std::size_t shed_unattributed_ = 0;
    std::function<util::Json()> breaker_provider_;
    obs::Timer uptime_;
};

/// Render a serve-status document (any version >= 1) as the terminal view
/// `matador serve-status` prints.  Fields a v1 file predates are omitted.
std::string format_status_text(const util::Json& doc);

}  // namespace matador::serve
