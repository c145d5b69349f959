// Shared pieces of the benchmark harness: run options, sample statistics,
// the per-run outcome (correctness counters + metrics), and the span
// recorder used by traced runs.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string matador;   ///< path of the `matador` CLI (serve workloads)
    std::string work_dir;  ///< scratch directory inside the checkout
};

/// Nearest-rank percentile, q in (0, 100].  0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// serve-trickle's latency_tail_us: cut the per-op sample `v` (in op order) into up to 10
/// consecutive slices of at least 1000 ops (so each slice's p99 has 10
/// samples beyond it) and return the median of the slices' p99s.  A host
/// stall then moves one slice's tail, not the run's.  Under 2000 ops this
/// is the plain p99.
double sliced_p99(const std::vector<double>& v);

/// Number of timed ops for a run: `seconds` times a fixed nominal rate, so
/// the count depends on the arguments only, never on how fast this run is.
std::size_t op_count(double seconds, double nominal_ops_per_second,
                     std::size_t minimum);

/// Restart this process's peak-RSS mark (VmHWM), so the next
/// peak_rss_mb() covers one op.  Returns false where the kernel refuses.
bool reset_peak_rss();
/// Peak resident set of this process since the last reset, MiB.
double peak_rss_mb();

/// Host-speed probe.  A shared cloud host changes how fast a vCPU runs by
/// up to 1.7x within a minute (neighbours' load, shared cores), far more
/// than the changes the benchmark must see.  The probe times a fixed
/// integer kernel shaped like Tsetlin-machine work (AND + popcount over
/// bit-packed words, scattered byte-counter updates) on the calling thread.
/// It calls no program code, so a program change cannot move it.
class HostProbe {
public:
    /// Probe time on the reference host state: a compute op's wall time is
    /// scaled by kReferenceMs / (probe time around the op).
    static constexpr double kReferenceMs = 3.0;

    HostProbe();
    /// Median time of a few kernel runs, ms.
    double measure();

private:
    double run_kernel();
    std::vector<std::uint64_t> masks_, inputs_;
    std::vector<std::int8_t> counters_;
};

/// Wall and CPU times of a run's compute ops and the probe times taken
/// between them: probe i was measured just before op i and probe i+1 just
/// after.
struct ScaledOps {
    std::vector<double> raw_us;
    std::vector<double> cpu_us;  ///< this process's CPU time during each op
    std::vector<double> probe_ms;
    /// Op i's wall time at reference host speed.  Only its time on the CPU
    /// is scaled, by kReferenceMs over the mean of the probes either side;
    /// time spent off the CPU (fsync, sleeps) counts as measured.  Ops run
    /// on one thread, so CPU time never exceeds wall time.
    double scaled_us(std::size_t i) const;
};

/// CPU time this process has used so far, us.
double process_cpu_us();

/// Per-layer values gathered over the traced ops of a run: one sample per
/// op per metric, reported as the median.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// What one run reports.  `failed` counts ops whose output failed a gate.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Cleared when the run cannot be trusted for a reason other than a
    /// failed op (load generator behind schedule, a failed split check).
    bool valid = true;
    std::map<std::string, double> end_to_end;
    LayerSamples layers;
    std::vector<double> latency_us;  ///< one per timed op, as reported
    std::vector<double> raw_latency_us;  ///< unscaled, when ops were scaled
    std::vector<double> probe_ms;        ///< host probe times, when scaled

    /// Count one failed op and say why on stderr (first few only).
    void fail(const std::string& why);
    void invalidate(const std::string& why);
};

/// Spans recorded by the benchmark around its calls into the program.
/// Every span goes both to a local list (for the self-time table and the
/// split checks) and to obs::TraceRecorder, so the exported Chrome trace
/// holds the benchmark's spans beside the program's own.  Thread-safe.
class Tracer {
public:
    static constexpr long kNoParent = -1;

    /// Open a span now; returns its id.  `name` must be a string literal.
    long open(const char* name, std::uint64_t op, long parent);
    /// Close span `id` now; returns its duration in seconds.
    double close(long id);
    /// Record an already-measured span.
    void record(const char* name, std::uint64_t op, long parent,
                std::uint64_t start_ns, std::uint64_t end_ns);

    /// Per-name calls, total and self time (self = duration minus the part
    /// covered by child spans), widest self time first.
    std::string self_time_table() const;

private:
    struct Span {
        const char* name;
        std::uint64_t op;
        long parent;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
    };
    void emit(const Span& s) const;

    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// Time `fn` as one span under `parent`; returns its duration in ms.
template <class F>
double timed_span(Tracer& tracer, const char* name, std::uint64_t op,
                  long parent, F&& fn) {
    const long id = tracer.open(name, op, parent);
    fn();
    return tracer.close(id) * 1e3;
}

}  // namespace perfbench
