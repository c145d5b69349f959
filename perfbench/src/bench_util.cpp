#include "bench_util.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q / 100.0 * double(v.size()));
    const std::size_t idx = rank < 1.0 ? 0 : std::size_t(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double sliced_p99(const std::vector<double>& v) {
    const std::size_t slices = std::clamp<std::size_t>(v.size() / 1000, 1, 10);
    std::vector<double> tails;
    for (std::size_t i = 0; i < slices; ++i)
        tails.push_back(percentile({v.begin() + long(v.size() * i / slices),
                                    v.begin() + long(v.size() * (i + 1) / slices)},
                                   99.0));
    return median(tails);
}

std::size_t op_count(double seconds, double nominal_ops_per_second,
                     std::size_t minimum) {
    return std::max(minimum, std::size_t(std::llround(seconds * nominal_ops_per_second)));
}

bool reset_peak_rss() {
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    return bool(f);
}

double peak_rss_mb() {
    std::ifstream f("/proc/self/status");
    for (std::string line; std::getline(f, line);)
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

namespace {
constexpr std::size_t kMaskWords = 1 << 16;    // 512 KiB of clause masks
constexpr std::size_t kInputWords = 1 << 12;   // 32 KiB of example bits
constexpr std::size_t kCounters = 1 << 20;     // 1 MiB of byte counters
constexpr std::size_t kClauseWords = 64;
constexpr int kKernelRounds = 10000;
constexpr int kKernelRepeats = 3;

std::uint64_t xorshift(std::uint64_t& r) {
    r ^= r << 13;
    r ^= r >> 7;
    r ^= r << 17;
    return r;
}
}  // namespace

HostProbe::HostProbe()
    : masks_(kMaskWords), inputs_(kInputWords), counters_(kCounters, 0) {
    std::uint64_t r = 0x9E3779B97F4A7C15ull;
    for (auto& w : masks_) w = xorshift(r);
    for (auto& w : inputs_) w = xorshift(r);
}

double HostProbe::run_kernel() {
    const std::uint64_t t0 = matador::obs::now_ns();
    std::uint64_t r = 0x2545F4914F6CDD1Dull;
    for (int round = 0; round < kKernelRounds; ++round) {
        const std::size_t c = xorshift(r) & (kMaskWords - kClauseWords);
        const std::size_t e = xorshift(r) & (kInputWords - kClauseWords);
        unsigned votes = 0;
        for (std::size_t w = 0; w < kClauseWords; ++w)
            votes += unsigned(__builtin_popcountll(masks_[c + w] & inputs_[e + w]));
        for (unsigned k = 0; k < 16; ++k) {
            std::int8_t& ctr = counters_[xorshift(r) & (kCounters - 1)];
            ctr = std::int8_t(ctr + (((votes >> k) & 1) ? 1 : -1));
        }
    }
    const std::uint64_t t1 = matador::obs::now_ns();
    // Keep the counter updates observable so the loop cannot be dropped.
    inputs_[0] ^= std::uint64_t(std::uint8_t(counters_[r & (kCounters - 1)]));
    return double(t1 - t0) * 1e-6;
}

double HostProbe::measure() {
    // The median of a few short runs, so one interrupt does not move it.
    std::vector<double> runs;
    for (int k = 0; k < kKernelRepeats; ++k) runs.push_back(run_kernel());
    return median(runs);
}

double ScaledOps::scaled_us(std::size_t i) const {
    const double around = 0.5 * (probe_ms[i] + probe_ms[i + 1]);
    const double on_cpu = std::min(cpu_us[i], raw_us[i]);
    return on_cpu * HostProbe::kReferenceMs / around + (raw_us[i] - on_cpu);
}

double process_cpu_us() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) * 1e6 + double(ts.tv_nsec) * 1e-3;
}

void Outcome::fail(const std::string& why) {
    if (failed < 8) std::fprintf(stderr, "perfbench: FAILED op: %s\n", why.c_str());
    ++failed;
}

void Outcome::invalidate(const std::string& why) {
    std::fprintf(stderr, "perfbench: INVALID run: %s\n", why.c_str());
    valid = false;
}

long Tracer::open(const char* name, std::uint64_t op, long parent) {
    const std::uint64_t now = matador::obs::now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, op, parent, now, 0});
    return long(spans_.size() - 1);
}

double Tracer::close(long id) {
    const std::uint64_t now = matador::obs::now_ns();
    Span s;
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[std::size_t(id)].end_ns = now;
        s = spans_[std::size_t(id)];
    }
    emit(s);
    return double(s.end_ns - s.start_ns) * 1e-9;
}

void Tracer::record(const char* name, std::uint64_t op, long parent,
                    std::uint64_t start_ns, std::uint64_t end_ns) {
    const Span s{name, op, parent, start_ns, end_ns};
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(s);
    }
    emit(s);
}

void Tracer::emit(const Span& s) const {
    matador::util::Json args = matador::util::Json::object();
    args.set("op", double(s.op));
    if (s.parent != kNoParent) {
        std::lock_guard<std::mutex> lock(mu_);
        args.set("parent", spans_[std::size_t(s.parent)].name);
    }
    matador::obs::TraceRecorder::instance().complete(
        s.name, "perfbench", s.start_ns, s.end_ns - s.start_ns, std::move(args));
}

std::string Tracer::self_time_table() const {
    struct Row {
        std::size_t calls = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    std::map<std::string, Row> rows;
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<double> child_ms(spans_.size(), 0.0);
        for (const auto& s : spans_)
            if (s.parent != kNoParent)
                child_ms[std::size_t(s.parent)] += double(s.end_ns - s.start_ns) * 1e-6;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const double ms = double(spans_[i].end_ns - spans_[i].start_ns) * 1e-6;
            Row& r = rows[spans_[i].name];
            ++r.calls;
            r.total_ms += ms;
            r.self_ms += ms - child_ms[i];
        }
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        return a.second.self_ms > b.second.self_ms;
    });
    std::string out = "layer                      calls     total_ms      self_ms\n";
    char line[128];
    for (const auto& [name, r] : sorted) {
        std::snprintf(line, sizeof line, "%-24s %7zu %12.3f %12.3f\n",
                      name.c_str(), r.calls, r.total_ms, r.self_ms);
        out += line;
    }
    return out;
}

}  // namespace perfbench
