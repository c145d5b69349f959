// serve-trickle: the real `matador serve` daemon driven over its
// stdin/stdout by an open-loop load generator of two threads (writer +
// reader).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.hpp"
#include "infer/engine.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = matador::core;
namespace data = matador::data;
namespace obs = matador::obs;
using matador::util::Json;

namespace {

constexpr int kSetupRepeats = 5;
constexpr double kTrickleRatePerSecond = 200.0;
constexpr double kTrickleSloUs = 10e3;
/// The generator fell behind its schedule when more than a tenth of the
/// requests went out over 1 ms late.  Rarer lateness comes from host
/// stalls, which delay the daemon too; it shows in loadgen.lateness_us_p99.
constexpr double kMaxLatenessP90Us = 1000.0;
constexpr std::uint64_t kNoReply = std::numeric_limits<std::uint64_t>::max();

void write_all(int fd, const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
        const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("write to daemon: ") + std::strerror(errno));
        }
        off += std::size_t(n);
    }
}

class LineReader {
public:
    explicit LineReader(int fd) : fd_(fd) {}
    /// Next line without its newline; false at EOF.
    bool next(std::string& line) {
        for (;;) {
            const auto nl = buf_.find('\n', pos_);
            if (nl != std::string::npos) {
                line.assign(buf_, pos_, nl - pos_);
                pos_ = nl + 1;
                return true;
            }
            buf_.erase(0, pos_);
            pos_ = 0;
            char chunk[65536];
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) return false;
            buf_.append(chunk, std::size_t(n));
        }
    }
    bool buffered() const { return buf_.find('\n', pos_) != std::string::npos; }

private:
    int fd_;
    std::string buf_;
    std::size_t pos_ = 0;
};

/// A `matador serve` child process.  The destructor kills and reaps it if
/// it is still running; it also dies with the harness (PDEATHSIG).
class Daemon {
public:
    Daemon(const std::string& matador, const std::string& model,
           const std::string& log) {
        int in[2], out[2];
        if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe2 failed");
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            ::dup2(in[0], 0);
            ::dup2(out[1], 1);
            if (err >= 0) ::dup2(err, 2);
            const char* argv[] = {matador.c_str(), "serve", "--model", model.c_str(),
                                  "--train-threads", "2", nullptr};
            ::execv(matador.c_str(), const_cast<char* const*>(argv));
            ::_exit(127);
        }
        ::close(in[0]);
        ::close(out[1]);
        to_ = in[1];
        from_ = out[0];
    }
    ~Daemon() {
        close_input();
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        if (from_ >= 0) ::close(from_);
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    int to() const { return to_; }
    int from() const { return from_; }
    void close_input() {
        if (to_ >= 0) ::close(to_);
        to_ = -1;
    }
    /// Wait for a clean exit (input must be closed); returns peak RSS, MiB.
    double wait() {
        int status = 0;
        rusage ru{};
        if (::wait4(pid_, &status, 0, &ru) != pid_) throw std::runtime_error("wait4 failed");
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("matador serve did not exit cleanly");
        return double(ru.ru_maxrss) / 1024.0;
    }

private:
    pid_t pid_ = -1;
    int to_ = -1;
    int from_ = -1;
};

/// Timer wake-ups on virtual machines run up to a few ms late, so sleep to
/// shortly before `t` and spin the rest.
void sleep_until_ns(std::uint64_t t) {
    constexpr std::uint64_t kSpinNs = 1'500'000;
    const std::uint64_t now = obs::now_ns();
    if (t > now + kSpinNs)
        std::this_thread::sleep_for(std::chrono::nanoseconds(t - now - kSpinNs));
    while (obs::now_ns() < t) std::this_thread::yield();
}

bool readable_within(int fd, int timeout_ms) {
    pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, timeout_ms) > 0;
}

/// Send one predict and keep nudging with control lines until its reply
/// comes back: the daemon writes a reply only after it reads a later line
/// (see README), so a lone request would wait forever.
std::uint32_t first_prediction(Daemon& d, LineReader& reader, const std::string& x) {
    write_all(d.to(), "{\"x\":\"" + x + "\",\"id\":-1}\n");
    std::size_t nudges = 0;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!reader.buffered() && !readable_within(d.from(), 5)) {
        if (std::chrono::steady_clock::now() > deadline)
            throw std::runtime_error("matador serve never answered");
        write_all(d.to(), "{\"op\":\"models\",\"id\":-2}\n");
        ++nudges;
    }
    std::string line;
    if (!reader.next(line)) throw std::runtime_error("matador serve exited early");
    const Json first = Json::parse(line);
    if (!first.at("ok").as_bool()) throw std::runtime_error("warm-up request failed: " + line);
    for (std::size_t i = 0; i < nudges; ++i)
        if (!reader.next(line)) throw std::runtime_error("matador serve exited early");
    return std::uint32_t(first.at("prediction").as_double());
}

/// Everything the reader thread learns from the daemon's replies.
struct Replies {
    explicit Replies(std::size_t n)
        : recv_ns(n, kNoReply), lat_us(n, 0.0), prediction(n, -1) {}
    std::vector<std::uint64_t> recv_ns;
    std::vector<double> lat_us;
    std::vector<std::int64_t> prediction;  ///< -1: error reply
    Json status;
    std::size_t unexpected = 0;
};

void read_replies(LineReader& reader, Replies& r) {
    std::string line;
    while (reader.next(line)) {
        const std::uint64_t now = obs::now_ns();
        try {
            const Json j = Json::parse(line);
            if (j.contains("status")) {
                r.status = j.at("status");
                continue;
            }
            const double id = j.contains("id") ? j.at("id").as_double() : -1.0;
            if (id < 0 || id >= double(r.recv_ns.size()) ||
                r.recv_ns[std::size_t(id)] != kNoReply) {
                ++r.unexpected;
                continue;
            }
            const auto k = std::size_t(id);
            r.recv_ns[k] = now;
            if (j.at("ok").as_bool()) {
                r.prediction[k] = std::int64_t(j.at("prediction").as_double());
                r.lat_us[k] = j.at("lat_us").as_double();
            }
        } catch (const std::exception&) {
            ++r.unexpected;
        }
    }
}

}  // namespace

Outcome run_serve_trickle(const Options& o, Tracer& tracer) {
    Outcome out;
    core::FlowConfig cfg;
    cfg.train_threads = 1;
    const std::string model_path = o.work_dir + "/fixture.tm";
    const std::string log_path = o.work_dir + "/daemon.log";

    // Set-up: dataset, fixture model compiled through the whole flow, and
    // the daemon from launch to its first reply, at reference host speed.
    // Repeated; the median counts.
    data::Split split;
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<LineReader> reader;
    std::optional<std::pair<double, std::size_t>> fixture;  // accuracy, LUTs
    std::shared_ptr<const matador::model::TrainedModel> model;
    std::vector<double> setup_s;
    StageProbe probe;
    probe.tracer = &tracer;
    HostProbe host;
    ScaledOps setups;
    setups.probe_ms.push_back(host.measure());
    if (o.trace) obs::TraceRecorder::instance().enable();
    for (int r = 0; r < kSetupRepeats; ++r) {
        reader.reset();
        daemon.reset();
        const double c0 = process_cpu_us();
        const auto t0 = obs::now_ns();
        split = data::train_test_split(data::make_kws6_like(200, 11), 0.85, 3);
        probe.op = std::uint64_t(r);
        if (o.trace) probe.parent = tracer.open("fixture", probe.op, Tracer::kNoParent);
        const auto f0 = obs::now_ns();
        const core::CompileContext ctx =
            (o.trace ? spanned_pipeline(cfg, probe) : core::Pipeline(cfg))
                .run(split.train, split.test);
        const double flow_s = double(obs::now_ns() - f0) * 1e-9;
        if (o.trace) tracer.close(probe.parent);
        if (!ctx.ok())
            throw std::runtime_error("fixture flow failed:\n" + core::format_diagnostics(ctx));
        ctx.trained->save_file(model_path);
        daemon = std::make_unique<Daemon>(o.matador, model_path, log_path);
        reader = std::make_unique<LineReader>(daemon->from());
        const std::uint32_t warm = first_prediction(*daemon, *reader,
                                                    split.test.examples[0].to_string());
        setups.raw_us.push_back(double(obs::now_ns() - t0) * 1e-3);
        setups.cpu_us.push_back(process_cpu_us() - c0);
        setups.probe_ms.push_back(host.measure());
        setup_s.push_back(setups.scaled_us(std::size_t(r)) * 1e-6);

        if (warm != ctx.trained->predict(split.test.examples[0]))
            out.invalidate("warm-up prediction differs from the offline model");
        const std::pair<double, std::size_t> got{ctx.test_accuracy, ctx.hcb_mapped_luts};
        if (fixture && got != *fixture) out.invalidate("repeated fixture flows differ");
        if (!fixture) fixture = got;
        model = ctx.trained;
        if (o.trace) {
            record_stage_layers(probe, flow_s, out);
            const long rp = tracer.open("replay", probe.op, Tracer::kNoParent);
            replay_compile_layers(tracer, probe.op, rp, cfg, split, *ctx.trained,
                                  *ctx.arch, ctx.hcb_mapped_luts, out);
            replay_request_layers(tracer, probe.op, rp, *ctx.trained, split.test, out);
            tracer.close(rp);
        }
        if (r + 1 < kSetupRepeats) {
            daemon->close_input();
            std::string line;
            while (reader->next(line)) {
            }
            daemon->wait();
        }
    }

    // Inputs: a seeded permutation of the test split, cycled; the first
    // pass covers every test example exactly once and gives the accuracy.
    const data::Dataset& test = split.test;
    const auto offline = matador::infer::BatchEngine(*model).predict(
        test.examples.data(), test.size());
    std::mt19937_64 rng(o.seed);
    std::vector<std::size_t> perm(test.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), rng);
    std::vector<std::string> prefix(test.size());
    for (std::size_t i = 0; i < test.size(); ++i)
        prefix[i] = "{\"x\":\"" + test.examples[i].to_string() + "\",\"id\":";

    const std::size_t n = op_count(o.seconds, kTrickleRatePerSecond, test.size());
    const auto example_of = [&](std::size_t k) { return perm[k % perm.size()]; };
    const auto request = [&](std::size_t k) {
        return prefix[example_of(k)] + std::to_string(k) + "}\n";
    };

    // Open loop: Poisson arrivals, each request timed from when it was due.
    std::vector<std::uint64_t> start_ns(n + 1, 0);
    std::exponential_distribution<double> gap(kTrickleRatePerSecond);
    std::uint64_t due = obs::now_ns() + 20'000'000;
    for (auto& s : start_ns) {
        s = due;
        due += std::uint64_t(gap(rng) * 1e9);
    }
    std::vector<double> lateness_us;
    lateness_us.reserve(n);
    Replies replies(n);
    std::thread reader_thread([&] { read_replies(*reader, replies); });
    try {
        for (std::size_t k = 0; k < n; ++k) {
            const std::string line = request(k);
            sleep_until_ns(start_ns[k]);
            const std::uint64_t now = obs::now_ns();
            lateness_us.push_back(double(now - start_ns[k]) * 1e-3);
            write_all(daemon->to(), line);
        }
        // The status probe arrives as the next Poisson arrival would, so
        // the last request's reply waits no longer than any other.
        sleep_until_ns(start_ns[n]);
        write_all(daemon->to(), "{\"op\":\"status\"}\n");
    } catch (...) {
        daemon->close_input();
        reader_thread.join();
        throw;
    }
    daemon->close_input();
    reader_thread.join();
    const double daemon_rss_mb = daemon->wait();

    // Gates: every request answered once, ok, and equal to offline predict.
    std::vector<double> lat_us, batcher_us, hold_us, traced_us, untraced_us;
    std::size_t slo_met = 0, served_correct = 0;
    std::uint64_t first_ns = start_ns[0], last_ns = start_ns[0];
    for (std::size_t k = 0; k < n; ++k) {
        ++out.attempted;
        const std::size_t ex = example_of(k);
        if (replies.recv_ns[k] == kNoReply || replies.prediction[k] < 0 ||
            std::uint32_t(replies.prediction[k]) != offline[ex]) {
            out.fail("request " + std::to_string(k) +
                     (replies.recv_ns[k] == kNoReply ? " got no reply"
                      : replies.prediction[k] < 0    ? " got an error reply"
                                                     : " prediction differs from offline"));
            lat_us.push_back(std::numeric_limits<double>::infinity());
            continue;
        }
        if (k < test.size() && offline[ex] == test.labels[ex]) ++served_correct;
        const double us = double(replies.recv_ns[k] - start_ns[k]) * 1e-3;
        lat_us.push_back(us);
        (k % 2 == 1 ? traced_us : untraced_us).push_back(us);
        batcher_us.push_back(replies.lat_us[k]);
        hold_us.push_back(us - replies.lat_us[k]);
        if (us <= kTrickleSloUs) ++slo_met;
        last_ns = std::max(last_ns, replies.recv_ns[k]);
    }
    if (replies.unexpected) out.invalidate(std::to_string(replies.unexpected) + " unexpected reply lines");
    const double accuracy = double(served_correct) / double(test.size());
    if (accuracy != fixture->first)
        out.invalidate("served accuracy differs from the fixture flow's test accuracy");

    out.end_to_end["setup_s"] = median(setup_s);
    out.end_to_end["latency_p50_us"] = percentile(lat_us, 50);
    out.end_to_end["latency_tail_us"] = sliced_p99(lat_us);
    out.end_to_end["throughput_ops_s"] =
        double(out.attempted - out.failed) / (double(last_ns - first_ns) * 1e-9);
    out.end_to_end["slo_met_share"] = double(slo_met) / double(out.attempted);
    out.end_to_end["ok_share"] = double(out.attempted - out.failed) / double(out.attempted);
    out.end_to_end["test_accuracy"] = accuracy;
    out.end_to_end["hcb_luts"] = double(fixture->second);
    out.end_to_end["peak_rss_mb"] = daemon_rss_mb;
    out.latency_us = lat_us;

    auto& L = out.layers;
    L["serve.batcher_us_p50"].push_back(percentile(batcher_us, 50));
    L["serve.batcher_us_p99"].push_back(percentile(batcher_us, 99));
    L["serve.server_hold_us_p50"].push_back(percentile(hold_us, 50));
    L["serve.server_hold_us_p99"].push_back(percentile(hold_us, 99));
    if (replies.status.is_null()) {
        out.invalidate("no status reply");
    } else {
        const auto& models = replies.status.at("models").as_array();
        if (models.size() != 1) out.invalidate("status lists other than one model");
        else {
            L["serve.batches"].push_back(models[0].at("batches").as_double());
            L["serve.batch_occupancy"].push_back(models[0].at("batch_occupancy").as_double());
        }
        L["serve.shed"].push_back(replies.status.at("total_shed").as_double());
    }
    L["loadgen.lateness_us_p99"].push_back(percentile(lateness_us, 99));
    const double late_p90 = percentile(lateness_us, 90);
    if (late_p90 > kMaxLatenessP90Us)
        out.invalidate("load generator fell behind its schedule (p90 lateness " +
                       std::to_string(late_p90) + " us)");
    if (o.trace) {
        // Client-side spans, recorded after the replies (odd requests only),
        // so the traced and untraced halves should read the same latency.
        for (std::size_t k = 1; k < n; k += 2)
            if (replies.recv_ns[k] != kNoReply)
                tracer.record("serve.request", k, Tracer::kNoParent, start_ns[k],
                              replies.recv_ns[k]);
        L["obs.trace_overhead_us"].push_back(median(traced_us) - median(untraced_us));
        const double split_us = percentile(batcher_us, 50) + percentile(hold_us, 50);
        if (split_us < 0.9 * percentile(lat_us, 50))
            out.invalidate("batcher + server hold medians explain under 90% of latency");
        obs::TraceRecorder::instance().disable();
    }
    return out;
}

}  // namespace perfbench
