// perfbench_harness: runs one workload and prints its outcome as the last
// line of stdout.  Normally launched by perfbench/run.py, which builds it.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     --matador <path to the matador CLI> --work-dir <dir>
//   perfbench_harness --fingerprint
#include <signal.h>
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using matador::util::Json;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench_harness: %s\nusage: perfbench_harness --workload "
                 "<flow-mnist|sweep-kws6|serve-trickle> --seed <n> "
                 "--seconds <s> --trace <0|1> --matador <cli> --work-dir <dir>\n",
                 why);
    std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
    perfbench::Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload") o.workload = value;
        else if (key == "--seed") o.seed = std::stoull(value);
        else if (key == "--seconds") o.seconds = std::stod(value);
        else if (key == "--trace") o.trace = value == "1";
        else if (key == "--matador") o.matador = value;
        else if (key == "--work-dir") o.work_dir = value;
        else usage(("unknown option " + key).c_str());
    }
    if (argc % 2 == 0) usage("options come in pairs");
    if (o.workload.empty() || o.work_dir.empty()) usage("--workload and --work-dir are required");
    if (!(o.seconds > 0)) usage("--seconds must be positive");
    return o;
}

/// The run's outcome; run.py turns it into the final line, taking metric
/// names and units from BENCHMARK.json.
Json result_json(const Outcome& out) {
    Json e2e = Json::object();
    for (const auto& [name, value] : out.end_to_end) e2e.set(name, value);
    Json layers = Json::object();
    for (const auto& [name, samples] : out.layers)
        layers.set(name, perfbench::median(samples));
    Json r = Json::object();
    r.set("correct", out.valid && out.failed == 0);
    r.set("attempted", double(out.attempted));
    r.set("failed", double(out.failed));
    r.set("end_to_end", std::move(e2e));
    r.set("layers", std::move(layers));
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc == 2 && std::strcmp(argv[1], "--fingerprint") == 0) {
        Json f = Json::object();
        f.set("compiler", __VERSION__);
        f.set("build_type", PERFBENCH_BUILD_TYPE);
        std::printf("%s\n", f.dump().c_str());
        return 0;
    }
    const perfbench::Options o = parse(argc, argv);
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr, "perfbench_harness: built as '%s'; timings need a Release build\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    ::signal(SIGPIPE, SIG_IGN);
    // Tight timer slack for the open-loop schedule's sleeps.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    std::filesystem::remove_all(o.work_dir);
    std::filesystem::create_directories(o.work_dir);

    perfbench::Tracer tracer;
    Outcome out;
    try {
        if (o.workload == "flow-mnist") out = perfbench::run_flow_mnist(o, tracer);
        else if (o.workload == "sweep-kws6") out = perfbench::run_sweep_kws6(o, tracer);
        else if (o.workload == "serve-trickle") out = perfbench::run_serve_trickle(o, tracer);
        else usage(("unknown workload " + o.workload).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }

    if (o.trace) {
        const std::string path = o.work_dir + "/trace.json";
        matador::obs::TraceRecorder::instance().write_file(path);
        std::printf("per-layer self time (trace: %s)\n%s", path.c_str(),
                    tracer.self_time_table().c_str());
    }
    const auto& lat = out.latency_us;
    std::printf("latency_us over %zu ops: min %.1f p25 %.1f p50 %.1f p75 %.1f p90 %.1f p99 %.1f max %.1f\n",
                lat.size(), perfbench::percentile(lat, 0.0), perfbench::percentile(lat, 25),
                perfbench::percentile(lat, 50), perfbench::percentile(lat, 75), perfbench::percentile(lat, 90),
                perfbench::percentile(lat, 99), perfbench::percentile(lat, 100));
    if (!out.probe_ms.empty()) {
        const auto& raw = out.raw_latency_us;
        const auto& pr = out.probe_ms;
        std::printf("unscaled latency_us: min %.1f p50 %.1f max %.1f; host probe ms over %zu: min %.3f p50 %.3f max %.3f (reference %.1f)\n",
                    perfbench::percentile(raw, 0.0), perfbench::percentile(raw, 50),
                    perfbench::percentile(raw, 100), pr.size(), perfbench::percentile(pr, 0.0),
                    perfbench::percentile(pr, 50), perfbench::percentile(pr, 100),
                    perfbench::HostProbe::kReferenceMs);
    }
    const Json r = result_json(out);
    std::printf("%s\n", r.dump().c_str());
    return r.at("correct").as_bool() ? 0 : 1;
}
