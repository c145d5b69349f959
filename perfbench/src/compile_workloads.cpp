// flow-mnist and sweep-kws6, plus the layer replays every traced run uses.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "data/synthetic.hpp"
#include "infer/engine.hpp"
#include "lint/lint.hpp"
#include "logic/lut_mapper.hpp"
#include "model/architecture.hpp"
#include "model/packetization.hpp"
#include "model/sharing_analysis.hpp"
#include "obs/trace.hpp"
#include "rtl/generators.hpp"
#include "rtl/hcb_builder.hpp"
#include "rtl/verification.hpp"
#include "sat/prove.hpp"
#include "sim/accelerator_sim.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = matador::core;
namespace data = matador::data;
namespace fs = std::filesystem;
namespace obs = matador::obs;
using matador::model::TrainedModel;

namespace {

// Nominal op rates turn --seconds into a fixed op count.  They are close to
// what the parent commit reaches on a 4-core AVX-512 Xeon, so a run there
// measures about --seconds; a faster program measures the same ops sooner.
constexpr double kFlowsPerSecond = 1.8;
constexpr double kSweepsPerSecond = 0.7;
// Set-ups per run; the median counts.  A sweep set-up is a whole sweep.
constexpr int kFlowSetupRepeats = 5;
constexpr int kSweepSetupRepeats = 3;
// Latency limits per op for slo_met_share, at reference host speed (2-3x
// the parent commit).
constexpr double kFlowSloSeconds = 1.5;
constexpr double kSweepSloSeconds = 3.5;

constexpr const char* kStageSpans[core::kNumStages] = {
    "pipeline.train",    "pipeline.analyze", "pipeline.architect",
    "pipeline.generate", "pipeline.verify",  "pipeline.report"};

class SpannedStage final : public core::Stage {
public:
    SpannedStage(core::StageKind kind, StageProbe& probe)
        : inner_(core::make_default_stage(kind)), probe_(probe) {}

    core::StageKind kind() const override { return inner_->kind(); }

    core::StageStatus run(core::CompileContext& ctx) const override {
        const std::size_t i = core::stage_index(kind());
        const long id = probe_.tracer->open(kStageSpans[i], probe_.op, probe_.parent);
        core::StageStatus status;
        try {
            status = inner_->run(ctx);
        } catch (...) {
            probe_.ms[i] = probe_.tracer->close(id) * 1e3;
            throw;
        }
        probe_.ms[i] = probe_.tracer->close(id) * 1e3;
        return status;
    }

private:
    std::unique_ptr<core::Stage> inner_;
    StageProbe& probe_;
};

/// The exact outputs every op must reproduce.
struct Reference {
    double test_accuracy = 0.0;
    std::size_t luts = 0;
    bool operator==(const Reference&) const = default;
};

Reference reference_of(const core::FlowResult& r) {
    return {r.test_accuracy, r.hcb_mapped_luts};
}

double elapsed_s(std::uint64_t t0) { return double(obs::now_ns() - t0) * 1e-9; }

data::Split mnist_split() {
    return data::train_test_split(data::make_mnist_like(200, 11), 0.85, 3);
}

data::Split kws6_split() {
    return data::train_test_split(data::make_kws6_like(200, 11), 0.85, 3);
}

std::vector<core::FlowConfig> sweep_grid(const std::string& cache_dir) {
    core::FlowConfig base;
    base.train_threads = 1;
    base.cache_dir = cache_dir;
    return core::expand_grid(base, {{"bus_width", {"8", "16", "32", "64"}},
                                    {"strash", {"true", "false"}},
                                    {"verify_sat", {"false", "true"}}});
}

/// One sweep in a fresh cache_dir `dir` (which must not exist yet).
core::SweepResult one_sweep(const data::Split& split, const std::string& dir,
                            double* seconds) {
    const auto grid = sweep_grid(dir);
    core::SweepOptions so;
    so.threads = 1;
    const auto t0 = obs::now_ns();
    core::SweepResult sr = core::sweep(split.train, split.test, grid, so);
    *seconds = elapsed_s(t0);
    return sr;
}

/// Delete the sweeps' cache dirs and wait until the file system has
/// settled.  The root file system may discard freed blocks at journal
/// commit, so deleting between sweeps would make the next sweep's fsyncs
/// wait for the discards.
void remove_caches(const std::string& root) {
    fs::remove_all(root);
    const int fd = ::open(fs::path(root).parent_path().c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::syncfs(fd);
        ::close(fd);
    }
}

/// Gate a sweep against the per-point reference; returns true when clean.
bool sweep_matches(const core::SweepResult& sr, const std::vector<Reference>& ref,
                   Outcome& out, const std::string& what) {
    if (sr.points.size() != ref.size()) {
        out.fail(what + ": " + std::to_string(sr.points.size()) + " points");
        return false;
    }
    for (const auto& p : sr.points) {
        if (!p.ok || !(reference_of(p.result) == ref[p.index])) {
            out.fail(what + ": point " + std::to_string(p.index) +
                     (p.ok ? " differs from the first sweep" : " not ok"));
            return false;
        }
    }
    return true;
}

/// The end-to-end metrics flow and sweep share.  `ops` holds every timed
/// op; latencies and throughput are taken at reference host speed.  A run
/// has too few ops for a p99, so the tail is the p75: a 45-flow run has ten
/// flows beyond it.  `peak_mb` holds each op's own peak RSS.
void add_common_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                           const ScaledOps& ops, double items_per_op,
                           std::size_t slo_met, const std::vector<double>& peak_mb) {
    std::vector<double> lat_us;
    double total_s = 0.0;
    for (std::size_t i = 0; i < ops.raw_us.size(); ++i) {
        lat_us.push_back(ops.scaled_us(i));
        total_s += lat_us.back() * 1e-6;
    }
    out.end_to_end["setup_s"] = median(setup_s);
    out.end_to_end["latency_p50_us"] = percentile(lat_us, 50);
    out.end_to_end["latency_tail_us"] = percentile(lat_us, 75);
    out.end_to_end["throughput_ops_s"] = items_per_op * double(lat_us.size()) / total_s;
    out.end_to_end["slo_met_share"] = double(slo_met) / double(out.attempted);
    out.end_to_end["ok_share"] =
        double(out.attempted - out.failed) / double(out.attempted);
    out.end_to_end["peak_rss_mb"] = median(peak_mb);
    out.latency_us = lat_us;
    out.raw_latency_us = ops.raw_us;
    out.probe_ms = ops.probe_ms;
}

}  // namespace

core::Pipeline spanned_pipeline(const core::FlowConfig& cfg, StageProbe& probe) {
    core::Pipeline p(cfg);
    for (auto k : core::stage_order())
        p.set_stage(std::make_unique<SpannedStage>(k, probe));
    return p;
}

void record_stage_layers(const StageProbe& probe, double flow_seconds,
                         Outcome& out) {
    double covered_ms = 0.0;
    for (std::size_t i = 0; i < core::kNumStages; ++i) {
        out.layers[std::string(kStageSpans[i]) + "_ms"].push_back(probe.ms[i]);
        covered_ms += probe.ms[i];
    }
    const double uncovered = 1.0 - covered_ms / (flow_seconds * 1e3);
    out.layers["pipeline.uncovered_share"].push_back(uncovered);
    if (uncovered >= 0.10)
        out.invalidate("stage spans cover only " +
                       std::to_string(100.0 * (1.0 - uncovered)) +
                       "% of a flow's wall time");
}

void replay_compile_layers(Tracer& tracer, std::uint64_t op, long parent,
                           const core::FlowConfig& cfg, const data::Split& split,
                           const TrainedModel& m,
                           const matador::model::ArchParams& arch,
                           std::size_t expected_luts, Outcome& out) {
    auto& L = out.layers;
    {
        // The train stage's call: same options, same data, same eval set.
        matador::tm::TsetlinMachine machine(cfg.tm, split.train.num_features,
                                            split.train.num_classes);
        matador::train::FitOptions fo;
        fo.epochs = cfg.epochs;
        fo.threads = unsigned(cfg.train_threads);
        fo.eval_every = cfg.eval_every;
        fo.patience = cfg.patience;
        matador::train::ParallelTrainer trainer(fo);
        matador::train::FitReport rep;
        const double ms = timed_span(tracer, "train.fit", op, parent, [&] {
            rep = trainer.fit(machine, split.train, &split.test);
        });
        L["train.fit_ms"].push_back(ms);
        L["train.examples_per_s"].push_back(double(split.train.size()) *
                                            double(rep.epochs_run) / (ms * 1e-3));
        if (machine.export_model().content_hash() != m.content_hash())
            out.fail("replayed fit trained a different model");
    }

    L["model.analyze_ms"].push_back(timed_span(tracer, "model.analyze", op, parent, [&] {
        (void)matador::model::analyze_sparsity(m);
        (void)matador::model::analyze_sharing(
            m, matador::model::PacketPlan(m.num_features(), cfg.arch.bus_width));
    }));

    std::vector<matador::rtl::HcbNetlist> hcbs;
    L["rtl.build_hcbs_ms"].push_back(timed_span(tracer, "rtl.build_hcbs", op, parent, [&] {
        hcbs = matador::rtl::build_hcbs(m, arch.plan, cfg.strash);
    }));
    std::size_t luts = 0;
    L["logic.map_to_luts_ms"].push_back(timed_span(tracer, "logic.map_to_luts", op, parent, [&] {
        for (const auto& hcb : hcbs) luts += matador::logic::map_to_luts(hcb.aig).lut_count;
    }));
    std::size_t ands = 0;
    for (const auto& hcb : hcbs) ands += hcb.aig.count_reachable_ands();
    L["logic.aig_ands"].push_back(double(ands));
    // Without strash the generate stage counts every AND as a LUT.
    if ((cfg.strash ? luts : ands) != expected_luts)
        out.fail("replayed LUT mapping disagrees with the generate stage");

    // Generate assembles with the architect stage's architecture and only
    // then retimes the clock; sim below runs on the retimed one, as verify does.
    matador::rtl::RtlDesign design;
    L["rtl.assemble_ms"].push_back(timed_span(tracer, "rtl.assemble", op, parent, [&] {
        design = matador::rtl::assemble_rtl(
            m, matador::model::derive_architecture(m, cfg.arch), hcbs, cfg.strash);
    }));
    design.arch = arch;

    L["lint.lint_design_ms"].push_back(timed_span(tracer, "lint.lint_design", op, parent, [&] {
        if (matador::lint::lint_design(design, &m).errors() > 0)
            out.fail("lint reports errors on the replayed design");
    }));
    if (!cfg.skip_rtl_verification)
        L["rtl.verify_design_ms"].push_back(timed_span(tracer, "rtl.verify_design", op, parent, [&] {
            if (!matador::rtl::verify_design(design, m, cfg.verify_vectors, 1234).ok())
                out.fail("equivalence ladder fails on the replayed design");
        }));

    const std::size_t n = std::max<std::size_t>(2, cfg.sim_datapoints);
    if (split.test.size() < n) throw std::runtime_error("test split too small for sim");
    const std::vector<matador::util::BitVector> inputs(
        split.test.examples.begin(), split.test.examples.begin() + long(n));
    const auto golden = matador::infer::BatchEngine(m).predict(inputs.data(), n);
    L["sim.system_run_ms"].push_back(timed_span(tracer, "sim.system_run", op, parent, [&] {
        if (matador::sim::AcceleratorSim(m, arch).run(inputs).predictions != golden)
            out.fail("system sim disagrees with the batched engine");
    }));

    if (cfg.verify_sat) {
        matador::sat::ProveOptions popt;
        popt.induction_k = cfg.induction_k;
        popt.threads = unsigned(cfg.train_threads);
        matador::sat::ProveReport rep;
        L["sat.prove_design_ms"].push_back(timed_span(tracer, "sat.prove_design", op, parent, [&] {
            rep = matador::sat::prove_design(design.hcbs, m, popt);
        }));
        L["sat.conflicts"].push_back(double(rep.totals.conflicts));
        if (!rep.equivalent) out.fail("SAT tier does not prove the replayed design");
    }
}

void replay_request_layers(Tracer& tracer, std::uint64_t op, long parent,
                           const TrainedModel& m, const data::Dataset& test,
                           Outcome& out) {
    using matador::util::BitVector;
    using matador::util::Json;
    constexpr std::size_t kLanes = matador::infer::BatchEngine::kLanes;
    constexpr int kPasses = 4;
    const matador::infer::BatchEngine engine(m);
    const std::size_t blocks = test.size() / kLanes;
    if (blocks == 0) throw std::runtime_error("test split smaller than one block");
    const auto offline = engine.predict(test.examples.data(), blocks * kLanes);

    std::vector<std::string> lines;
    for (std::size_t i = 0; i < blocks * kLanes; ++i) {
        Json r = Json::object();
        r.set("x", test.examples[i].to_string());
        r.set("id", double(i));
        lines.push_back(r.dump());
    }
    char model_hex[17];
    std::snprintf(model_hex, sizeof model_hex, "%016llx",
                  static_cast<unsigned long long>(m.content_hash()));
    std::vector<double> parse_us, decode_us, predict_us, dump_us;
    for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t b = 0; b < blocks; ++b) {
            std::vector<BitVector> xs;
            std::vector<double> ids;
            for (std::size_t i = b * kLanes; i < (b + 1) * kLanes; ++i) {
                Json req;
                parse_us.push_back(1e3 * timed_span(tracer, "util.json_parse", op, parent,
                                                    [&] { req = Json::parse(lines[i]); }));
                decode_us.push_back(1e3 * timed_span(tracer, "util.bitvector_parse", op, parent, [&] {
                    xs.push_back(BitVector::from_string(req.at("x").as_string()));
                }));
                ids.push_back(req.at("id").as_double());
            }
            std::vector<std::uint32_t> preds;
            predict_us.push_back(1e3 * timed_span(tracer, "infer.predict_block", op, parent, [&] {
                preds = engine.predict(xs.data(), xs.size());
            }));
            for (std::size_t j = 0; j < kLanes; ++j) {
                if (preds[j] != offline[b * kLanes + j])
                    out.fail("replayed request prediction differs from offline");
                Json reply = Json::object();
                reply.set("ok", true);
                reply.set("id", ids[j]);
                reply.set("prediction", double(preds[j]));
                reply.set("model", model_hex);
                reply.set("lat_us", 0.0);
                dump_us.push_back(1e3 * timed_span(tracer, "util.json_dump", op, parent,
                                                   [&] { (void)reply.dump(); }));
            }
        }
    }
    out.layers["util.json_parse_us"].push_back(median(parse_us));
    out.layers["util.bitvector_parse_us"].push_back(median(decode_us));
    out.layers["infer.predict_block_us"].push_back(median(predict_us));
    out.layers["util.json_dump_us"].push_back(median(dump_us));
}

Outcome run_flow_mnist(const Options& o, Tracer& tracer) {
    Outcome out;
    core::FlowConfig cfg;
    cfg.train_threads = 1;
    HostProbe host;

    // Set-up: dataset synthesis plus one reference flow whose exact outputs
    // every timed flow must reproduce.  Repeated; the median counts.
    data::Split split;
    std::optional<Reference> ref;
    std::vector<double> setup_s;
    ScaledOps setups;
    setups.probe_ms.push_back(host.measure());
    for (int r = 0; r < kFlowSetupRepeats; ++r) {
        const double c0 = process_cpu_us();
        const auto t0 = obs::now_ns();
        split = mnist_split();
        const core::CompileContext ctx = core::Pipeline(cfg).run(split.train, split.test);
        setups.raw_us.push_back(elapsed_s(t0) * 1e6);
        setups.cpu_us.push_back(process_cpu_us() - c0);
        setups.probe_ms.push_back(host.measure());
        setup_s.push_back(setups.scaled_us(std::size_t(r)) * 1e-6);
        const Reference got = reference_of(ctx.to_flow_result());
        if (!ctx.ok()) throw std::runtime_error("reference flow failed:\n" +
                                                core::format_diagnostics(ctx));
        if (ref && !(got == *ref)) out.invalidate("repeated reference flows differ");
        if (!ref) ref = got;
    }

    const std::size_t n = op_count(o.seconds, kFlowsPerSecond, 3);
    const core::Pipeline plain(cfg);
    StageProbe probe;
    probe.tracer = &tracer;
    const core::Pipeline spanned = spanned_pipeline(cfg, probe);
    ScaledOps ops;
    ops.probe_ms.push_back(setups.probe_ms.back());
    std::vector<double> traced_us, untraced_us, peak_mb;
    std::size_t slo_met = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Traced runs interleave traced and untraced flows; the difference of
        // their medians is the tracing overhead.
        const bool traced = o.trace && i % 2 == 1;
        if (traced) {
            obs::TraceRecorder::instance().enable();
            probe.op = i;
            probe.parent = tracer.open("flow", i, Tracer::kNoParent);
        }
        reset_peak_rss();
        const double c0 = process_cpu_us();
        const auto t0 = obs::now_ns();
        const core::CompileContext ctx = (traced ? spanned : plain).run(split.train, split.test);
        const double s = elapsed_s(t0);
        ops.cpu_us.push_back(process_cpu_us() - c0);
        peak_mb.push_back(peak_rss_mb());
        if (traced) tracer.close(probe.parent);
        ops.raw_us.push_back(s * 1e6);
        ops.probe_ms.push_back(host.measure());
        const double us = ops.scaled_us(i);
        ++out.attempted;
        bool good = ctx.ok();
        if (!good) out.fail("flow " + std::to_string(i) + ":\n" + core::format_diagnostics(ctx));
        else if (!(reference_of(ctx.to_flow_result()) == *ref)) {
            good = false;
            out.fail("flow " + std::to_string(i) + " differs from the reference flow");
        }
        (traced ? traced_us : untraced_us).push_back(us);
        if (good && us <= kFlowSloSeconds * 1e6) ++slo_met;
        if (traced) {
            record_stage_layers(probe, s, out);
            if (good) {
                const long rp = tracer.open("replay", i, Tracer::kNoParent);
                replay_compile_layers(tracer, i, rp, cfg, split, *ctx.trained, *ctx.arch,
                                      ctx.hcb_mapped_luts, out);
                replay_request_layers(tracer, i, rp, *ctx.trained, split.test, out);
                tracer.close(rp);
            }
            obs::TraceRecorder::instance().disable();
        }
    }
    add_common_end_to_end(out, setup_s, ops, 1.0, slo_met, peak_mb);
    out.end_to_end["test_accuracy"] = ref->test_accuracy;
    out.end_to_end["hcb_luts"] = double(ref->luts);
    if (o.trace)
        out.layers["obs.trace_overhead_us"].push_back(median(traced_us) - median(untraced_us));
    return out;
}

Outcome run_sweep_kws6(const Options& o, Tracer& tracer) {
    Outcome out;
    const std::string caches = o.work_dir + "/sweep-caches";
    data::Split split;
    std::vector<Reference> ref;
    std::vector<double> setup_s;
    HostProbe host;
    ScaledOps setups;
    setups.probe_ms.push_back(host.measure());
    for (int r = 0; r < kSweepSetupRepeats; ++r) {
        const double c0 = process_cpu_us();
        const auto t0 = obs::now_ns();
        split = kws6_split();
        double s = 0.0;
        const auto sr = one_sweep(split, caches + "/setup-" + std::to_string(r), &s);
        setups.raw_us.push_back(elapsed_s(t0) * 1e6);
        setups.cpu_us.push_back(process_cpu_us() - c0);
        setups.probe_ms.push_back(host.measure());
        setup_s.push_back(setups.scaled_us(std::size_t(r)) * 1e-6);
        if (ref.empty()) {
            for (const auto& p : sr.points) {
                if (!p.ok) throw std::runtime_error("reference sweep point failed");
                ref.push_back(reference_of(p.result));
            }
        } else if (Outcome scratch; !sweep_matches(sr, ref, scratch, "setup sweep")) {
            out.invalidate("repeated reference sweeps differ");
        }
    }

    remove_caches(caches);

    const std::size_t n = op_count(o.seconds, kSweepsPerSecond, 2);
    ScaledOps ops;
    ops.probe_ms.push_back(host.measure());
    std::vector<double> traced_us, untraced_us, peak_mb;
    std::size_t slo_met = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool traced = o.trace && i % 2 == 1;
        long op_span = Tracer::kNoParent;
        if (traced) {
            obs::TraceRecorder::instance().enable();
            op_span = tracer.open("sweep", i, Tracer::kNoParent);
        }
        double s = 0.0;
        reset_peak_rss();
        const double c0 = process_cpu_us();
        const auto sr = one_sweep(split, caches + "/op-" + std::to_string(i), &s);
        ops.cpu_us.push_back(process_cpu_us() - c0);
        peak_mb.push_back(peak_rss_mb());
        if (traced) tracer.close(op_span);
        ops.raw_us.push_back(s * 1e6);
        ops.probe_ms.push_back(host.measure());
        const double us = ops.scaled_us(i);
        ++out.attempted;
        const bool good = sweep_matches(sr, ref, out, "sweep " + std::to_string(i));
        (traced ? traced_us : untraced_us).push_back(us);
        if (good && us <= kSweepSloSeconds * 1e6) ++slo_met;
        if (traced) {
            // Stage times per sweep from the points' own stage records; the
            // sweep spawns its pipelines itself, so there is no stage to wrap.
            double busy_s = 0.0;
            for (std::size_t k = 0; k < core::kNumStages; ++k) {
                double stage_s = 0.0;
                for (const auto& p : sr.points) stage_s += p.stages[k].seconds;
                out.layers[std::string(kStageSpans[k]) + "_ms"].push_back(stage_s * 1e3);
                busy_s += stage_s;
            }
            const double busy = busy_s / (double(sr.threads_used) * sr.wall_seconds);
            out.layers["sweep.worker_busy_share"].push_back(busy);
            out.layers["pipeline.uncovered_share"].push_back(1.0 - busy);
            const auto ratio = [](const auto& t) {
                return double(t.hits()) / double(t.hits() + t.misses);
            };
            out.layers["store.train_hit_ratio"].push_back(ratio(sr.store_stats.train));
            out.layers["store.generate_hit_ratio"].push_back(ratio(sr.store_stats.generate));
            if (good) {
                // Grid point 1 (bus_width 8, strash, SAT) calls every layer.
                const auto& p = sr.points[1];
                core::FlowConfig cfg = p.cfg;
                cfg.cache_dir.clear();
                const long rp = tracer.open("replay", i, Tracer::kNoParent);
                replay_compile_layers(tracer, i, rp, cfg, split, p.result.trained_model,
                                      p.result.arch, p.result.hcb_mapped_luts, out);
                replay_request_layers(tracer, i, rp, p.result.trained_model, split.test, out);
                tracer.close(rp);
            }
            obs::TraceRecorder::instance().disable();
        }
    }
    add_common_end_to_end(out, setup_s, ops, double(ref.size()), slo_met, peak_mb);
    remove_caches(caches);
    std::size_t luts = 0;
    for (const auto& r : ref) luts += r.luts;
    out.end_to_end["test_accuracy"] = ref[0].test_accuracy;
    out.end_to_end["hcb_luts"] = double(luts);
    if (o.trace)
        out.layers["obs.trace_overhead_us"].push_back(median(traced_us) - median(untraced_us));
    return out;
}

}  // namespace perfbench
