// The three workloads, and the layer replays their traced runs share.
#pragma once

#include <array>
#include <cstdint>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"

namespace perfbench {

/// Repeated cold core::Pipeline::run on mnist-like (no artifact store).
Outcome run_flow_mnist(const Options& o, Tracer& tracer);
/// Repeated core::sweep over a 16-point grid on kws6-like, fresh cache_dir
/// per sweep.
Outcome run_sweep_kws6(const Options& o, Tracer& tracer);
/// `matador serve` over stdin/stdout under open-loop Poisson arrivals.
Outcome run_serve_trickle(const Options& o, Tracer& tracer);

/// Where the stage wrappers of a traced pipeline put their spans.
struct StageProbe {
    Tracer* tracer = nullptr;
    std::uint64_t op = 0;
    long parent = Tracer::kNoParent;
    std::array<double, matador::core::kNumStages> ms{};  ///< last run, per stage
};

/// A pipeline whose six default stages each run inside a span.
matador::core::Pipeline spanned_pipeline(const matador::core::FlowConfig& cfg,
                                         StageProbe& probe);

/// Record `probe`'s stage times and the share of `flow_seconds` no stage
/// span covers; invalidates the run when that share reaches 10%.
void record_stage_layers(const StageProbe& probe, double flow_seconds,
                         Outcome& out);

/// Call each compile layer's public function once on an op's own inputs and
/// artifacts (fit, analyze, build_hcbs, map_to_luts, assemble, lint,
/// verify ladder, system sim, and SAT when cfg.verify_sat), one span each,
/// checking every result against what the op produced.
void replay_compile_layers(Tracer& tracer, std::uint64_t op, long parent,
                           const matador::core::FlowConfig& cfg,
                           const matador::data::Split& split,
                           const matador::model::TrainedModel& m,
                           const matador::model::ArchParams& arch,
                           std::size_t expected_luts, Outcome& out);

/// Time the per-request serving calls (request parse, bit-string decode,
/// one 64-lane predict block, reply dump) on request lines built from
/// `test`, one span per call.
void replay_request_layers(Tracer& tracer, std::uint64_t op, long parent,
                           const matador::model::TrainedModel& m,
                           const matador::data::Dataset& test, Outcome& out);

}  // namespace perfbench
