// step-charlm / step-wordlm: one training step per operation, executed by
// rt::Executor::run_step under the code's default ExecutorOptions on a pool
// of `threads` workers. Correctness: every loss is finite, and the first
// kReferenceSteps losses equal those of a second executor run with the
// sequential schedule and the reference kernels (bitwise, or within the
// SIMD epsilon when compiled SIMD kernels are the default).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include <malloc.h>

#include "common.h"
#include "spans.h"
#include "src/analysis/stages.h"
#include "src/runtime/arena.h"
#include "src/runtime/executor.h"
#include "src/runtime/gemm.h"

namespace gfbench {
namespace {

constexpr int kReferenceSteps = 2;
/// Relative loss tolerance when the SIMD path is the default (the codegen
/// tests gate sigmoid/tanh at 1e-5).
constexpr float kSimdEpsilon = 1e-5f;

struct StepShape {
  double hidden;
  double batch;
};

/// charlm at the ROADMAP's reference shape. wordlm is shrunk from hidden 64,
/// batch 8 (about 5 s per step) so a run holds enough steps; at this shape
/// the vocabulary GEMMs still take about 80% of op time.
StepShape shape_for(const std::string& family) {
  if (family == "charlm") return {64, 8};
  return {32, 1};
}

float loss_of(const gf::rt::Executor& ex, const gf::ir::Tensor* loss) {
  return ex.value(loss).fdata()[0];
}

/// Union of op intervals over the step's wall time.
double busy_union_seconds(const gf::rt::ProfileReport& r) {
  std::vector<std::pair<double, double>> iv;
  iv.reserve(r.timeline.size());
  for (const auto& e : r.timeline) iv.emplace_back(e.start_seconds, e.end_seconds);
  std::sort(iv.begin(), iv.end());
  double covered = 0, lo = 0, hi = -1;
  for (const auto& [s, e] : iv) {
    if (s > hi) {
      if (hi > lo) covered += hi - lo;
      lo = s;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (hi > lo) covered += hi - lo;
  return covered;
}

struct Setup {
  gf::models::ModelSpec spec;
  std::unique_ptr<gf::rt::Executor> executor;
  float first_loss = 0;
};

}  // namespace

Outcome run_step(const Options& options, const std::string& family) {
  // glibc raises its mmap threshold each time it frees a mapped buffer, so
  // whether the step's 32 MB vocabulary buffers land in the heap or in
  // their own mappings depends on thread timing, and peak RSS varies by
  // tens of MB from run to run. Fixing the threshold at glibc's initial
  // 128 KiB gives every large tensor its own mapping, so peak RSS tracks
  // live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Outcome out;
  Checker checker;
  const StepShape shape = shape_for(family);
  gf::conc::ThreadPool pool(options.threads);

  gf::rt::ExecutorOptions exec_options;  // the code's defaults
  exec_options.pool = &pool;
  exec_options.seed = static_cast<unsigned>(options.seed);

  char inputs[160];
  std::snprintf(inputs, sizeof inputs, "%s hidden=%g batch=%g executor_seed=%u",
                family.c_str(), shape.hidden, shape.batch, exec_options.seed);
  out.input_digest = fnv1a(inputs);
  std::printf("# inputs: %s\n", inputs);

  // Set-up: build (runs every verify pass), construct, first (lazy) step.
  // The first set-up is timed from process start; the repetitions for the
  // median run after the timed loop, so they cannot disturb it.
  auto set_up = [&](Setup& s) {
    const double t0 = now_s();
    {
      Scope span("models.build", family);
      s.spec = gf::analysis::stages::build_stage(family);
    }
    {
      Scope span("executor.construct", family);
      s.executor = std::make_unique<gf::rt::Executor>(
          *s.spec.graph, s.spec.bind(shape.hidden, shape.batch), exec_options);
      s.executor->retain(s.spec.loss);
    }
    {
      Scope span("executor.first_step", family);
      s.executor->run_step();
    }
    s.first_loss = loss_of(*s.executor, s.spec.loss);
    return now_s() - t0;
  };
  Setup setup;
  set_up(setup);
  std::vector<double> setup_times = {since_process_start_s()};

  // Timed loop. Traced runs alternate traced and untraced steps, so the
  // difference of their medians is the tracing overhead.
  std::vector<float> losses = {setup.first_loss};
  std::vector<gf::rt::ProfileReport> reports;
  std::vector<double> allocs, traced_ms, untraced_ms;
  const bool tracing = options.trace;
  const double start = now_s();
  while (out.attempted == 0 || now_s() - start < options.seconds) {
    const bool traced = tracing && out.attempted % 2 == 1;
    tracing::set_paused(!traced);
    const std::size_t allocs_before = gf::rt::aligned_alloc_count();
    const double t0 = now_s();
    gf::rt::ProfileReport report;
    {
      Scope s("executor.step", family);
      report = setup.executor->run_step();
    }
    const double ms = (now_s() - t0) * 1e3;
    allocs.push_back(static_cast<double>(gf::rt::aligned_alloc_count() - allocs_before));
    tracing::set_paused(false);
    out.latencies_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    ++out.attempted;
    float loss = loss_of(*setup.executor, setup.spec.loss);
    if (options.plant_fault && out.attempted == 1) loss = std::nextafter(loss, 1e30f);
    losses.push_back(loss);
    if (tracing) reports.push_back(std::move(report));
  }
  out.wall_s = now_s() - start;
  out.peak_rss_mb = peak_rss_mb();

  // Reference: sequential schedule and reference kernels from the same
  // seed; the first steps' losses must match.
  {
    const gf::rt::KernelBackend saved = gf::rt::kernel_backend();
    gf::rt::set_kernel_backend(gf::rt::KernelBackend::kReference);
    gf::rt::ExecutorOptions ref_options = exec_options;
    ref_options.schedule = gf::rt::Schedule::kSequential;
    ref_options.fuse = false;
    ref_options.memory_plan = false;
    ref_options.simd = false;
    gf::rt::Executor reference(*setup.spec.graph,
                               setup.spec.bind(shape.hidden, shape.batch), ref_options);
    reference.retain(setup.spec.loss);
    const int steps = std::min<int>(kReferenceSteps, static_cast<int>(losses.size()));
    std::vector<bool> step_failed(losses.size(), false);
    for (int i = 0; i < steps; ++i) {
      reference.run_step();
      const float want = loss_of(reference, setup.spec.loss);
      // Bitwise, unless compiled SIMD kernels are the default: their
      // sigmoid/tanh are documented as epsilon-equal to the interpreter.
      const bool equal = exec_options.simd
                             ? std::fabs(losses[i] - want) <= kSimdEpsilon * std::fabs(want)
                             : std::memcmp(&want, &losses[i], sizeof want) == 0;
      if (!equal) {
        char why[160];
        std::snprintf(why, sizeof why, "%s step %d loss %.9g != reference %.9g",
                      family.c_str(), i, losses[i], want);
        checker.fail(why);
        step_failed[i] = true;
      }
    }
    gf::rt::set_kernel_backend(saved);
    for (std::size_t i = 0; i < losses.size(); ++i) {
      if (!std::isfinite(losses[i])) {
        checker.fail(family + " non-finite loss at step " + std::to_string(i));
        step_failed[i] = true;
      }
    }
    // The set-up step (index 0) counts against the run like a timed one.
    for (const bool failed : step_failed) out.failed += failed;
  }

  double spent = setup_times[0];
  while (another_setup(setup_times.size(), spent)) {
    Setup again;
    setup_times.push_back(set_up(again));
    spent += setup_times.back();
    if (std::memcmp(&again.first_loss, &setup.first_loss, sizeof(float)) != 0) {
      checker.fail(family + ": repeated set-up changed the first loss");
      ++out.failed;
    }
  }
  out.setup_s = median(setup_times);
  out.setup_reps = setup_times.size();

  if (tracing) {
    const auto spans = tracing::collect();
    const auto t = tracing::totals(spans);
    auto self_of = [&](const char* name) {
      auto it = t.find(name);
      return it == t.end() ? 0.0 : it->second.self / static_cast<double>(it->second.calls);
    };
    out.layer["models.build_s"] = self_of("models.build");
    out.layer["executor.construct_s"] = self_of("executor.construct");
    out.layer["executor.first_step_s"] = self_of("executor.first_step");
    out.layer["trace.overhead_p50_ms"] = median(traced_ms) - median(untraced_ms);

    std::vector<double> ops, busy, idle, peak;
    std::map<std::string, std::pair<double, double>> kernels;  // type -> (s, flops)
    for (const auto& r : reports) {
      ops.push_back(static_cast<double>(r.timeline.size()));
      busy.push_back(r.wall_seconds > 0 ? r.total_seconds / r.wall_seconds : 0);
      idle.push_back(r.wall_seconds > 0 ? 1.0 - busy_union_seconds(r) / r.wall_seconds : 0);
      peak.push_back(static_cast<double>(r.peak_allocated_bytes) / 1e6);
      for (const auto& [type, p] : r.per_type) {
        auto& k = kernels[gf::ir::op_type_name(type)];
        k.first += p.seconds;
        k.second += p.flops;
      }
    }
    out.layer["executor.ops_per_step"] = median(ops);
    out.layer["executor.busy_over_wall"] = median(busy);
    out.layer["executor.idle_frac"] = median(idle);
    out.layer["executor.heap_allocs_per_step"] = median(allocs);
    out.layer["executor.peak_allocated_mb"] = *std::max_element(peak.begin(), peak.end());
    const double n = static_cast<double>(reports.size());
    double op_seconds = 0;
    for (const auto& [type, k] : kernels) op_seconds += k.first;
    std::printf("# kernels (mean per step over %zu steps):\n", reports.size());
    for (const auto& [type, k] : kernels) {
      std::printf("#   %-18s %10.3f ms  %5.1f%% of op time  %8.3f GF/s\n", type.c_str(),
                  k.first / n * 1e3, op_seconds > 0 ? 100 * k.first / op_seconds : 0,
                  k.first > 0 ? k.second / k.first / 1e9 : 0);
    }
    for (const std::string& type : kernel_op_types()) {
      auto it = kernels.find(type);
      if (it == kernels.end()) continue;
      out.layer["kernels." + type + "_ms"] = it->second.first / n * 1e3;
      out.layer["kernels." + type + "_gflops"] =
          it->second.first > 0 ? it->second.second / it->second.first / 1e9 : 0;
    }
  }
  return out;
}

}  // namespace gfbench
