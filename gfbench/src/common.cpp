#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace gfbench {
namespace {

const auto g_process_start = std::chrono::steady_clock::now();

}  // namespace

void Checker::fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++failures_;
  if (failures_ <= 5) std::fprintf(stderr, "gfbench: check failed: %s\n", why.c_str());
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double since_process_start_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - g_process_start)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t at_or_below = std::max(n > 10 ? n - 10 : 0, n / 2 + 1);
  t.value = v[at_or_below - 1];
  t.percentile = std::floor(1000.0 * static_cast<double>(at_or_below) / n) / 10.0;
  t.above = n - at_or_below;
  return t;
}

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

const std::vector<std::string>& verify_pass_names() {
  static const std::vector<std::string> kPasses = {
      "structure", "shapes",   "symbolic", "gradients",  "races", "memplan",
      "fusion",    "range",    "deadcode", "cost-audit", "equiv"};
  return kPasses;
}

const std::vector<std::string>& kernel_op_types() {
  static const std::vector<std::string> kTypes = {
      "MatMul", "Pointwise", "FusedPointwise", "SoftmaxXent",
      "SoftmaxXentGrad", "Reduce", "ApplyGradient"};
  return kTypes;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const auto kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {{"models.build_s", "s"}};
    for (const std::string& p : verify_pass_names()) m.emplace_back("verify." + p + "_s", "s");
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"verify.diagnostics", "count"},
        {"memplan.op_dag_s", "s"},
        {"memplan.plan_s", "s"},
        {"memplan.regions", "count"},
        {"memplan.reuse_edges", "count"},
        {"memplan.slab_over_liveness", "ratio"},
        {"analysis.count_s", "s"},
        {"analysis.footprint_s", "s"},
        {"analysis.project_us", "us"},
        {"analysis.solve_us", "us"},
        {"ir.canonical_hash_s", "s"},
        {"ir.deserialize_s", "s"},
        {"whatif.load_trace_s", "s"},
        {"whatif.resimulate_s", "s"},
        {"serve.parse_us", "us"},
        {"serve.handle_us.characterize", "us"},
        {"serve.handle_us.sweep", "us"},
        {"serve.handle_us.lint", "us"},
        {"serve.handle_us.memplan", "us"},
        {"serve.handle_us.whatif-scale", "us"},
        {"serve.cache.hit_rate", "ratio"},
        {"serve.cache.executions", "count"},
        {"serve.cache.entries", "count"},
        {"serve.trace_coverage", "ratio"},
        {"executor.construct_s", "s"},
        {"executor.first_step_s", "s"},
        {"executor.ops_per_step", "count"},
        {"executor.busy_over_wall", "ratio"},
        {"executor.idle_frac", "ratio"},
        {"executor.heap_allocs_per_step", "count"},
        {"executor.peak_allocated_mb", "MB"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const std::string& t : kernel_op_types()) {
      m.emplace_back("kernels." + t + "_ms", "ms");
      m.emplace_back("kernels." + t + "_gflops", "GF/s");
    }
    m.emplace_back("trace.overhead_p50_ms", "ms");
    return m;
  }();
  return kMetrics;
}

bool another_setup(std::size_t done, double spent_s) {
  return done == 0 || (done < 3 && spent_s < 8.0);
}

}  // namespace gfbench
