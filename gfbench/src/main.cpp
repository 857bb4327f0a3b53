// gfbench: the repository benchmark program.
//
//   gfbench --workload <analyze-cold|serve-warm|step-charlm|step-wordlm>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--plant-fault]
//
// Runs one seeded workload against the library's public entry points,
// checks every output, and prints one JSON object as the last line of
// stdout: the end-to-end metrics with --trace 0, the per-layer metrics
// (from spans recorded around each layer call) with --trace 1. Exits 1 if
// any check failed. --plant-fault corrupts one observed answer, which the
// checks must count (the benchmark's self-test).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "spans.h"
#include "src/hw/cpu_features.h"
#include "src/runtime/codegen/dispatch.h"
#include "src/runtime/executor.h"
#include "src/runtime/gemm.h"

namespace gfbench {
namespace {

// Environment knobs that change the executor's or kernels' defaults. Timed
// runs clear them so "default" always means the code's default.
constexpr const char* kKnobs[] = {"GF_SIMD", "GF_FUSE", "GF_MEMORY_PLAN",
                                  "GF_REFERENCE_KERNELS"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "gfbench: %s\nusage: gfbench --workload "
               "<analyze-cold|serve-warm|step-charlm|step-wordlm> --seed N --seconds S "
               "--trace 0|1 [--plant-fault]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--plant-fault") {
        o.plant_fault = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

void print_header(const Options& o) {
  const gf::rt::ExecutorOptions defaults;
  std::printf("# gfbench workload=%s seed=%llu seconds=%g trace=%d%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
              o.plant_fault ? " plant-fault" : "");
  std::printf("# host: nproc=%u threads=%u best_isa=%s active_isa=%s\n", o.nproc, o.threads,
              gf::hw::simd_isa_name(gf::hw::best_simd_isa()),
              gf::hw::simd_isa_name(gf::rt::codegen::active_isa()));
  std::printf("# executor defaults: schedule=%s fuse=%d memory_plan=%d simd=%d "
              "kernels=%s verify=%d\n",
              defaults.schedule == gf::rt::Schedule::kWavefront ? "wavefront" : "sequential",
              defaults.fuse, defaults.memory_plan, defaults.simd,
              gf::rt::kernel_backend() == gf::rt::KernelBackend::kBlocked ? "blocked"
                                                                           : "reference",
              defaults.verify);
}

void print_result(const Options& o, const Outcome& out) {
  const double error_rate =
      out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted) : 1;
  const Tail tail = tail_of(out.latencies_ms);
  const double p50 = median(out.latencies_ms);
  const double throughput = static_cast<double>(out.latencies_ms.size()) / out.wall_s;
  std::printf("# input digest: %016llx\n", static_cast<unsigned long long>(out.input_digest));
  std::printf("# setup_s %.4f (median of %zu set-ups)\n", out.setup_s, out.setup_reps);
  std::printf("# latency p50 %.4f ms, tail p%.1f %.4f ms (%zu samples, %zu above)\n", p50,
              tail.percentile, tail.value, out.latencies_ms.size(), tail.above);
  std::printf("# throughput %.4f ops/s over %.3f s; error_rate %.6f (%llu of %llu failed)\n",
              throughput, out.wall_s, error_rate,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));

  std::string metrics;
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  };
  if (o.trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      auto it = out.layer.find(name);
      add(name, it == out.layer.end() ? 0.0 : it->second, unit);
    }
  } else {
    add("setup_s", out.setup_s, "s");
    add("latency_p50_ms", p50, "ms");
    add("latency_tail_ms", tail.value, "ms");
    add("throughput_per_s", throughput, "1/s");
    add("peak_rss_mb", out.peak_rss_mb, "MB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
}

}  // namespace
}  // namespace gfbench

int main(int argc, char** argv) {
  using namespace gfbench;
  for (const char* knob : kKnobs) unsetenv(knob);
  Options options = parse(argc, argv);
  options.nproc = usable_cpus();
  options.threads = std::min(options.nproc, kMaxThreads);
  print_header(options);
  std::fflush(stdout);
  tracing::set_enabled(options.trace);

  Outcome out;
  try {
    if (options.workload == "analyze-cold") {
      out = run_analyze_cold(options);
    } else if (options.workload == "serve-warm") {
      out = run_serve_warm(options);
    } else if (options.workload == "step-charlm") {
      out = run_step(options, "charlm");
    } else if (options.workload == "step-wordlm") {
      out = run_step(options, "wordlm");
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gfbench: %s\n", e.what());
    return 2;
  }
  tracing::set_enabled(false);

  if (options.trace) {
    // Relative to the working directory, which is the repository root.
    const std::filesystem::path path = std::filesystem::path(".bench_out") /
        (options.workload + "-seed" + std::to_string(options.seed) + ".trace.json");
    const auto spans = tracing::collect();
    std::filesystem::create_directories(path.parent_path());
    std::ofstream os(path);
    tracing::write_chrome_trace(spans, os);
    std::printf("# wrote %zu spans to %s\n", spans.size(), path.c_str());
  }
  print_result(options, out);
  return out.failed == 0 ? 0 : 1;
}
