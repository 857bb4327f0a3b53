// Shared pieces of the benchmark program: run options, the per-run outcome
// every workload fills, timing and statistics helpers, and the fixed list
// of per-layer metric names.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gfbench {

/// Cap on pool and client threads. On a few shared cores, every thread
/// beyond this makes a run's time depend on how other tenants' load lands
/// on the cores, not on the program; charlm's dispatch-bound step is no
/// faster with four workers than with two.
constexpr unsigned kMaxThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test: corrupt one observed answer so the checks must count it.
  bool plant_fault = false;
  unsigned nproc = 1;     ///< usable CPUs
  unsigned threads = 1;   ///< pool and client threads: min(nproc, kMaxThreads)
};

/// Reports failed checks on stderr (the first few). Thread-safe. Callers
/// count failed operations themselves, one per operation.
class Checker {
 public:
  void fail(const std::string& why);

 private:
  std::mutex mutex_;
  std::uint64_t failures_ = 0;  ///< guarded by mutex_
};

struct Outcome {
  std::uint64_t attempted = 0;          ///< timed operations
  std::uint64_t failed = 0;             ///< timed operations with a failed check
  std::vector<double> latencies_ms;     ///< one per timed operation
  double wall_s = 0;                    ///< timed wall time
  double setup_s = 0;                   ///< median set-up time
  double peak_rss_mb = 0;               ///< max RSS at the end of the timed part
  std::size_t setup_reps = 0;
  std::uint64_t input_digest = 0;       ///< FNV-1a over the generated inputs
  std::map<std::string, double> layer;  ///< per-layer metrics (traced runs)
};

double now_s();  ///< steady clock, seconds
/// Seconds since process start (first static initialization).
double since_process_start_s();

double median(std::vector<double> v);
/// The highest percentile with at least ten samples above it, but never
/// below the median (with fewer than 20 samples the tail is the median):
/// returns the value, its percentile and the number of samples above it.
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t above = 0;
};
Tail tail_of(std::vector<double> v);

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes);
inline std::uint64_t fnv1a(std::string_view bytes) {
  return fnv1a(1469598103934665603ull, bytes);
}

double peak_rss_mb();
unsigned usable_cpus();

/// Every per-layer metric, in output order, with its unit.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Verify passes in registration order (the verify.<pass>_s metrics).
const std::vector<std::string>& verify_pass_names();

/// Op types whose kernel time and rate are reported (kernels.<T>_ms/_gflops).
const std::vector<std::string>& kernel_op_types();

/// Set-up repetitions: repeat until three are done or 8 s of set-up have
/// been spent, whichever comes first (at least one).
bool another_setup(std::size_t done, double spent_s);

Outcome run_analyze_cold(const Options& options);
Outcome run_serve_warm(const Options& options);
Outcome run_step(const Options& options, const std::string& family);

}  // namespace gfbench
