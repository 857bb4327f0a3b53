// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a library layer, recorded by the benchmark around
// the public entry point it calls (the library itself is not instrumented).
// Spans nest per thread: a span opened while another is open on the same
// thread becomes its child, so a request span's children are the layer
// calls that served it. Spans live in per-thread buffers and are merged
// only after the run, so recording costs two clock reads and a vector push.
// When tracing is off, opening a span is one relaxed load.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace gfbench {

struct Span {
  std::string name;   ///< "<layer>.<call>", e.g. "verify.memplan"
  std::string tag;    ///< grouping label (model family); inherited by children
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  int thread = 0;            ///< recorder-assigned thread index
  double start = 0;          ///< seconds since the recorder's epoch
  double end = 0;
  double self = 0;           ///< duration minus direct children (set by collect)

  double duration() const { return end - start; }
};

/// Per-name totals over a collected span list.
struct SpanTotals {
  std::size_t calls = 0;
  double total = 0;             ///< sum of durations, seconds
  double self = 0;              ///< sum of self times, seconds
  std::vector<double> durations;  ///< per call, seconds
};

namespace tracing {

/// Turns recording on or off for the whole run.
void set_enabled(bool on);
/// Suspends recording on the calling thread only, so threads can interleave
/// traced and untraced operations.
void set_paused(bool paused);

/// Every span recorded so far by every thread, ordered by start time, with
/// self times filled in. Call only after recording threads have finished.
std::vector<Span> collect();

std::map<std::string, SpanTotals> totals(const std::vector<Span>& spans,
                                         const std::string& tag = "");

/// Writes the spans as a Chrome trace through rt::ProfileReport's writer,
/// so the file carries the library's gfTraceVersion stamp.
void write_chrome_trace(const std::vector<Span>& spans, std::ostream& os);

}  // namespace tracing

/// RAII span. `tag` labels the span (and, if empty, inherits the parent's).
class Scope {
 public:
  explicit Scope(const char* name, const std::string& tag = "");
  explicit Scope(const std::string& name, const std::string& tag = "")
      : Scope(name.c_str(), tag) {}
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_ = false;
  std::size_t index_ = 0;  ///< slot in the thread's buffer
};

}  // namespace gfbench
