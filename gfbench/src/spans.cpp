#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>

#include "src/runtime/profiler.h"

namespace gfbench {
namespace {

std::atomic<bool> g_enabled{false};
thread_local bool t_paused = false;
std::atomic<std::uint64_t> g_next_id{1};
const auto g_epoch = std::chrono::steady_clock::now();

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - g_epoch).count();
}

struct ThreadBuffer {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< indices into spans, innermost last
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;  ///< guarded by mutex
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadBuffer& local_buffer() {
  // The registry co-owns each buffer, so spans survive their thread.
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    b->thread = static_cast<int>(r.buffers.size());
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

namespace tracing {

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
void set_paused(bool paused) { t_paused = paused; }

std::vector<Span> collect() {
  std::vector<Span> all;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto& b : r.buffers) all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i].self = all[i].duration();
    index.emplace(all[i].id, i);
  }
  for (const Span& s : all)
    if (auto it = index.find(s.parent); it != index.end()) all[it->second].self -= s.duration();
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.id < b.id;
  });
  return all;
}

std::map<std::string, SpanTotals> totals(const std::vector<Span>& spans,
                                         const std::string& tag) {
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    if (!tag.empty() && s.tag != tag) continue;
    SpanTotals& t = out[s.name];
    ++t.calls;
    t.total += s.duration();
    t.self += s.self;
    t.durations.push_back(s.duration());
  }
  return out;
}

void write_chrome_trace(const std::vector<Span>& spans, std::ostream& os) {
  gf::rt::ProfileReport report;
  double origin = spans.empty() ? 0.0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    gf::rt::TimelineEvent e;
    e.name = s.tag.empty() ? s.name : s.name + " [" + s.tag + "]";
    e.category = layer_of(s.name);
    e.op_index = i;
    e.worker = s.thread - 1;  // the writer prints tid = worker + 1
    e.start_seconds = s.start - origin;
    e.end_seconds = s.end - origin;
    report.wall_seconds = std::max(report.wall_seconds, e.end_seconds);
    report.timeline.push_back(std::move(e));
  }
  report.write_chrome_trace(os);
}

}  // namespace tracing

Scope::Scope(const char* name, const std::string& tag) {
  if (!g_enabled.load(std::memory_order_relaxed) || t_paused) return;
  ThreadBuffer& b = local_buffer();
  Span s;
  s.name = name;
  s.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  s.thread = b.thread;
  if (!b.open.empty()) {
    const Span& parent = b.spans[b.open.back()];
    s.parent = parent.id;
    s.tag = tag.empty() ? parent.tag : tag;
  } else {
    s.tag = tag;
  }
  index_ = b.spans.size();
  b.open.push_back(index_);
  b.spans.push_back(std::move(s));
  active_ = true;
  b.spans[index_].start = now_seconds();
}

Scope::~Scope() {
  if (!active_) return;
  const double end = now_seconds();
  ThreadBuffer& b = local_buffer();
  b.spans[index_].end = end;
  b.open.pop_back();
}

}  // namespace gfbench
