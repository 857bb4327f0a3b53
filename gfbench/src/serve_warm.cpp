// serve-warm: a warmed serve::AnalysisService under `threads` closed-loop
// clients replaying a seeded mix of
//   - repeated requests by family name (~80-byte lines, pure cache hits),
//   - repeated requests submitting a serialized graph (~370 KB lines, where
//     JSON parsing and text hashing dominate),
//   - a fixed share of fresh bindings (new hidden or parameter targets), so
//     project / solve / footprint cache inserts run beside the lookups.
// Correctness: every repeated line's response is byte-identical to its first
// (set-up) response, fresh responses are well-formed and solve targets are
// met, and the cache executes exactly the fresh lines' stages (repeated
// lines cause zero executions).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>

#include "common.h"
#include "spans.h"
#include "src/analysis/stages.h"
#include "src/ir/serialize.h"
#include "src/serve/service.h"

namespace gfbench {
namespace {

using gf::serve::Json;

const std::vector<std::string> kFamilies = {"wordlm", "nmt", "image", "transformer"};
const std::vector<std::string> kGraphFamilies = {"nmt", "wordlm"};

/// Per-client slot pattern: 14 by-name hits, 4 graph-text hits, 2 fresh.
constexpr int kSlotsPerBlock = 20;
constexpr int kByNameSlots = 14;
constexpr int kGraphSlots = 4;

/// Cache stages a fresh line executes: project + footprint (by hidden) or
/// solve + project (by parameter target).
constexpr std::uint64_t kExecutionsPerFreshLine = 2;

struct Line {
  std::string text;
  std::string kind;
  std::string expected;  ///< first response (repeated lines)
};

std::string characterize_line(const std::string& family, double hidden, double batch,
                              bool footprint) {
  Json req = Json::object();
  req.set("kind", Json("characterize"));
  req.set("model", Json(family));
  req.set("hidden", Json(hidden));
  req.set("batch", Json(batch));
  if (footprint) req.set("footprint", Json(true));
  return req.dump();
}

/// A fresh line: unique per (seed, counter) so it always misses the cache.
struct Fresh {
  std::string text;
  std::string family;
  bool by_params = false;
  double target = 0;
  double hidden = 0;
  double batch = 0;
};

Fresh fresh_line(std::uint64_t counter, double batch) {
  Fresh f;
  f.family = kFamilies[counter % kFamilies.size()];
  f.by_params = (counter / kFamilies.size()) % 2 == 1;
  f.batch = batch;
  Json req = Json::object();
  req.set("kind", Json("characterize"));
  req.set("model", Json(f.family));
  req.set("batch", Json(batch));
  if (f.by_params) {
    f.target = 2e7 + 1e4 * static_cast<double>(counter);
    req.set("params", Json(f.target));
  } else {
    f.hidden = 4096 + static_cast<double>(counter);
    req.set("hidden", Json(f.hidden));
    req.set("footprint", Json(true));
  }
  f.text = req.dump();
  return f;
}

bool positive_finite(const Json& r, const char* key) {
  const Json* v = r.find(key);
  return v != nullptr && v->is_number() && std::isfinite(v->as_number()) &&
         v->as_number() > 0;
}

/// Checks a fresh line's response; returns false (and records why) on failure.
bool check_fresh(const Fresh& f, const std::string& response, Checker& checker) {
  std::string why;
  try {
    const Json r = Json::parse(response);
    const Json* fp = r.find("footprint");
    if (!r.bool_or("ok", false) || !positive_finite(r, "params") ||
        !positive_finite(r, "flops") || !positive_finite(r, "bytes")) {
      why = "fresh line failed: " + response.substr(0, 200);
    } else if (f.by_params) {
      const double params = r.number_or("params", 0);
      if (!(params >= f.target && params <= f.target * (1 + 1e-6)))
        why = "solve missed its target: " + f.text;
    } else if (fp == nullptr ||
               !(fp->number_or("total_bytes", -1) >= fp->number_or("persistent_bytes", 0))) {
      why = "footprint total below persistent: " + f.text;
    }
  } catch (const std::exception& e) {
    why = std::string("unparseable fresh response: ") + e.what();
  }
  if (!why.empty()) checker.fail(why);
  return why.empty();
}

struct ClientResult {
  std::vector<double> latencies_ms;
  std::vector<double> traced_ms, untraced_ms;
  std::uint64_t fresh = 0;
  std::uint64_t failed = 0;
};

}  // namespace

Outcome run_serve_warm(const Options& options) {
  Outcome out;
  Checker checker;
  std::mt19937_64 rng(options.seed);

  // Inputs: repeated lines by name, repeated graph-text lines, and the
  // fresh-line parameters. Only their text reaches the service.
  std::vector<Line> by_name, by_graph;
  std::uniform_int_distribution<int> hidden_dist(32, 512);
  const std::vector<double> batches = {1, 2, 4, 8, 16, 32, 64};
  auto pick_batch = [&] { return batches[rng() % batches.size()]; };
  for (const std::string& family : kFamilies) {
    by_name.push_back({characterize_line(family, hidden_dist(rng), pick_batch(), false),
                       "characterize", ""});
    by_name.push_back({characterize_line(family, hidden_dist(rng), pick_batch(), true),
                       "characterize", ""});
    Json sweep = Json::object();
    sweep.set("kind", Json("sweep"));
    sweep.set("model", Json(family));
    Json hs = Json::array();
    for (int i = 0; i < 3; ++i) hs.push_back(Json(static_cast<double>(hidden_dist(rng))));
    sweep.set("hidden", hs);
    sweep.set("batch", Json(pick_batch()));
    by_name.push_back({sweep.dump(), "sweep", ""});
    Json memplan = Json::object();
    memplan.set("kind", Json("memplan"));
    memplan.set("model", Json(family));
    memplan.set("hidden", Json(static_cast<double>(hidden_dist(rng))));
    memplan.set("batch", Json(pick_batch()));
    by_name.push_back({memplan.dump(), "memplan", ""});
  }
  for (const std::string& family : kGraphFamilies) {
    const std::string text = gf::ir::serialize(*gf::analysis::stages::build_stage(family).graph);
    for (int i = 0; i < 2; ++i) {
      Json req = Json::object();
      req.set("kind", Json("characterize"));
      req.set("graph", Json(text));
      req.set("hidden", Json(static_cast<double>(hidden_dist(rng))));
      req.set("batch", Json(pick_batch()));
      by_graph.push_back({req.dump(), "characterize", ""});
    }
  }
  const double fresh_batch = pick_batch();
  const std::uint64_t client_seed = rng();

  std::uint64_t digest = fnv1a("serve-warm");
  for (const auto& l : by_name) digest = fnv1a(digest, l.text);
  for (const auto& l : by_graph) digest = fnv1a(digest, l.text);
  digest = fnv1a(digest, fresh_line(0, fresh_batch).text);
  digest = fnv1a(digest, std::to_string(client_seed));
  out.input_digest = digest;
  std::size_t graph_bytes = 0;
  for (const auto& l : by_graph) graph_bytes += l.text.size();
  std::printf("# inputs: %zu by-name lines, %zu graph lines (mean %zu bytes), "
              "fresh batch %g, %u clients\n",
              by_name.size(), by_graph.size(), graph_bytes / by_graph.size(), fresh_batch,
              options.threads);

  // Set-up: a fresh service warmed with every repeated line; each first
  // response becomes that line's expected bytes. The first set-up is timed
  // from process start; the repetitions for the median run after the timed
  // loop, and their responses must match too.
  gf::conc::ThreadPool pool(options.threads);
  auto warm = [&](gf::serve::AnalysisService& svc, bool record) {
    const double t0 = now_s();
    std::uint64_t mismatches = 0;
    for (auto* lines : {&by_name, &by_graph})
      for (Line& l : *lines) {
        Scope s("serve.warm." + l.kind);
        std::string response = svc.handle(l.text);
        if (record) l.expected = std::move(response);
        else mismatches += response != l.expected;
      }
    return std::make_pair(now_s() - t0, mismatches);
  };
  auto service = std::make_unique<gf::serve::AnalysisService>(pool);
  warm(*service, true);
  std::vector<double> setup_times = {since_process_start_s()};
  for (auto* lines : {&by_name, &by_graph})
    for (const Line& l : *lines)
      if (!Json::parse(l.expected).bool_or("ok", false)) {
        checker.fail("warm-up failed: " + l.expected.substr(0, 200));
        ++out.failed;
      }

  // Counted totals for the traced run's replayed project / solve spans.
  std::map<std::string, gf::analysis::stages::CountResult> counts;
  if (options.trace)
    for (const std::string& family : kFamilies)
      counts.emplace(family, gf::analysis::stages::count_stage(
                                 *gf::analysis::stages::build_stage(family).graph));

  const auto before = service->cache_stats();
  std::atomic<std::uint64_t> fresh_counter{0};
  std::vector<ClientResult> results(options.threads);
  const double start = now_s();
  const double deadline = start + options.seconds;
  auto client = [&](unsigned c) {
    ClientResult& res = results[c];
    std::mt19937_64 crng(client_seed + 7919 * c);
    std::vector<int> slots(kSlotsPerBlock);
    for (int i = 0; i < kSlotsPerBlock; ++i)
      slots[i] = i < kByNameSlots ? 0 : (i < kByNameSlots + kGraphSlots ? 1 : 2);
    std::uint64_t op = 0;
    while (now_s() < deadline || op == 0) {
      if (op % kSlotsPerBlock == 0) std::shuffle(slots.begin(), slots.end(), crng);
      const int slot = slots[op % kSlotsPerBlock];
      const bool traced = options.trace && op % 2 == 1;
      tracing::set_paused(!traced);
      const Line* line = nullptr;
      Fresh fresh;
      if (slot == 0) line = &by_name[crng() % by_name.size()];
      if (slot == 1) line = &by_graph[crng() % by_graph.size()];
      if (slot == 2) fresh = fresh_line(fresh_counter.fetch_add(1), fresh_batch);
      const std::string& text = line ? line->text : fresh.text;
      const std::string kind = line ? line->kind : "characterize";

      const double t0 = now_s();
      if (traced) {
        Scope s("serve.parse");
        Json::parse(text);
      }
      if (traced && !line) {
        const auto& cr = counts.at(fresh.family);
        double hidden = fresh.hidden;
        if (fresh.by_params) {
          Scope s("analysis.solve");
          hidden = gf::analysis::stages::solve_for_params(cr, "hidden", fresh.target);
        }
        Scope s("analysis.project");
        gf::analysis::stages::project_stage(cr, {{"hidden", hidden}, {"batch", fresh.batch}});
      }
      std::string response;
      {
        Scope s("serve.handle." + kind);
        response = service->handle(text);
      }
      const double ms = (now_s() - t0) * 1e3;
      res.latencies_ms.push_back(ms);
      if (options.trace) (traced ? res.traced_ms : res.untraced_ms).push_back(ms);

      if (options.plant_fault && c == 0 && op == 3 && !response.empty()) response[0] ^= 1;
      if (line) {
        if (response != line->expected) {
          ++res.failed;
          checker.fail("response differs from first response for: " + text.substr(0, 120));
        }
      } else {
        ++res.fresh;
        res.failed += !check_fresh(fresh, response, checker);
      }
      ++op;
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < options.threads; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  out.wall_s = now_s() - start;
  out.peak_rss_mb = peak_rss_mb();

  std::uint64_t fresh_total = 0;
  std::vector<double> traced_ms, untraced_ms;
  for (const auto& r : results) {
    out.latencies_ms.insert(out.latencies_ms.end(), r.latencies_ms.begin(),
                            r.latencies_ms.end());
    traced_ms.insert(traced_ms.end(), r.traced_ms.begin(), r.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), r.untraced_ms.begin(), r.untraced_ms.end());
    fresh_total += r.fresh;
    out.failed += r.failed;
  }
  out.attempted = out.latencies_ms.size();

  const auto after = service->cache_stats();
  const std::uint64_t executions = after.executions - before.executions;
  if (executions != kExecutionsPerFreshLine * fresh_total) {
    checker.fail("cache executed " + std::to_string(executions) + " stages for " +
                 std::to_string(fresh_total) + " fresh lines (expected " +
                 std::to_string(kExecutionsPerFreshLine * fresh_total) + ")");
    ++out.failed;
  }
  double spent = setup_times[0];
  while (another_setup(setup_times.size(), spent)) {
    gf::serve::AnalysisService again(pool);
    const auto [seconds, mismatches] = warm(again, false);
    setup_times.push_back(seconds);
    spent += seconds;
    if (mismatches != 0) {
      checker.fail("a repeated set-up answered differently");
      ++out.failed;
    }
  }
  out.setup_s = median(setup_times);
  out.setup_reps = setup_times.size();

  std::printf("# fresh lines: %llu, cache executions during the run: %llu\n",
              static_cast<unsigned long long>(fresh_total),
              static_cast<unsigned long long>(executions));

  if (options.trace) {
    const auto t = tracing::totals(tracing::collect());
    auto median_us = [&](const std::string& name) {
      auto it = t.find(name);
      return it == t.end() ? 0.0 : median(it->second.durations) * 1e6;
    };
    auto sum = [&](const std::string& prefix) {
      double s = 0;
      for (const auto& [name, tot] : t)
        if (name.rfind(prefix, 0) == 0) s += tot.total;
      return s;
    };
    out.layer["serve.parse_us"] = median_us("serve.parse");
    out.layer["analysis.project_us"] = median_us("analysis.project");
    out.layer["analysis.solve_us"] = median_us("analysis.solve");
    for (const char* kind : {"characterize", "sweep", "memplan"})
      out.layer[std::string("serve.handle_us.") + kind] =
          median_us(std::string("serve.handle.") + kind);
    const double handle = sum("serve.handle.");
    out.layer["serve.trace_coverage"] =
        handle > 0 ? (sum("serve.parse") + sum("analysis.")) / handle : 0;
    out.layer["serve.cache.hit_rate"] = after.hit_rate();
    out.layer["serve.cache.executions"] = static_cast<double>(after.executions);
    out.layer["serve.cache.entries"] = static_cast<double>(after.entries);
    out.layer["trace.overhead_p50_ms"] = median(traced_ms) - median(untraced_ms);
  }
  return out;
}

}  // namespace gfbench
