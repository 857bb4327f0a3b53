// analyze-cold: what a CLI user waits for. Each round gets a fresh
// serve::AnalysisService and one client sends a seeded stream in which every
// request misses the cache:
//   - characterize (with footprint), sweep, memplan and lint over wordlm, nmt,
//     image and transformer — each family's first request is its
//     characterize, which pays the model build; every family also gets
//     characterize and memplan at more distinct bindings;
//   - lint of the seeded-defect corpus (tests/data/lint/*.txt) as graph text,
//     with every pass and, per pass p, with p alone and with every pass but
//     p (distinct pass lists are distinct cache keys, so each misses);
//   - whatif-scale on a trace recorded in set-up from one transformer step.
// A run sends a fixed number of rounds, one per kRoundSeconds of the run
// time, so every run measures the same mix: with a count set by the clock,
// a slower host would send fewer rounds and move the order statistics from
// one cluster of requests to another.
//
// charlm is left out of the timed rounds: its three requests take ~40 s, so
// a run would hold one round, and its median and tail would rest on a few
// seconds of light requests. Its build and verify passes are timed by
// step-charlm's set-up, and its layers by the traced round below.
//
// The traced run adds one decomposed round over every family, charlm too:
// the same requests served by calling the library layers the service would
// call, each inside a span, so self time per layer (and per family) needs no
// profiler.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <tuple>

#include "common.h"
#include "spans.h"
#include "src/analysis/stages.h"
#include "src/ir/hash.h"
#include "src/ir/serialize.h"
#include "src/runtime/executor.h"
#include "src/runtime/memplan.h"
#include "src/serve/service.h"
#include "src/verify/pass.h"
#include "src/whatif/resim.h"
#include "src/whatif/trace.h"
#include "src/whatif/transform.h"

namespace gfbench {
namespace {

using gf::serve::Json;
namespace stages = gf::analysis::stages;

/// Families of the timed rounds, and of the traced decomposed round.
/// Nominal time of one round (4-core Xeon at 2.0 GHz): sets the round count.
constexpr double kRoundSeconds = 7;

const std::vector<std::string> kTimedFamilies = {"wordlm", "nmt", "image", "transformer"};
const std::vector<std::string> kTracedFamilies = {"wordlm", "nmt", "image", "transformer",
                                                  "charlm"};
constexpr const char* kCorpusDir = "tests/data/lint";

struct CorpusGraph {
  std::string name;           ///< file stem
  std::string expected_pass;  ///< the file-name prefix before "__"
  std::string text;
};

struct Request {
  std::string kind;
  std::string tag;  ///< family, "corpus" or "whatif"
  std::string line;
  double hidden = 0, batch = 0;
  std::vector<double> sweep_hidden;
  const CorpusGraph* corpus = nullptr;
  std::vector<std::string> passes;  ///< lint pass list; empty means every pass
  std::string op_type;
  double speedup = 0;
};

/// What a response says, read either from the service's JSON or from the
/// decomposed layer calls, so one checker serves both paths.
struct Answer {
  bool ok = false;
  std::string error;
  double params = 0, flops = 0, bytes = 0;
  double fp_total = 0, fp_persistent = 0;
  std::size_t points = 0;
  double slab = 0, gross = 0, liveness = 0;
  std::vector<std::pair<std::string, std::string>> diagnostics;  ///< (severity, pass)
  double baseline = 0, predicted = 0;
  double regions = 0, reuse_edges = 0;  ///< memplan counters (decomposed path)
};

std::vector<CorpusGraph> load_corpus() {
  std::vector<CorpusGraph> out;
  if (!std::filesystem::is_directory(kCorpusDir))
    throw std::runtime_error(std::string("lint corpus not found: ") + kCorpusDir);
  for (const auto& entry : std::filesystem::directory_iterator(kCorpusDir)) {
    if (entry.path().extension() != ".txt") continue;
    CorpusGraph g;
    g.name = entry.path().stem().string();
    const auto sep = g.name.find("__");
    if (sep == std::string::npos) continue;
    g.expected_pass = g.name.substr(0, sep);
    std::ifstream in(entry.path());
    std::ostringstream ss;
    ss << in.rdbuf();
    g.text = ss.str();
    out.push_back(std::move(g));
  }
  std::sort(out.begin(), out.end(),
            [](const CorpusGraph& a, const CorpusGraph& b) { return a.name < b.name; });
  if (out.empty()) throw std::runtime_error("lint corpus is empty");
  return out;
}

/// One transformer training step, profiled: the whatif-scale input.
std::string record_trace(gf::conc::ThreadPool& pool) {
  const auto spec = stages::build_stage("transformer");
  gf::rt::ExecutorOptions options;
  options.pool = &pool;
  gf::rt::Executor ex(*spec.graph, spec.bind(16, 2), options);
  const gf::rt::ProfileReport report = ex.run_step();
  std::ostringstream os;
  report.write_chrome_trace(os);
  return os.str();
}

/// Extra characterize (with footprint) and memplan requests per round, each
/// at a distinct binding, beyond every family's first characterize, sweep,
/// lint and memplan: the footprints (~20 ms each for nmt) and plans that
/// carry most of a round's time besides the builds and lints. The tail
/// falls among the four requests per round that take over half a second
/// (the first characterize and the lint of nmt and of wordlm), which five
/// rounds make twenty. The median falls among the 184 corpus lints (see
/// make_round): a footprint's time swings up to twofold with other
/// tenants' load on a shared host, a small-graph lint's by under a tenth.
struct Extras {
  int characterize = 0;
  int memplan = 0;
};
Extras extras_for(const std::string& family) {
  if (family == "nmt") return {48, 9};
  if (family == "image" || family == "transformer") return {4, 4};
  if (family == "wordlm") return {4, 0};
  return {};
}

std::vector<Request> make_round(std::mt19937_64& rng, const std::vector<std::string>& families,
                                const std::vector<CorpusGraph>& corpus,
                                const std::string& trace_text) {
  std::uniform_int_distribution<int> hidden_dist(32, 1024);
  const std::vector<double> batches = {1, 2, 4, 8, 16, 32, 64};
  // Every binding is used once per (family, stage) so no request hits.
  std::set<std::tuple<std::string, std::string, double, double>> used;
  auto binding = [&](const std::string& family, const std::string& stage) {
    while (true) {
      const double h = hidden_dist(rng), b = batches[rng() % batches.size()];
      if (used.emplace(family, stage, h, b).second) return std::make_pair(h, b);
    }
  };
  auto characterize = [&](const std::string& f) {
    Request r{"characterize", f};
    std::tie(r.hidden, r.batch) = binding(f, "project");
    Json j = Json::object();
    j.set("kind", Json("characterize")).set("model", Json(f));
    j.set("hidden", Json(r.hidden)).set("batch", Json(r.batch)).set("footprint", Json(true));
    r.line = j.dump();
    return r;
  };
  auto memplan = [&](const std::string& f) {
    Request r{"memplan", f};
    std::tie(r.hidden, r.batch) = binding(f, "memplan");
    Json j = Json::object();
    j.set("kind", Json("memplan")).set("model", Json(f));
    j.set("hidden", Json(r.hidden)).set("batch", Json(r.batch));
    r.line = j.dump();
    return r;
  };

  std::vector<Request> first, rest;
  for (const std::string& f : families) {
    first.push_back(characterize(f));

    Request s{"sweep", f};
    s.batch = batches[rng() % batches.size()];
    Json hs = Json::array();
    while (s.sweep_hidden.size() < 3) {
      const double h = hidden_dist(rng);
      if (!used.emplace(f, "project", h, s.batch).second) continue;
      s.sweep_hidden.push_back(h);
      hs.push_back(Json(h));
    }
    Json sj = Json::object();
    sj.set("kind", Json("sweep")).set("model", Json(f)).set("hidden", hs);
    sj.set("batch", Json(s.batch));
    s.line = sj.dump();
    rest.push_back(s);

    Request l{"lint", f};
    Json lj = Json::object();
    lj.set("kind", Json("lint")).set("model", Json(f));
    l.line = lj.dump();
    rest.push_back(l);

    rest.push_back(memplan(f));
    const Extras extra = extras_for(f);
    for (int i = 0; i < extra.characterize; ++i) rest.push_back(characterize(f));
    for (int i = 0; i < extra.memplan; ++i) rest.push_back(memplan(f));
  }
  // Per corpus graph: every pass, then each pass alone and every pass but
  // one. The subsets put the median among small-graph lints.
  std::vector<std::vector<std::string>> pass_lists = {{}};
  for (const std::string& p : verify_pass_names()) {
    pass_lists.push_back({p});
    std::vector<std::string> others;
    for (const std::string& q : verify_pass_names())
      if (q != p) others.push_back(q);
    pass_lists.push_back(others);
  }
  for (const CorpusGraph& g : corpus) {
    for (const auto& passes : pass_lists) {
      Request l{"lint", "corpus"};
      l.corpus = &g;
      l.passes = passes;
      Json lj = Json::object();
      lj.set("kind", Json("lint")).set("graph", Json(g.text));
      if (!passes.empty()) {
        Json pj = Json::array();
        for (const std::string& p : passes) pj.push_back(Json(p));
        lj.set("passes", pj);
      }
      l.line = lj.dump();
      rest.push_back(l);
    }
  }
  std::uniform_real_distribution<double> speedup_dist(1.5, 4.0);
  for (const auto& [op_type, speedup] : std::vector<std::pair<std::string, double>>{
           {"MatMul", 1.0}, {"MatMul", speedup_dist(rng)}, {"*", speedup_dist(rng)}}) {
    Request w{"whatif-scale", "whatif"};
    w.op_type = op_type;
    w.speedup = speedup;
    Json wj = Json::object();
    wj.set("kind", Json("whatif-scale")).set("trace", Json(trace_text));
    wj.set("op_type", Json(op_type)).set("speedup", Json(speedup));
    w.line = wj.dump();
    rest.push_back(w);
  }
  std::shuffle(rest.begin(), rest.end(), rng);
  first.insert(first.end(), rest.begin(), rest.end());
  return first;
}

/// Reads an Answer out of a service response line.
Answer from_response(const std::string& response) {
  Answer a;
  const Json r = Json::parse(response);
  a.ok = r.bool_or("ok", false);
  a.error = r.string_or("error", "");
  a.params = r.number_or("params", 0);
  a.flops = r.number_or("flops", 0);
  a.bytes = r.number_or("bytes", 0);
  if (const Json* fp = r.find("footprint")) {
    a.fp_total = fp->number_or("total_bytes", 0);
    a.fp_persistent = fp->number_or("persistent_bytes", 0);
  }
  if (const Json* rows = r.find("rows"); rows && rows->is_array()) {
    a.points = rows->items().size();
    for (const Json& row : rows->items())
      if (!(row.number_or("params", 0) > 0)) a.points = 0;
  }
  a.slab = r.number_or("slab_bytes", 0);
  a.gross = r.number_or("gross_bytes", 0);
  a.liveness = r.number_or("liveness_peak_bytes", 0);
  if (const Json* report = r.find("report"))
    if (const Json* diags = report->find("diagnostics"); diags && diags->is_array())
      for (const Json& d : diags->items())
        a.diagnostics.emplace_back(d.string_or("severity", ""), d.string_or("pass", ""));
  a.baseline = r.number_or("baseline_seconds", 0);
  a.predicted = r.number_or("predicted_seconds", 0);
  return a;
}

/// The checks. None of them takes its expected answer from the code under
/// test: lint verdicts come from the corpus file names, memplan from the
/// ordering every valid plan obeys, whatif from the identity and Amdahl
/// bounds of scaling a kernel class.
std::string check(const Request& req, const Answer& a) {
  if (!a.ok) return "ok:false (" + a.error + ")";
  auto positive = [](double v) { return std::isfinite(v) && v > 0; };
  if (req.kind == "characterize") {
    if (!positive(a.params) || !positive(a.flops) || !positive(a.bytes))
      return "non-positive params/flops/bytes";
    if (!(a.fp_total >= a.fp_persistent && a.fp_persistent > 0))
      return "footprint total below persistent";
  } else if (req.kind == "sweep") {
    if (a.points != req.sweep_hidden.size()) return "sweep returned a wrong row count";
  } else if (req.kind == "memplan") {
    if (!(a.liveness > 0 && a.liveness <= a.slab && a.slab <= a.gross))
      return "memplan violates liveness_peak <= slab <= gross";
  } else if (req.kind == "lint") {
    std::size_t errors = 0;
    for (const auto& [severity, pass] : a.diagnostics) {
      if (req.corpus == nullptr && (severity == "error" || severity == "warning"))
        return "built-in model does not lint clean (" + pass + ")";
      if (req.corpus != nullptr && severity == "error") {
        if (pass != req.corpus->expected_pass)
          return req.corpus->name + ": error from pass '" + pass + "'";
        ++errors;
      }
    }
    // The defect must be found exactly when its pass runs.
    const bool runs_expected =
        req.corpus != nullptr &&
        (req.passes.empty() || std::find(req.passes.begin(), req.passes.end(),
                                         req.corpus->expected_pass) != req.passes.end());
    if (runs_expected && errors == 0) return req.corpus->name + ": no error found";
    if (req.corpus != nullptr && !runs_expected && errors != 0)
      return req.corpus->name + ": error without its pass";
  } else if (req.kind == "whatif-scale") {
    if (!(a.baseline > 0 && a.predicted > 0)) return "whatif returned no schedule";
    const double projected = a.baseline / a.predicted;
    if (req.speedup == 1.0 && projected != 1.0) return "speedup 1.0 did not project 1.0";
    if (projected < 1.0 || projected > req.speedup * (1 + 1e-12))
      return "projected speedup outside [1, speedup]";
  }
  return "";
}

/// The service's stages, called directly (one memo per round, like one
/// fresh service), each call inside a span.
class Decomposed {
 public:
  explicit Decomposed(const std::string& trace_text) : trace_text_(trace_text) {}

  Answer serve(const Request& req) {
    Scope request("request." + req.kind, req.tag);
    Answer a;
    a.ok = true;
    if (req.kind == "characterize") {
      Model& m = model(req.tag);
      const auto p = project(m, req.hidden, req.batch);
      a.params = p.params;
      a.flops = p.flops;
      a.bytes = p.bytes;
      Scope s("analysis.footprint");
      const auto fp = stages::footprint_stage(*m.spec.graph, m.spec.bind(req.hidden, req.batch));
      a.fp_total = fp.total_bytes;
      a.fp_persistent = fp.persistent_bytes;
    } else if (req.kind == "sweep") {
      Model& m = model(req.tag);
      for (double h : req.sweep_hidden) a.points += project(m, h, req.batch).params > 0;
    } else if (req.kind == "memplan") {
      Model& m = model(req.tag);
      gf::ir::OpDag dag;
      {
        Scope s("memplan.op_dag");
        dag = gf::ir::build_op_dag(*m.spec.graph);
      }
      Scope s("memplan.plan");
      const auto plan =
          gf::rt::plan_memory(*m.spec.graph, dag, m.spec.bind(req.hidden, req.batch));
      a.slab = static_cast<double>(plan.slab_bytes);
      a.gross = static_cast<double>(plan.gross_bytes);
      a.liveness = static_cast<double>(plan.liveness_peak_bytes);
      a.regions = static_cast<double>(plan.tensors.size());
      a.reuse_edges = static_cast<double>(plan.reuse_edges.size());
    } else if (req.kind == "lint") {
      const gf::ir::Graph* graph = nullptr;
      if (req.corpus) {
        // Parsed once per round, as the service caches it by text.
        auto& parsed = parsed_[req.corpus];
        if (!parsed) {
          {
            Scope s("ir.deserialize");
            parsed = gf::ir::deserialize(req.corpus->text, /*validate=*/false);
          }
          Scope s("ir.canonical_hash");
          gf::ir::canonical_hash(*parsed);
        }
        graph = parsed.get();
      } else {
        graph = model(req.tag).spec.graph.get();
      }
      for (const std::string& pass : req.passes.empty() ? verify_pass_names() : req.passes) {
        Scope s("verify." + pass);
        gf::verify::VerifyOptions options;
        options.passes = {pass};
        for (const auto& d : gf::verify::verify_graph(*graph, options).diagnostics)
          a.diagnostics.emplace_back(gf::verify::severity_name(d.severity), d.pass);
      }
    } else if (req.kind == "whatif-scale") {
      if (!trace_) {
        trace_ = std::make_unique<gf::whatif::Trace>();
        {
          Scope s("whatif.load_trace");
          std::istringstream is(trace_text_);
          *trace_ = gf::whatif::load_trace(is);
        }
        Scope s("whatif.resimulate");
        overhead_ = gf::whatif::calibrate_overhead(*trace_);
      }
      Scope s("whatif.resimulate");
      gf::whatif::ResimOptions options;
      options.overhead_seconds_per_op = overhead_;
      a.baseline = gf::whatif::resimulate(*trace_, options).makespan_seconds;
      a.predicted = gf::whatif::resimulate(
                        gf::whatif::scale_kernel_class(*trace_, {req.op_type, req.speedup}),
                        options)
                        .makespan_seconds;
    }
    return a;
  }

 private:
  struct Model {
    gf::models::ModelSpec spec;
    std::unique_ptr<stages::CountResult> counts;
  };

  Model& model(const std::string& family) {
    auto& m = models_[family];
    if (!m) {
      m = std::make_unique<Model>();
      {
        Scope s("models.build");
        m->spec = stages::build_stage(family);
      }
      Scope s("ir.canonical_hash");
      gf::ir::canonical_hash(*m->spec.graph);
    }
    return *m;
  }

  stages::Projection project(Model& m, double hidden, double batch) {
    if (!m.counts) {
      Scope s("analysis.count");
      m.counts = std::make_unique<stages::CountResult>(stages::count_stage(*m.spec.graph));
    }
    Scope s("analysis.project");
    return stages::project_stage(*m.counts, m.spec.bind(hidden, batch));
  }

  const std::string& trace_text_;
  std::map<std::string, std::unique_ptr<Model>> models_;
  std::map<const CorpusGraph*, std::unique_ptr<gf::ir::Graph>> parsed_;
  std::unique_ptr<gf::whatif::Trace> trace_;
  double overhead_ = 0;
};

void print_self_times(const std::vector<Span>& spans, const std::string& tag) {
  const auto t = tracing::totals(spans, tag);
  std::vector<std::pair<double, std::string>> rows;
  double sum = 0;
  for (const auto& [name, tot] : t) {
    rows.emplace_back(tot.self, name);
    sum += tot.self;
  }
  std::sort(rows.rbegin(), rows.rend());
  std::printf("# self time by layer for %s (%.3f s traced):\n", tag.c_str(), sum);
  for (std::size_t i = 0; i < rows.size() && i < 8; ++i)
    std::printf("#   %-28s %9.3f s  %5.1f%%\n", rows[i].second.c_str(), rows[i].first,
                sum > 0 ? 100 * rows[i].first / sum : 0);
  std::printf("#   (models.build includes the all-pass verify run every model build makes)\n");
}

}  // namespace

Outcome run_analyze_cold(const Options& options) {
  Outcome out;
  Checker checker;
  const std::vector<CorpusGraph> corpus = load_corpus();
  gf::conc::ThreadPool pool(options.threads);

  // Set-up: record the whatif trace (a fresh service per round needs nothing
  // else). Repetitions for the median run after the timed rounds.
  std::string trace_text = record_trace(pool);
  std::vector<double> setup_times = {since_process_start_s()};

  std::mt19937_64 rng(options.seed);
  std::uint64_t digest = fnv1a("analyze-cold");
  std::map<std::string, std::vector<double>> handle_ms;  // by kind
  gf::serve::StageCacheStats last_stats;
  std::size_t rounds = 0;
  const auto round_count =
      static_cast<std::size_t>(std::max(1.0, std::round(options.seconds / kRoundSeconds)));
  auto count_failure = [&](const Request& req, const std::string& why) {
    if (why.empty()) return;
    ++out.failed;
    checker.fail(req.kind + " " + req.tag + ": " + why);
  };

  const double start = now_s();
  tracing::set_paused(true);  // untraced rounds record nothing
  while (rounds < round_count) {
    const std::vector<Request> round = make_round(rng, kTimedFamilies, corpus, trace_text);
    gf::serve::AnalysisService service(pool);
    for (const Request& req : round) {
      // The trace text is measured, not generated: leave it out of the digest.
      if (req.kind != "whatif-scale") digest = fnv1a(digest, req.line);
      const double t0 = now_s();
      std::string response = service.handle(req.line);
      const double ms = (now_s() - t0) * 1e3;
      out.latencies_ms.push_back(ms);
      handle_ms[req.kind].push_back(ms);
      ++out.attempted;
      if (options.plant_fault && out.attempted == 2) {
        const auto at = response.find("\"ok\":true");
        if (at != std::string::npos) response.replace(at, 9, "\"ok\":false");
      }
      std::string why;
      try {
        why = check(req, from_response(response));
      } catch (const std::exception& e) {
        why = std::string("unreadable response: ") + e.what();
      }
      count_failure(req, why);
    }
    last_stats = service.cache_stats();
    ++rounds;
  }
  out.wall_s = now_s() - start;
  out.peak_rss_mb = peak_rss_mb();
  tracing::set_paused(false);
  out.input_digest = digest;
  double spent = setup_times[0];
  while (another_setup(setup_times.size(), spent)) {
    const double t0 = now_s();
    record_trace(pool);
    setup_times.push_back(now_s() - t0);
    spent += setup_times.back();
  }
  out.setup_s = median(setup_times);
  out.setup_reps = setup_times.size();
  std::printf("# inputs: %zu rounds of %zu requests (%zu families, %zu corpus graphs)\n",
              rounds, out.latencies_ms.size() / rounds, kTimedFamilies.size(), corpus.size());

  if (options.trace) {
    // One decomposed round with spans, after the timed rounds.
    const std::vector<Request> round = make_round(rng, kTracedFamilies, corpus, trace_text);
    Decomposed decomposed(trace_text);
    std::vector<double> traced_ms;
    double regions = 0, reuse_edges = 0, slab_over_liveness = 0, diagnostics = 0;
    for (const Request& req : round) {
      const double t0 = now_s();
      Answer a;
      try {
        a = decomposed.serve(req);
      } catch (const std::exception& e) {
        a.ok = false;
        a.error = e.what();
      }
      traced_ms.push_back((now_s() - t0) * 1e3);
      ++out.attempted;
      count_failure(req, check(req, a));
      regions += a.regions;
      reuse_edges += a.reuse_edges;
      if (a.liveness > 0) slab_over_liveness = std::max(slab_over_liveness, a.slab / a.liveness);
      diagnostics += static_cast<double>(a.diagnostics.size());
    }
    const auto spans = tracing::collect();
    for (const std::string& tag : {std::string("charlm"), std::string("wordlm")})
      print_self_times(spans, tag);
    const auto t = tracing::totals(spans);
    auto self_s = [&](const std::string& name) {
      auto it = t.find(name);
      return it == t.end() ? 0.0 : it->second.self;
    };
    for (const char* name :
         {"models.build", "memplan.op_dag", "memplan.plan", "analysis.count",
          "analysis.footprint", "ir.canonical_hash", "ir.deserialize", "whatif.load_trace",
          "whatif.resimulate"})
      out.layer[std::string(name) + "_s"] = self_s(name);
    for (const std::string& pass : verify_pass_names())
      out.layer["verify." + pass + "_s"] = self_s("verify." + pass);
    if (auto it = t.find("analysis.project"); it != t.end())
      out.layer["analysis.project_us"] = median(it->second.durations) * 1e6;
    double request_total = 0, request_self = 0;
    for (const auto& [name, tot] : t)
      if (name.rfind("request.", 0) == 0) {
        request_total += tot.total;
        request_self += tot.self;
      }
    out.layer["serve.trace_coverage"] =
        request_total > 0 ? 1.0 - request_self / request_total : 0;
    out.layer["verify.diagnostics"] = diagnostics;
    out.layer["memplan.regions"] = regions;
    out.layer["memplan.reuse_edges"] = reuse_edges;
    out.layer["memplan.slab_over_liveness"] = slab_over_liveness;
    for (const auto& [kind, ms] : handle_ms)
      out.layer["serve.handle_us." + kind] = median(ms) * 1e3;
    out.layer["serve.cache.hit_rate"] = last_stats.hit_rate();
    out.layer["serve.cache.executions"] = static_cast<double>(last_stats.executions);
    out.layer["serve.cache.entries"] = static_cast<double>(last_stats.entries);
    out.layer["trace.overhead_p50_ms"] = median(traced_ms) - median(out.latencies_ms);
  }
  return out;
}

}  // namespace gfbench
