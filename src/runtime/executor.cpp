#include "src/runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <random>
#include <unordered_set>
#include <utility>
#include <stdexcept>

#include "src/ir/serialize.h"
#include "src/runtime/codegen/dispatch.h"
#include "src/runtime/kernels.h"
#include "src/verify/pass.h"

namespace gf::rt {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::size_t algorithmic_bytes_of(const ir::Tensor& t,
                                 const std::vector<std::int64_t>& shape) {
  std::size_t n = 1;
  for (std::int64_t d : shape) n *= static_cast<std::size_t>(d);
  return n * ir::dtype_bytes(t.dtype());
}

/// Upper bound (exclusive) for random integer content, inferred from how
/// the tensor is consumed (embedding rows, softmax classes).
std::int64_t infer_int_range(const ir::Tensor* t, const sym::Bindings& bind) {
  for (const ir::Op* op : t->consumers()) {
    if (op->type() == ir::OpType::kEmbeddingLookup && op->input(1) == t)
      return static_cast<std::int64_t>(op->input(0)->shape().dim(0).eval(bind));
    if (op->type() == ir::OpType::kSoftmaxXent && op->input(1) == t)
      return static_cast<std::int64_t>(op->input(0)->shape().dim(1).eval(bind));
    if (op->type() == ir::OpType::kSoftmaxXentGrad && op->input(1) == t)
      return static_cast<std::int64_t>(op->input(0)->shape().dim(1).eval(bind));
  }
  return 2;
}

}  // namespace

bool memory_plan_env_default() {
  const char* env = std::getenv("GF_MEMORY_PLAN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

bool fuse_env_default() {
  const char* env = std::getenv("GF_FUSE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

bool simd_env_default() { return codegen::simd_env_default(); }

Executor::Executor(const ir::Graph& graph, sym::Bindings bindings, ExecutorOptions options)
    : graph_(&graph), bindings_(std::move(bindings)), options_(options),
      pool_(options.pool ? options.pool : &conc::ThreadPool::global()) {
  // Opt-in pre-dispatch verification: a graph that fails here would make
  // the wavefront schedule racy or the kernels read out of bounds.
  if (options_.verify) verify::validate_or_throw(graph);
  if (options_.fuse) {
    // Rewrite a clone, never the caller's graph. clone_graph keeps the
    // original tensor ids, so the per-tensor RNG streams — and with them
    // every step result — are bitwise-identical to the unfused run.
    std::unordered_map<const ir::Tensor*, ir::Tensor*> clones;
    fused_graph_ = ir::clone_graph(graph, &clones);
    fusion_ = ir::fuse_graph(*fused_graph_);
    std::unordered_set<const ir::Tensor*> surviving;
    surviving.reserve(fused_graph_->tensors().size());
    for (const auto& t : fused_graph_->tensors()) surviving.insert(t.get());
    for (const auto& [orig, copy] : clones)
      if (surviving.contains(copy)) remap_.emplace(orig, copy);
    graph_ = fused_graph_.get();
    if (options_.verify) verify::validate_or_throw(*graph_);
  }
  dag_ = ir::build_op_dag(*graph_);

  int id_bound = graph_->next_tensor_id();
  for (const auto& t : graph_->tensors()) id_bound = std::max(id_bound, t->id() + 1);
  tensors_.resize(static_cast<std::size_t>(id_bound));
  consumer_counts_.assign(tensors_.size(), 0);
  for (const auto& t : graph_->tensors()) {
    if (t->id() < 0) throw std::logic_error("executor: negative tensor id");
    TensorState& s = tensors_[static_cast<std::size_t>(t->id())];
    if (s.tensor != nullptr)
      throw std::logic_error("executor: duplicate tensor id " + std::to_string(t->id()));
    s.tensor = t.get();
    s.shape = t->shape().eval(bindings_);
    s.bytes = algorithmic_bytes_of(*t, s.shape);
    s.persistent = t->is_persistent();
    consumer_counts_[static_cast<std::size_t>(t->id())] = t->consumers().size();
  }

  // Persistent state: weights (random), optimizer slots (zero).
  for (const auto& t : graph_->tensors()) {
    if (t->role() == ir::TensorRole::kWeight ||
        t->role() == ir::TensorRole::kOptimizerState) {
      TensorState& s = state_of(t.get());
      materialize(s);
      if (t->role() == ir::TensorRole::kWeight) random_fill(t.get(), s.value);
    }
  }

  ops_.resize(dag_.order.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const ir::Op& op = *dag_.order[i];
    OpPlan& p = ops_[i];
    p.op = &op;
    p.io_begin = static_cast<std::uint32_t>(io_ids_.size());
    p.num_in = static_cast<std::uint32_t>(op.inputs().size());
    p.num_out = static_cast<std::uint32_t>(op.outputs().size());
    for (const ir::Tensor* t : op.inputs())
      io_ids_.push_back(static_cast<std::uint32_t>(t->id()));
    for (const ir::Tensor* t : op.outputs())
      io_ids_.push_back(static_cast<std::uint32_t>(t->id()));
    p.in.reserve(op.inputs().size());
    for (const ir::Tensor* t : op.inputs()) p.in.push_back(&state_of(t).value);
    p.out.reserve(op.outputs().size());
    for (const ir::Tensor* t : op.outputs()) p.out.push_back(&state_of(t).value);
    switch (op.type()) {
      case ir::OpType::kPointwise:
        p.scalars = {static_cast<const ir::PointwiseOp&>(op).scale_alpha().eval(bindings_)};
        break;
      case ir::OpType::kSlice:
        p.scalars = {static_cast<const ir::SliceOp&>(op).offset().eval(bindings_)};
        break;
      case ir::OpType::kFusedPointwise:
        for (const ir::FusedInstr& instr :
             static_cast<const ir::FusedPointwiseOp&>(op).program())
          p.scalars.push_back(instr.alpha.eval(bindings_));
        break;
      default:
        break;
    }
  }
  index_predecessors();
}

void Executor::index_predecessors() {
  const std::vector<std::vector<std::size_t>>& successors =
      plan_active_ ? planned_successors_ : dag_.successors;
  const std::size_t n = ops_.size();
  pred_begin_.assign(n + 1, 0);
  for (const auto& succ : successors)
    for (std::size_t s : succ) ++pred_begin_[s + 1];
  for (std::size_t i = 0; i < n; ++i) pred_begin_[i + 1] += pred_begin_[i];
  pred_ids_.resize(pred_begin_[n]);
  std::vector<std::size_t> fill(pred_begin_.begin(), pred_begin_.end() - 1);
  // Ascending per op: predecessors are visited in index order.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t s : successors[i]) pred_ids_[fill[s]++] = i;
}

void deterministic_fill(const ir::Tensor* tensor, const sym::Bindings& bindings,
                        unsigned seed, DenseTensor& value) {
  // Fixed per-tensor stream: the seed depends only on the executor seed and
  // the tensor id, never on schedule or thread count.
  std::mt19937 rng(seed ^ (0x9e3779b9u * static_cast<unsigned>(tensor->id())));
  if (value.is_float()) {
    const bool is_weight = tensor->role() == ir::TensorRole::kWeight;
    std::normal_distribution<float> dist(0.0f, is_weight ? 0.2f : 1.0f);
    for (std::int64_t i = 0; i < value.numel(); ++i) value.f(i) = dist(rng);
  } else {
    const std::int64_t range = infer_int_range(tensor, bindings);
    std::uniform_int_distribution<std::int32_t> dist(
        0, static_cast<std::int32_t>(range - 1));
    for (std::int64_t i = 0; i < value.numel(); ++i) value.i32(i) = dist(rng);
  }
}

void Executor::random_fill(const ir::Tensor* tensor, DenseTensor& value) {
  deterministic_fill(tensor, bindings_, options_.seed, value);
}

const ir::Tensor* Executor::map_tensor(const ir::Tensor* tensor) const {
  if (!options_.fuse) return tensor;
  auto it = remap_.find(tensor);
  if (it == remap_.end())
    throw std::invalid_argument(
        "tensor '" + tensor->name() +
        "' was eliminated by fusion (ExecutorOptions::fuse / GF_FUSE); only "
        "surviving tensors are addressable");
  return it->second;
}

const Executor::TensorState& Executor::state_of(const ir::Tensor* tensor) const {
  const auto id = static_cast<std::size_t>(tensor->id());
  if (tensor->id() < 0 || id >= tensors_.size() || tensors_[id].tensor != tensor)
    throw std::invalid_argument("tensor '" + tensor->name() +
                                "' does not belong to the executing graph");
  return tensors_[id];
}

Executor::TensorState& Executor::state_of(const ir::Tensor* tensor) {
  return const_cast<TensorState&>(std::as_const(*this).state_of(tensor));
}

void Executor::retain(const ir::Tensor* tensor) {
  TensorState& s = state_of(map_tensor(tensor));
  if (!s.retained) {
    s.retained = true;
    plan_dirty_ = true;
  }
}

void Executor::set_input(const ir::Tensor* tensor, DenseTensor value) {
  tensor = map_tensor(tensor);
  if (tensor->role() != ir::TensorRole::kInput)
    throw std::invalid_argument("set_input: not an input tensor");
  TensorState& s = state_of(tensor);
  if (value.shape() != s.shape)
    throw std::invalid_argument("set_input: shape mismatch for " + tensor->name());
  // A newly pinned input leaves the slab (its storage is caller-owned), so
  // the plan must be recomputed before the next step. A random fill still
  // resident from the last step gives its arena charge back.
  if (!s.pinned) {
    if (s.live) release(s);
    s.planned = nullptr;  // caller-owned from now on, never a slab view
    plan_dirty_ = true;
  }
  s.value = std::move(value);
  s.pinned = true;
  s.live = true;
}

DenseTensor& Executor::weight_value(const ir::Tensor* tensor) {
  TensorState& s = state_of(map_tensor(tensor));
  if (!s.persistent || !s.live)
    throw std::invalid_argument("weight_value: not persistent: " + tensor->name());
  return s.value;
}

const DenseTensor& Executor::value(const ir::Tensor* tensor) const {
  const TensorState& s = state_of(map_tensor(tensor));
  if (!s.live)
    throw std::invalid_argument("value: '" + tensor->name() +
                                "' was not retained (call retain() before run_step)");
  return s.value;
}

void Executor::reserve(TensorState& s) {
  if (s.live) return;
  // Slab-resident tensors carry no individual charge: the slab was charged
  // to the arena once in build_plan(). Weight gradients (persistent) are
  // reserved on first production and then stay resident across steps.
  s.charged = s.planned == nullptr;
  if (s.charged) arena_.allocate(s.bytes);
  s.live = true;
}

void Executor::ensure_storage(TensorState& s) {
  if (s.has_storage()) return;
  if (s.planned != nullptr) {
    // A non-owning view at the planned offset. The bytes are NOT zeroed —
    // OpPlan::zero_first schedules zeroing at execution time for
    // non-aliased outputs.
    s.value = DenseTensor::view(s.shape, s.tensor->dtype(), slab_.data() + s.planned->offset);
  } else {
    s.value = DenseTensor(s.shape, s.tensor->dtype());
  }
}

void Executor::release(TensorState& s, std::vector<DenseTensor>* dead) {
  if (s.charged) arena_.release(s.bytes);
  s.charged = false;
  s.live = false;
  if (dead != nullptr && s.has_storage()) {
    dead->push_back(std::move(s.value));
  }
  s.value = DenseTensor();
}

void Executor::free_if_dead(TensorState& s, std::size_t pending,
                            std::vector<DenseTensor>* dead) {
  if (pending != 0 || !s.live || s.persistent || s.retained || s.pinned) return;
  release(s, dead);
}

void Executor::build_plan() {
  if (plan_active_) {
    // Replacing a plan: stale views point into the old slab; drop them and
    // un-charge the old slab before the new one is accounted.
    for (TensorState& s : tensors_)
      if (s.live && s.planned != nullptr && !s.charged) release(s);
    arena_.release(plan_.slab_bytes);
  }
  MemPlanOptions mopts;
  for (const TensorState& s : tensors_) {
    if (s.pinned) mopts.exclude.insert(s.tensor);
    if (s.retained) mopts.retained.insert(s.tensor);
  }
  plan_ = plan_memory(*graph_, dag_, bindings_, mopts);

  slab_.resize(plan_.slab_bytes);
  arena_.allocate(plan_.slab_bytes);
  for (TensorState& s : tensors_) s.planned = nullptr;
  for (const PlannedTensor& pt : plan_.tensors) state_of(pt.tensor).planned = &pt;
  for (OpPlan& p : ops_) {
    p.zero_first.clear();
    for (std::size_t k = 0; k < p.out.size(); ++k) {
      const PlannedTensor* pt = state_of(p.op->output(k)).planned;
      if (pt != nullptr && pt->alias_root == nullptr) p.zero_first.push_back(p.out[k]);
    }
  }

  // Wavefront scheduling must also respect the plan's reuse edges: an op
  // that first writes a reused slab range may not run until every accessor
  // of the range's previous occupant retired.
  planned_successors_ = dag_.successors;
  planned_predecessor_count_ = dag_.predecessor_count;
  for (const auto& [from, to] : plan_.reuse_edges) {
    auto& succ = planned_successors_[from];
    auto pos = std::lower_bound(succ.begin(), succ.end(), to);
    if (pos != succ.end() && *pos == to) continue;  // already a DAG edge
    succ.insert(pos, to);
    ++planned_predecessor_count_[to];
  }

  plan_active_ = true;
  plan_dirty_ = false;
  index_predecessors();
}

void Executor::prepare_step() {
  // Drop any non-retained leftovers from a previous step (an abandoned
  // step leaves some behind).
  for (TensorState& s : tensors_)
    if (s.live && !s.persistent && !s.pinned && !s.retained) release(s);

  // Materialize producerless tensors: inputs (pinned or random) and
  // gradient seeds (ones).
  for (const auto& t : graph_->tensors()) {
    if (t->producer() != nullptr || t->is_persistent()) continue;
    TensorState& s = state_of(t.get());
    if (s.pinned) continue;
    materialize(s);
    if (t->role() == ir::TensorRole::kGradient) {
      std::fill_n(s.value.fdata(), s.value.numel(), 1.0f);
    } else {
      random_fill(t.get(), s.value);
    }
  }
}

void Executor::retire_tensors(const OpPlan& p, std::vector<std::size_t>& pending,
                              std::vector<DenseTensor>* dead) {
  for (const std::uint32_t id : input_ids(p)) free_if_dead(tensors_[id], --pending[id], dead);
  for (const std::uint32_t id : output_ids(p)) free_if_dead(tensors_[id], pending[id], dead);
}

std::size_t Executor::simulated_sequential_peak() const {
  // Replays the sequential schedule's arena trajectory against the current
  // step-start state (resident transients, retained values, pinned inputs,
  // already-allocated persistent gradients). Mirrors run_step_sequential's
  // allocate/free rules exactly, so the returned peak is both achievable
  // and never exceeded by that schedule — the wavefront allocation budget.
  std::size_t live = arena_.current_bytes();
  std::size_t peak = live;
  std::vector<std::size_t> pending = consumer_counts_;
  std::vector<char> charged(tensors_.size(), 0);
  for (std::size_t id = 0; id < tensors_.size(); ++id) charged[id] = tensors_[id].charged;
  auto release_if_dead = [&](std::size_t id) {
    const TensorState& s = tensors_[id];
    if (pending[id] != 0 || !charged[id] || s.persistent || s.retained) return;
    charged[id] = 0;
    live -= s.bytes;
  };

  for (const OpPlan& p : ops_) {
    for (const std::uint32_t id : output_ids(p)) {
      if (!charged[id]) {
        charged[id] = 1;
        live += tensors_[id].bytes;
      }
    }
    peak = std::max(peak, live);
    for (const std::uint32_t id : input_ids(p)) {
      --pending[id];
      release_if_dead(id);
    }
    for (const std::uint32_t id : output_ids(p)) release_if_dead(id);
  }
  return peak;
}

ProfileReport Executor::run_step() {
  if (options_.memory_plan && plan_dirty_) build_plan();
  prepare_step();
  if (options_.schedule == Schedule::kSequential || ops_.empty())
    return run_step_sequential();
  return run_step_wavefront();
}

ProfileReport Executor::run_step_sequential() {
  const std::size_t n = ops_.size();
  std::vector<OpSlot> slots(n);
  std::vector<std::size_t> pending = consumer_counts_;

  const auto step_start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const OpPlan& p = ops_[i];
    for (const std::uint32_t id : output_ids(p)) materialize(tensors_[id]);
    OpSlot& slot = slots[i];
    const auto t0 = Clock::now();
    execute(p, slot.stats);
    const auto t1 = Clock::now();
    slot.start_seconds = seconds_between(step_start, t0);
    slot.end_seconds = seconds_between(step_start, t1);
    slot.worker = -1;
    if (options_.on_op_retired) options_.on_op_retired(*p.op, i);
    retire_tensors(p, pending);
  }
  return fold_report(slots, seconds_between(step_start, Clock::now()));
}

ProfileReport Executor::run_step_wavefront() {
  const std::size_t n = ops_.size();
  std::vector<OpSlot> slots(n);
  // Under an active plan the DAG carries the reuse edges, so slab regions
  // are never written while their previous occupant is still accessed.
  const std::vector<std::vector<std::size_t>>& successors =
      plan_active_ ? planned_successors_ : dag_.successors;
  std::vector<std::size_t> preds =
      plan_active_ ? planned_predecessor_count_ : dag_.predecessor_count;
  std::vector<char> allocated(n, 0);
  std::vector<std::size_t> pending = consumer_counts_;

  // With a plan the step's transient footprint is the fixed slab: no
  // backpressure needed (or meaningful), so the budget gate is disabled.
  const std::size_t budget = plan_active_ ? std::numeric_limits<std::size_t>::max()
                                          : simulated_sequential_peak();

  // Scheduling state. One mutex guards tensor storage and flags, the arena,
  // the countdowns, the frontier and the launch/retire counters; kernels
  // run outside it.
  std::mutex m;
  std::condition_variable finished;
  std::size_t frontier = 0;  // ops [0, frontier) have their outputs allocated
  std::size_t launched = 0;  // ops that became ready
  std::size_t retired = 0;
  std::exception_ptr error;
  auto done = [&] { return retired == launched && (error || retired == n); };
  auto fail = [&](std::exception_ptr e) {
    if (!error) error = std::move(e);
  };

  // Called with `m` held. Allocates outputs strictly in topological order
  // while they fit under the sequential peak. Every op below the frontier
  // eventually retires and frees exactly what the sequential schedule
  // would have freed, so once everything below it has retired the next
  // allocation always fits. The thread whose retirement freed memory is the
  // one that moves the frontier on, and the arena never exceeds `budget`.
  // An op becomes ready when its outputs are allocated AND its predecessor
  // countdown reached zero.
  auto advance_frontier = [&](std::vector<std::size_t>& ready) {
    for (; frontier < n && !error; ++frontier) {
      const std::span<const std::uint32_t> outs = output_ids(ops_[frontier]);
      std::size_t fresh = 0;
      for (const std::uint32_t id : outs)
        if (!tensors_[id].live) fresh += tensors_[id].bytes;
      if (arena_.current_bytes() + fresh > budget) break;
      for (const std::uint32_t id : outs) reserve(tensors_[id]);
      allocated[frontier] = 1;
      if (preds[frontier] == 0) {
        ready.push_back(frontier);
        ++launched;
      }
    }
  };

  const auto step_start = Clock::now();

  // Runs op `i`, retires it, and goes on with one of the ops its
  // retirement made ready (a successor first), handing the others to the
  // pool. Returns once a retirement readies nothing. After the final
  // retirement it touches no step state: run_step_wavefront may already
  // have returned.
  std::function<void(std::size_t)> run_chain;
  auto launch = [&](const std::vector<std::size_t>& ready, std::size_t from) {
    for (std::size_t k = from; k < ready.size(); ++k)
      pool_->submit([&run_chain, i = ready[k]] { run_chain(i); });
  };
  run_chain = [&](std::size_t i) {
    std::vector<std::size_t> ready;
    std::vector<DenseTensor> dead;
    for (;;) {
      OpSlot& slot = slots[i];
      auto t0 = Clock::now();
      std::exception_ptr op_error;
      try {
        // Storage is created here rather than at reservation, so a buffer
        // is zeroed right before its kernel writes it (still in cache) and
        // the allocator runs outside the scheduler lock.
        for (const std::uint32_t id : output_ids(ops_[i])) ensure_storage(tensors_[id]);
        t0 = Clock::now();
        execute(ops_[i], slot.stats);
      } catch (...) {
        op_error = std::current_exception();
      }
      const auto t1 = Clock::now();
      slot.start_seconds = seconds_between(step_start, t0);
      slot.end_seconds = seconds_between(step_start, t1);
      slot.worker = conc::ThreadPool::current_worker_index();
      // Outputs are final; fire the completion hook outside the scheduler
      // lock so a hook that hands work to another thread (the ring-
      // allreduce kick) never serializes against dispatch.
      if (!op_error && options_.on_op_retired) {
        try {
          options_.on_op_retired(*ops_[i].op, i);
        } catch (...) {
          op_error = std::current_exception();
        }
      }

      {
        std::lock_guard lock(m);
        ++retired;
        if (op_error) {
          fail(op_error);
        } else {
          try {
            retire_tensors(ops_[i], pending, &dead);
            for (std::size_t s : successors[i])
              if (--preds[s] == 0 && allocated[s]) {
                ready.push_back(s);
                ++launched;
              }
            advance_frontier(ready);
          } catch (...) {
            fail(std::current_exception());
          }
        }
        // Notify under the lock: the waiter owns `finished`.
        if (done()) finished.notify_all();
      }
      dead.clear();  // frees the buffers that died, outside the lock
      if (ready.empty()) return;
      launch(ready, 1);
      i = ready.front();
      ready.clear();
    }
  };

  std::unique_lock lock(m);
  std::vector<std::size_t> ready;
  try {
    advance_frontier(ready);
  } catch (...) {
    fail(std::current_exception());
  }
  lock.unlock();
  launch(ready, 0);

  // Drain in-flight ops (all of them on success; on error, everything
  // already launched) before reporting or rethrowing.
  lock.lock();
  finished.wait(lock, done);
  if (error) std::rethrow_exception(error);
  lock.unlock();

  return fold_report(slots, seconds_between(step_start, Clock::now()));
}

ProfileReport Executor::fold_report(const std::vector<OpSlot>& slots,
                                    double wall_seconds) const {
  // Totals are folded in topological order, so floating-point accumulation
  // is bitwise-identical no matter which workers retired which ops when.
  ProfileReport report;
  report.timeline.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const OpSlot& s = slots[i];
    const ir::Op* op = ops_[i].op;
    report.add(op->type(), s.stats.flops, s.stats.bytes,
               s.end_seconds - s.start_seconds);
    TimelineEvent& event = report.timeline.emplace_back(
        TimelineEvent{op->name(), op->type(), i, s.worker, s.start_seconds,
                      s.end_seconds, s.stats.flops, s.stats.bytes});
    event.kernel_class = s.stats.kernel_class;
    // The ops this one waited on, so the trace is replayable offline
    // (src/whatif/).
    event.deps.assign(pred_ids_.begin() + static_cast<std::ptrdiff_t>(pred_begin_[i]),
                      pred_ids_.begin() + static_cast<std::ptrdiff_t>(pred_begin_[i + 1]));
    if (plan_active_) {
      // Surface where the op's first planned output landed in the slab.
      for (const std::uint32_t id : output_ids(ops_[i])) {
        if (const PlannedTensor* pt = tensors_[id].planned; pt != nullptr) {
          event.slab_offset = static_cast<std::int64_t>(pt->offset);
          event.reuse_generation = static_cast<std::int64_t>(pt->generation);
          break;
        }
      }
    }
  }
  report.wall_seconds = wall_seconds;
  report.peak_allocated_bytes = arena_.peak_bytes();
  return report;
}

void Executor::execute(const OpPlan& p, KernelStats& stats) {
  // Planned slab regions start with a previous occupant's bytes; give the
  // kernel the same zeroed output the per-op heap path would have.
  for (DenseTensor* z : p.zero_first) z->fill_zero();

  using ir::OpType;
  const ir::Op& op = *p.op;
  const std::vector<const DenseTensor*>& in = p.in;
  const std::vector<DenseTensor*>& out = p.out;

  switch (op.type()) {
    case OpType::kMatMul: {
      const auto& mm = static_cast<const ir::MatMulOp&>(op);
      matmul(*in[0], *in[1], *out[0], mm.trans_a(), mm.trans_b(), *pool_, stats,
             mm.epilogue_bias() ? in[2] : nullptr, mm.epilogue_activation());
      break;
    }
    case OpType::kConv2D: {
      const auto& c = static_cast<const ir::Conv2DOp&>(op);
      conv2d(*in[0], *in[1], *out[0], c.stride(), *pool_, stats);
      break;
    }
    case OpType::kConv2DGradInput: {
      const auto& c = static_cast<const ir::Conv2DGradInputOp&>(op);
      conv2d_grad_input(*in[0], *in[1], *out[0], c.stride(), *pool_, stats);
      break;
    }
    case OpType::kConv2DGradFilter: {
      const auto& c = static_cast<const ir::Conv2DGradFilterOp&>(op);
      conv2d_grad_filter(*in[0], *in[1], *out[0], c.stride(), *pool_, stats);
      break;
    }
    case OpType::kPointwise: {
      pointwise(static_cast<const ir::PointwiseOp&>(op).fn(), in, p.scalars[0], *out[0],
                *pool_, stats);
      break;
    }
    case OpType::kBiasAdd:
      bias_add(*in[0], *in[1], *out[0], *pool_, stats);
      break;
    case OpType::kFusedPointwise: {
      const auto& f = static_cast<const ir::FusedPointwiseOp&>(op);
      bool compiled = false;
      if (options_.simd) {
        // options_.simd set programmatically with GF_SIMD unset still means
        // "compile": promote the scalar env default to the widest ISA.
        hw::SimdIsa isa = codegen::active_isa();
        if (isa == hw::SimdIsa::kScalar) isa = hw::best_simd_isa();
        compiled = fused_pointwise_simd(f.program(), in, p.scalars, *out[0], *pool_,
                                        stats, isa);
      }
      if (!compiled)
        fused_pointwise(f.program(), in, p.scalars, *out[0], *pool_, stats);
      stats.kernel_class = compiled ? "pointwise-simd" : "pointwise-interp";
      break;
    }
    case OpType::kEmbeddingLookup:
      embedding_lookup(*in[0], *in[1], *out[0], *pool_, stats);
      break;
    case OpType::kEmbeddingGrad:
      embedding_grad(*in[0], *in[1], *out[0], *pool_, stats);
      break;
    case OpType::kSoftmax:
      softmax(*in[0], *out[0], *pool_, stats);
      break;
    case OpType::kSoftmaxGrad:
      softmax_grad(*in[0], *in[1], *out[0], *pool_, stats);
      break;
    case OpType::kSoftmaxXent:
      softmax_xent(*in[0], *in[1], *out[0], *out[1], *pool_, stats);
      break;
    case OpType::kSoftmaxXentGrad:
      softmax_xent_grad(*in[0], *in[1], *in[2], *out[0], *pool_, stats);
      break;
    case OpType::kReduce: {
      const auto& red = static_cast<const ir::ReduceOp&>(op);
      reduce(red.reduce_kind(), *in[0], *out[0], *pool_, stats);
      break;
    }
    case OpType::kBroadcast:
      broadcast(*in[0], *out[0], *pool_, stats);
      break;
    case OpType::kBatchNorm:
      batch_norm(*in[0], *in[1], *in[2], *out[0], *pool_, stats);
      break;
    case OpType::kBatchNormGrad:
      batch_norm_grad(*in[0], *in[1], *in[2], *out[0], *out[1], *out[2], *pool_, stats);
      break;
    case OpType::kPool: {
      const auto& p = static_cast<const ir::PoolOp&>(op);
      pool(p.pool_kind(), *in[0], *out[0], p.window_h(), p.window_w(), *pool_, stats);
      break;
    }
    case OpType::kPoolGrad: {
      const auto& p = static_cast<const ir::PoolGradOp&>(op);
      pool_grad(p.pool_kind(), *in[0], *in[1], *in[2], *out[0], p.window_h(),
                p.window_w(), *pool_, stats);
      break;
    }
    case OpType::kConcat: {
      const auto& c = static_cast<const ir::ConcatOp&>(op);
      concat(in, c.axis(), *out[0], *pool_, stats);
      break;
    }
    case OpType::kSplit: {
      const auto& s = static_cast<const ir::SplitOp&>(op);
      split(*in[0], s.axis(), out, *pool_, stats);
      break;
    }
    case OpType::kSlice: {
      const auto& s = static_cast<const ir::SliceOp&>(op);
      slice(*in[0], s.axis(), static_cast<std::int64_t>(p.scalars[0]), *out[0], *pool_,
            stats);
      break;
    }
    case OpType::kReshape:
      reshape_copy(*in[0], *out[0], stats);
      break;
    case OpType::kApplyGradient: {
      if (!options_.apply_updates) break;
      // In-place update of persistent state: the weight and its slots are
      // the executor's own mutable storage.
      const auto& a = static_cast<const ir::ApplyGradientOp&>(op);
      std::vector<DenseTensor*> slots;
      for (std::size_t k = 2; k < op.inputs().size(); ++k)
        slots.push_back(&state_of(op.input(k)).value);
      apply_gradient(a.optimizer(), state_of(op.input(0)).value, *in[1], slots,
                     options_.learning_rate, *pool_, stats);
      break;
    }
  }
}

}  // namespace gf::rt
