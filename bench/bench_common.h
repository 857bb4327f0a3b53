// Shared helpers for the table/figure reproduction benches.
//
// Every bench prints (a) a banner naming the paper artifact it regenerates,
// (b) an aligned table of the reproduced rows/series, and (c) a CSV block
// for plotting, so `for b in build/bench/*; do $b; done` leaves a complete,
// diffable record.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/ir/fusion.h"
#include "src/ir/serialize.h"
#include "src/models/common.h"
#include "src/util/format.h"
#include "src/util/table.h"

namespace gf::bench {

inline void banner(const std::string& what, const std::string& description) {
  std::cout << "\n==============================================================\n"
            << what << " — " << description << "\n"
            << "==============================================================\n";
}

/// Deep-copies `spec` and runs the fusion rewrite on the copy, so a bench
/// can report pre/post-fusion numbers from one binary without mutating the
/// shared build. The loss always survives fusion (it has no consumers, so
/// it can only ever be a group root, whose output tensor is kept).
inline models::ModelSpec fused_spec(const models::ModelSpec& spec) {
  models::ModelSpec out = spec;
  std::unordered_map<const ir::Tensor*, ir::Tensor*> mapping;
  auto clone = ir::clone_graph(*spec.graph, &mapping);
  ir::fuse_graph(*clone);
  out.loss = spec.loss != nullptr ? mapping.at(spec.loss) : nullptr;
  out.graph = std::move(clone);
  return out;
}

/// Default --threads for the pool-driven benches: at most 8 workers, and no
/// more than the host has hardware threads (oversubscribing a small host
/// measures the OS scheduler, not the code).
inline std::size_t default_bench_threads() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(8, hw);
}

inline void print_with_csv(const util::Table& table) {
  table.print(std::cout);
  std::cout << "\n-- csv --\n";
  table.print_csv(std::cout);
}

}  // namespace gf::bench
