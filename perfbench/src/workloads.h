/// \file workloads.h
/// The benchmark's workloads: input generation from a seed, the pipeline
/// configuration of each, and the code that measures one workload and
/// checks its outputs. README.md in this directory says why each workload
/// exists and which layer metric should move which end-to-end metric.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/pipeline.h"
#include "eval/tuples.h"
#include "table/table.h"
#include "util/status.h"

namespace perfbench {

namespace core = multiem::core;
namespace eval = multiem::eval;
namespace table = multiem::table;
namespace util = multiem::util;

/// Worker threads of every pipeline run and serving pool. The load comes
/// from one process, and it takes half the cores of a 4-core host: with a
/// thread on every core, a core lost to another process stalls each
/// parallel loop at its slowest thread, and the figures measure the
/// neighbours (README.md, "Threads").
inline constexpr size_t kThreads = 2;

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// One generated input set.
struct Corpus {
  std::vector<table::Table> tables;
  eval::TupleSet truth;
};

/// Generates the inputs of `workload` from `seed`; the same seed gives the
/// same tables. serve-mixed draws from the shopee-20 corpus.
util::Result<Corpus> MakeCorpus(const std::string& workload, uint64_t seed);

/// The pipeline configuration of `workload` at `threads` workers.
core::MultiEmConfig MakeConfig(const std::string& workload, size_t threads);

/// Assembles the pipeline of `config`. With `traced`, the registry's
/// encoder, index factory and pruner are wrapped in the forwarding wrappers
/// of wrappers.h before being injected through PipelineBuilder.
util::Result<core::MultiEmPipeline> BuildPipeline(
    const core::MultiEmConfig& config, bool traced);

/// Correctness problems of a tuple set: a tuple with fewer than two members,
/// or an entity that appears in two tuples. Empty when there are none.
std::vector<std::string> CheckTuples(const std::vector<eval::Tuple>& tuples);

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  /// Minimum measuring time; a batch workload repeats Run until it is
  /// spent (at least once).
  double seconds = 1.0;
  bool trace = false;
  /// Chrome trace-event output of a traced run (empty: not written).
  std::string trace_path;
};

/// Result of one benchmark run: metrics in print order, correctness
/// problems, and operation counts.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  size_t attempted = 0;
  size_t failed = 0;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one operation; a non-OK status is a failure and a problem.
  void Attempt(const util::Status& status, const std::string& what);
  bool correct() const { return problems.empty() && failed == 0; }
};

/// Measures one workload. Fails only when the inputs cannot be built.
util::Result<Report> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
