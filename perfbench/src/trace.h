/// \file trace.h
/// In-memory trace collector of the benchmark's traced runs. Spans record
/// coarse calls (a phase, a merge level, an index build, a query batch);
/// fine-grained calls (one EncodeInto, one Search) only add to per-thread
/// aggregates keyed by (stage, counter), so the hot paths never take a lock.
/// Spans are written out once, as a Chrome trace-event file, when the
/// workload ends.
///
/// Untraced runs feed nothing in: they never install the forwarding
/// wrappers of wrappers.h and record no spans.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The part of a workload a layer call belongs to. Set from outside the
/// program: the phase observer sets the pipeline phases, the workload
/// code sets serve and ingest around its own calls.
enum class Stage : int {
  kOther = 0,
  kSelection,
  kRepresentation,
  kMerge,
  kPrune,
  kAssemble,
  kServe,
  kIngest,
  kCount,
};

/// Aggregated counters of the fine-grained layer calls.
enum class Counter : int {
  kEncodeCalls = 0,
  kEncodeSeconds,
  kFitSeconds,
  kBuildCalls,
  kBuildRows,
  kBuildSeconds,
  kCloneSeconds,
  kSearchCalls,
  kSearchSeconds,
  kDistanceEvals,
  kVisited,
  kPruneSeconds,
  kOutliersRemoved,
  kCount,
};

/// A copy of the aggregates: per (stage, counter) sums over all threads,
/// plus the high-water mark of live index bytes.
struct Totals {
  static constexpr int kStages = static_cast<int>(Stage::kCount);
  static constexpr int kCounters = static_cast<int>(Counter::kCount);

  double values[kStages][kCounters] = {};
  int64_t peak_index_bytes = 0;

  double Get(Counter counter, Stage stage) const {
    return values[static_cast<int>(stage)][static_cast<int>(counter)];
  }
  /// Sum over all stages.
  double Get(Counter counter) const;
};

class Trace {
 public:
  /// The process-wide collector.
  static Trace& Global();

  /// Seconds on the steady clock since the collector was created.
  static double Now();

  void SetStage(Stage stage) {
    stage_.store(static_cast<int>(stage), std::memory_order_relaxed);
  }
  Stage stage() const {
    return static_cast<Stage>(stage_.load(std::memory_order_relaxed));
  }

  /// Adds `value` to `counter` of the current stage in the calling thread's
  /// slots. Lock-free after the thread's first call.
  void Add(Counter counter, double value);

  /// The aggregates so far. Call only while no traced work is running.
  Totals Snapshot() const;

  /// Records one complete span [start, end] (seconds from Now()) on the
  /// calling thread. `args` is a JSON object body without braces, or empty.
  void Span(std::string name, const char* category, double start, double end,
            std::string args = {});

  /// Live bytes of the traced ANN indexes, as reported by their
  /// MemoryUsage(); the collector keeps the high-water mark.
  void AddIndexBytes(int64_t delta);

  /// Clears the aggregates and the index high-water mark; spans are kept
  /// for the trace file. Call only while no traced work is running.
  void Reset();

  /// Writes every span as Chrome trace-event JSON (about:tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadSlots {
    std::atomic<double> values[Totals::kStages][Totals::kCounters] = {};
  };

  struct SpanRecord {
    std::string name;
    const char* category;
    double start;
    double end;
    int tid;
    std::string args;
  };

  Trace() = default;
  ThreadSlots& Local();

  std::atomic<int> stage_{0};
  std::atomic<int64_t> live_index_bytes_{0};
  std::atomic<int64_t> peak_index_bytes_{0};

  mutable std::mutex mu_;  // guards slots_ (the list, not the values), spans_
  std::vector<std::unique_ptr<ThreadSlots>> slots_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: records [construction, destruction] on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(std::string name, const char* category, std::string args = {})
      : name_(std::move(name)),
        category_(category),
        args_(std::move(args)),
        start_(Trace::Now()) {}
  ~ScopedSpan() {
    Trace::Global().Span(std::move(name_), category_, start_, Trace::Now(),
                         std::move(args_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double start() const { return start_; }

 private:
  std::string name_;
  const char* category_;
  std::string args_;
  double start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
