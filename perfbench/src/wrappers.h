/// \file wrappers.h
/// Forwarding wrappers that a traced run injects through the library's
/// public seams (PipelineBuilder::WithEncoder / WithIndexFactory /
/// WithPruner, RunContext::observer, MatchOptions::observer). Each wrapper
/// calls exactly the method it was called as on the wrapped component and
/// times the call from outside; none changes an argument or a result, so a
/// wrapped run computes what an unwrapped one does (the fidelity test
/// checks this bit for bit at one thread).

#ifndef PERFBENCH_WRAPPERS_H_
#define PERFBENCH_WRAPPERS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ann/index.h"
#include "ann/index_factory.h"
#include "core/matcher.h"
#include "core/pruner.h"
#include "core/run_context.h"
#include "embed/text_encoder.h"

namespace perfbench {

namespace ann = multiem::ann;
namespace core = multiem::core;
namespace embed = multiem::embed;
namespace util = multiem::util;

/// Times every EncodeInto (aggregated per stage) and FitCorpus.
class TracedEncoder final : public embed::TextEncoder {
 public:
  explicit TracedEncoder(std::unique_ptr<embed::TextEncoder> inner)
      : inner_(std::move(inner)) {}

  size_t dim() const override { return inner_->dim(); }
  std::unique_ptr<embed::TextEncoder> Clone() const override;
  void FitCorpus(const std::vector<std::string>& corpus) override;
  void EncodeInto(std::string_view text, std::span<float> out) const override;
  std::string_view kind() const override { return inner_->kind(); }
  util::Status Save(const std::string& path) const override {
    return inner_->Save(path);
  }

  /// The wrapped encoder, for work the benchmark does for its own checks
  /// (the recall oracle), which must not show in the trace.
  const embed::TextEncoder& inner() const { return *inner_; }

 private:
  std::unique_ptr<embed::TextEncoder> inner_;
};

/// Times builds (a span per AddBatch), clones and searches of one index,
/// and keeps the collector's live index bytes current.
class TracedIndex final : public ann::VectorIndex {
 public:
  explicit TracedIndex(std::unique_ptr<ann::VectorIndex> inner);
  ~TracedIndex() override;

  void Add(std::span<const float> vec) override;
  void AddBatch(const embed::EmbeddingMatrix& vectors,
                util::ThreadPool* pool) override;
  std::vector<ann::Neighbor> Search(std::span<const float> query,
                                    size_t k) const override;
  std::vector<ann::Neighbor> SearchWithStats(std::span<const float> query,
                                             size_t k, size_t ef,
                                             ann::SearchStats* stats)
      const override;
  std::unique_ptr<ann::VectorIndex> Clone() const override;

  size_t size() const override { return inner_->size(); }
  size_t dim() const override { return inner_->dim(); }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }
  ann::MemoryBreakdown MemoryUsage() const override {
    return inner_->MemoryUsage();
  }
  ann::Metric metric() const override { return inner_->metric(); }
  std::string_view kind() const override { return inner_->kind(); }
  util::Status Save(const std::string& path) const override {
    return inner_->Save(path);
  }

 private:
  /// Re-reads MemoryUsage() and moves the live-bytes total by the change.
  void UpdateBytes();

  std::unique_ptr<ann::VectorIndex> inner_;
  int64_t counted_bytes_ = 0;
};

/// Wraps every index the wrapped factory creates.
class TracedIndexFactory final : public ann::VectorIndexFactory {
 public:
  explicit TracedIndexFactory(
      std::unique_ptr<ann::VectorIndexFactory> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<ann::VectorIndex> Create(size_t dim,
                                           ann::Metric metric) const override {
    return std::make_unique<TracedIndex>(inner_->Create(dim, metric));
  }

 private:
  std::unique_ptr<ann::VectorIndexFactory> inner_;
};

/// Records the pruning call as a span plus its seconds and outliers.
class TracedPruner final : public core::Pruner {
 public:
  explicit TracedPruner(std::unique_ptr<core::Pruner> inner)
      : inner_(std::move(inner)) {}

  std::vector<multiem::eval::Tuple> Prune(const core::MergeTable& integrated,
                                          const core::PruneContext& ctx,
                                          core::PruneStats* stats)
      const override;

 private:
  std::unique_ptr<core::Pruner> inner_;
};

/// Phase and merge-level events of a pipeline run: sets the stage the
/// wrappers attribute calls to and records phase / level spans. Calls
/// after the pruning phase, up to OnRunReturned, belong to the assemble
/// stage (the serving session a build_matcher run builds).
class PhaseObserver final : public core::PipelineObserver {
 public:
  void OnPhaseStart(std::string_view phase) override;
  void OnPhaseEnd(std::string_view phase, double seconds) override;
  void OnMergeLevel(const core::MergeLevelProgress& progress) override;

  /// Closes the assemble stage; call when Run returns.
  void OnRunReturned();

  const std::vector<double>& level_seconds() const { return level_seconds_; }
  size_t mutual_pairs() const { return mutual_pairs_; }
  double assemble_seconds() const { return assemble_seconds_; }

 private:
  double phase_start_ = 0.0;
  double level_start_ = 0.0;
  double assemble_start_ = -1.0;
  double assemble_seconds_ = 0.0;
  std::vector<double> level_seconds_;
  size_t mutual_pairs_ = 0;
};

/// Per-query ANN counters of MatchRecords batches.
class QueryObserver final : public core::MatchObserver {
 public:
  void OnQueryMatched(size_t row, const core::MatchQueryStats& stats) override {
    (void)row;
    visited_ += static_cast<double>(stats.visited);
    distance_evals_ += static_cast<double>(stats.distance_evals);
    queries_ += 1.0;
  }

  double visited_per_query() const {
    return queries_ > 0.0 ? visited_ / queries_ : 0.0;
  }
  double distance_evals_per_query() const {
    return queries_ > 0.0 ? distance_evals_ / queries_ : 0.0;
  }

 private:
  double visited_ = 0.0;
  double distance_evals_ = 0.0;
  double queries_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WRAPPERS_H_
