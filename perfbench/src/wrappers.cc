#include "wrappers.h"

#include <string>

#include "core/pipeline.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Adds the seconds since `start` to `counter` and one to `calls`.
void Count(Counter calls, Counter seconds, double start) {
  Trace& trace = Trace::Global();
  trace.Add(seconds, Trace::Now() - start);
  trace.Add(calls, 1.0);
}

}  // namespace

// ------------------------------------------------------------- TracedEncoder

std::unique_ptr<embed::TextEncoder> TracedEncoder::Clone() const {
  return std::make_unique<TracedEncoder>(inner_->Clone());
}

void TracedEncoder::FitCorpus(const std::vector<std::string>& corpus) {
  ScopedSpan span("embed.FitCorpus", "embed",
                  "\"rows\": " + std::to_string(corpus.size()));
  inner_->FitCorpus(corpus);
  Trace::Global().Add(Counter::kFitSeconds, Trace::Now() - span.start());
}

void TracedEncoder::EncodeInto(std::string_view text,
                               std::span<float> out) const {
  const double start = Trace::Now();
  inner_->EncodeInto(text, out);
  Count(Counter::kEncodeCalls, Counter::kEncodeSeconds, start);
}

// --------------------------------------------------------------- TracedIndex

TracedIndex::TracedIndex(std::unique_ptr<ann::VectorIndex> inner)
    : inner_(std::move(inner)) {
  UpdateBytes();
}

TracedIndex::~TracedIndex() { Trace::Global().AddIndexBytes(-counted_bytes_); }

void TracedIndex::UpdateBytes() {
  const int64_t bytes = static_cast<int64_t>(inner_->MemoryUsage().total());
  Trace::Global().AddIndexBytes(bytes - counted_bytes_);
  counted_bytes_ = bytes;
}

void TracedIndex::Add(std::span<const float> vec) {
  const double start = Trace::Now();
  inner_->Add(vec);
  Count(Counter::kBuildCalls, Counter::kBuildSeconds, start);
  Trace::Global().Add(Counter::kBuildRows, 1.0);
}

void TracedIndex::AddBatch(const embed::EmbeddingMatrix& vectors,
                           util::ThreadPool* pool) {
  {
    ScopedSpan span("ann.AddBatch", "ann",
                    "\"rows\": " + std::to_string(vectors.num_rows()) +
                        ", \"size_before\": " + std::to_string(size()));
    inner_->AddBatch(vectors, pool);
    Count(Counter::kBuildCalls, Counter::kBuildSeconds, span.start());
    Trace::Global().Add(Counter::kBuildRows,
                        static_cast<double>(vectors.num_rows()));
  }
  UpdateBytes();
}

std::vector<ann::Neighbor> TracedIndex::Search(std::span<const float> query,
                                               size_t k) const {
  const double start = Trace::Now();
  std::vector<ann::Neighbor> hits = inner_->Search(query, k);
  Count(Counter::kSearchCalls, Counter::kSearchSeconds, start);
  return hits;
}

std::vector<ann::Neighbor> TracedIndex::SearchWithStats(
    std::span<const float> query, size_t k, size_t ef,
    ann::SearchStats* stats) const {
  const double start = Trace::Now();
  std::vector<ann::Neighbor> hits =
      inner_->SearchWithStats(query, k, ef, stats);
  Count(Counter::kSearchCalls, Counter::kSearchSeconds, start);
  if (stats != nullptr) {
    Trace& trace = Trace::Global();
    trace.Add(Counter::kDistanceEvals,
              static_cast<double>(stats->distance_evals));
    trace.Add(Counter::kVisited, static_cast<double>(stats->visited));
  }
  return hits;
}

std::unique_ptr<ann::VectorIndex> TracedIndex::Clone() const {
  ScopedSpan span("ann.Clone", "ann",
                  "\"size\": " + std::to_string(size()));
  std::unique_ptr<ann::VectorIndex> copy = inner_->Clone();
  Trace::Global().Add(Counter::kCloneSeconds, Trace::Now() - span.start());
  if (copy == nullptr) return nullptr;
  return std::make_unique<TracedIndex>(std::move(copy));
}

// -------------------------------------------------------------- TracedPruner

std::vector<multiem::eval::Tuple> TracedPruner::Prune(
    const core::MergeTable& integrated, const core::PruneContext& ctx,
    core::PruneStats* stats) const {
  ScopedSpan span("core.Prune", "core");
  std::vector<multiem::eval::Tuple> tuples =
      inner_->Prune(integrated, ctx, stats);
  Trace& trace = Trace::Global();
  trace.Add(Counter::kPruneSeconds, Trace::Now() - span.start());
  if (stats != nullptr) {
    trace.Add(Counter::kOutliersRemoved,
              static_cast<double>(stats->outliers_removed));
  }
  return tuples;
}

// ------------------------------------------------------------- PhaseObserver

void PhaseObserver::OnPhaseStart(std::string_view phase) {
  Trace& trace = Trace::Global();
  phase_start_ = Trace::Now();
  if (phase == core::kPhaseSelection) {
    trace.SetStage(Stage::kSelection);
  } else if (phase == core::kPhaseRepresentation) {
    trace.SetStage(Stage::kRepresentation);
  } else if (phase == core::kPhaseMerging) {
    trace.SetStage(Stage::kMerge);
    level_start_ = phase_start_;
  } else if (phase == core::kPhasePruning) {
    trace.SetStage(Stage::kPrune);
  }
}

void PhaseObserver::OnPhaseEnd(std::string_view phase, double seconds) {
  (void)seconds;
  Trace& trace = Trace::Global();
  const double now = Trace::Now();
  trace.Span("core.phase." + std::string(phase), "core", phase_start_, now);
  if (phase == core::kPhasePruning) {
    trace.SetStage(Stage::kAssemble);
    assemble_start_ = now;
  } else {
    trace.SetStage(Stage::kOther);
  }
}

void PhaseObserver::OnMergeLevel(const core::MergeLevelProgress& progress) {
  const double now = Trace::Now();
  Trace::Global().Span(
      "core.merge.level" + std::to_string(progress.level), "core",
      level_start_, now,
      "\"tables_in\": " + std::to_string(progress.tables_in) +
          ", \"pairs_merged\": " + std::to_string(progress.pairs_merged) +
          ", \"mutual_pairs\": " + std::to_string(progress.mutual_pairs));
  level_seconds_.push_back(now - level_start_);
  mutual_pairs_ += progress.mutual_pairs;
  level_start_ = now;
}

void PhaseObserver::OnRunReturned() {
  Trace& trace = Trace::Global();
  if (assemble_start_ >= 0.0) {
    const double now = Trace::Now();
    trace.Span("core.Assemble", "core", assemble_start_, now);
    assemble_seconds_ = now - assemble_start_;
    assemble_start_ = -1.0;
  }
  trace.SetStage(Stage::kOther);
}

}  // namespace perfbench
