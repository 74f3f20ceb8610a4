#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/matcher.h"
#include "core/registry.h"
#include "datagen/datasets.h"
#include "embed/serialize.h"
#include "eval/metrics.h"
#include "trace.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "wrappers.h"

namespace perfbench {

namespace {

namespace datagen = multiem::datagen;
namespace embed = multiem::embed;

// Set-up (input generation + pipeline assembly, and for serve-mixed the
// session build) is repeated and its median reported, so a run-to-run blip
// does not read as set-up work moved: at least kMinSetups times, and more,
// up to kMaxSetups, while the repeats take under kSetupSeconds.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 64;
constexpr double kSetupSeconds = 1.0;

// Serving traffic: closed loop, one client, batches of 16 resampled rows,
// top-10 per row. A run sends at least kQueryBatches batches, which leave
// 10 samples beyond p99: serve-mixed in two loops of kLoopBatches.
constexpr size_t kBatchRows = 16;
constexpr size_t kTopK = 10;
constexpr size_t kQueryBatches = 1024;
constexpr size_t kRounds = 8;
constexpr size_t kBatchesPerRound = 64;
constexpr size_t kLoopBatches = kRounds * kBatchesPerRound;
// The serving tail of a batch workload sends at least kQueryBatches batches
// and keeps going for at least kTailSeconds (up to kMaxTailBatches): on a
// small index that is many more samples for the same cost, and a steadier
// p99.
constexpr double kTailSeconds = 2.0;
constexpr size_t kMaxTailBatches = 8 * kQueryBatches;
// Batches whose answers are checked against the exact oracle: 32 in all,
// spread over the rounds of serve-mixed.
constexpr size_t kRecallBatches = 32;
// serve-mixed: the session starts from the first 12 shopee sources; each
// round ends by ingesting the next held-out one. An untraced run makes at
// least kMinLoops loops, so a host slowdown of a few seconds does not set
// the figures alone.
constexpr size_t kSessionSources = 12;
constexpr size_t kMinLoops = 2;

// Merge levels reported individually (shopee-20 has five).
constexpr size_t kMaxLevels = 5;

/// Quality floors: a run below either is not correct. They are tripwires
/// for a collapse, set below the lowest value the unmodified library gave
/// over seeds 0-9 (tuple F1 is low on shopee: strict tuple equality over
/// many confusable entities).
struct Floors {
  double tuple_f1;
  double recall_at_10;
};

Floors FloorsOf(const std::string& workload) {
  if (workload == "music-2000") return {0.70, 0.95};
  return {0.07, 0.95};  // shopee-20 and serve-mixed
}

bool IsBatch(const std::string& workload) { return workload != "serve-mixed"; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile: at least n * (1 - p) samples lie at or above it.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

std::string Fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

/// Query batches of rows drawn uniformly from all `sources`. Only the
/// picks are stored; a batch table is built just before it is sent, so the
/// batches add nothing to peak RSS.
class QueryBatches {
 public:
  QueryBatches(const std::vector<table::Table>& sources, size_t count,
               uint64_t seed)
      : sources_(sources) {
    util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xB47C4);
    picks_.reserve(count * kBatchRows);
    for (size_t i = 0; i < count * kBatchRows; ++i) {
      const size_t source = rng.NextBounded(sources.size());
      picks_.emplace_back(source, rng.NextBounded(sources[source].num_rows()));
    }
  }

  size_t size() const { return picks_.size() / kBatchRows; }

  table::Table Batch(size_t b) const {
    table::Table batch("batch_" + std::to_string(b), sources_[0].schema());
    for (size_t r = b * kBatchRows; r < (b + 1) * kBatchRows; ++r) {
      batch.AppendRow(sources_[picks_[r].first].row(picks_[r].second))
          .CheckOk();
    }
    return batch;
  }

 private:
  const std::vector<table::Table>& sources_;
  std::vector<std::pair<size_t, size_t>> picks_;
};

/// Latencies of a run of MatchRecords batches, plus the answers of the
/// first few for the recall check.
struct Served {
  std::vector<double> latencies_ms;
  std::vector<table::Table> sampled_batches;
  std::vector<std::vector<std::vector<core::RecordMatch>>> sampled_answers;
};

/// Serves batches [begin, end) in order, keeping the answers of the first
/// `keep` for the recall check. With `min_seconds` > 0 it stops early once
/// at least `min_batches` were served and `min_seconds` have passed.
void ServeBatches(const core::Matcher& matcher,
                  const QueryBatches& batches, size_t begin,
                  size_t end, size_t min_batches, double min_seconds,
                  size_t keep, util::ThreadPool* pool,
                  core::MatchObserver* observer, bool traced, Report* report,
                  Served* served) {
  core::MatchOptions options;
  options.k = kTopK;
  options.pool = pool;
  options.observer = observer;
  util::WallTimer elapsed;
  for (size_t b = begin; b < end; ++b) {
    if (min_seconds > 0.0 && b - begin >= min_batches &&
        elapsed.ElapsedSeconds() >= min_seconds) {
      break;
    }
    table::Table batch = batches.Batch(b);
    const double span_start = traced ? Trace::Now() : 0.0;
    util::WallTimer timer;
    auto answers = matcher.MatchRecords(batch, options);
    const double ms = timer.ElapsedSeconds() * 1e3;
    if (traced) {
      Trace::Global().Span("serve.MatchRecords", "serve", span_start,
                           Trace::Now(), "\"batch\": " + std::to_string(b));
    }
    report->Attempt(answers.status(), "MatchRecords");
    served->latencies_ms.push_back(ms);
    if (!answers.ok()) continue;
    bool well_formed = answers->size() == batch.num_rows();
    for (const auto& hits : *answers) {
      well_formed = well_formed && !hits.empty() && hits.size() <= kTopK;
      for (size_t i = 1; i < hits.size(); ++i) {
        well_formed = well_formed && hits[i - 1].distance <= hits[i].distance;
      }
    }
    if (!well_formed) {
      report->problems.push_back("MatchRecords batch " + std::to_string(b) +
                                 ": a row has no hits, too many, or unsorted");
    }
    if (b - begin < keep) {
      served->sampled_batches.push_back(std::move(batch));
      served->sampled_answers.push_back(std::move(*answers));
    }
  }
}

struct RecallTally {
  double hit = 0.0;
  double want = 0.0;
  double value() const { return want > 0.0 ? hit / want : 0.0; }
};

/// Scores the sampled answers of `served` against an exact top-k over the
/// live items of `snap` (the epoch they were served from), embedding the
/// queries with the session's own encoder and attribute selection. A traced
/// session's encoder is bypassed, so the oracle stays out of the trace.
void TallyRecall(const core::Matcher& matcher,
                 const core::Matcher::Snapshot& snap, const Served& served,
                 util::ThreadPool* pool, RecallTally* tally) {
  const auto* traced = dynamic_cast<const TracedEncoder*>(&matcher.encoder());
  const embed::TextEncoder& encoder =
      traced != nullptr ? traced->inner() : matcher.encoder();
  const embed::EmbeddingMatrix centroids = snap.centroids();
  std::vector<size_t> live;
  for (size_t i = 0; i < snap.num_items(); ++i) {
    if (!snap.item_members(i).empty()) live.push_back(i);
  }
  for (size_t b = 0; b < served.sampled_batches.size(); ++b) {
    const embed::EmbeddingMatrix queries = encoder.EncodeBatch(
        embed::SerializeTable(served.sampled_batches[b],
                              matcher.selection().selected_columns),
        pool);
    std::vector<std::vector<size_t>> oracle(queries.num_rows());
    util::ParallelFor(pool, queries.num_rows(), [&](size_t row) {
      std::vector<std::pair<float, size_t>> scored;
      scored.reserve(live.size());
      for (size_t item : live) {
        scored.emplace_back(
            embed::CosineDistance(queries.Row(row), centroids.Row(item)),
            item);
      }
      const size_t take = std::min(kTopK, scored.size());
      std::partial_sort(scored.begin(), scored.begin() + take, scored.end());
      for (size_t i = 0; i < take; ++i) oracle[row].push_back(scored[i].second);
    }, /*min_block_size=*/1);
    const auto& answers = served.sampled_answers[b];
    for (size_t row = 0; row < answers.size(); ++row) {
      tally->want += static_cast<double>(oracle[row].size());
      for (const core::RecordMatch& m : answers[row]) {
        if (std::find(oracle[row].begin(), oracle[row].end(), m.item) !=
            oracle[row].end()) {
          tally->hit += 1.0;
        }
      }
    }
  }
}

/// The serving tail in one line. p99 per batch is a per-layer metric, not
/// an end-to-end one: host noise moves it far more than any bound allows.
std::string QueryTailNote(const std::vector<double>& latencies_ms) {
  return "query p50 " + Fixed(Median(latencies_ms), 3) + " ms, p99 " +
         Fixed(Percentile(latencies_ms, 0.99), 3) + " ms over " +
         std::to_string(latencies_ms.size()) + " batches";
}

/// What a traced run learned: the collector's aggregates of the measured
/// work plus what the observers saw.
struct LayerFacts {
  Totals totals;
  util::PhaseTimings timings;
  const PhaseObserver* phases = nullptr;
  const QueryObserver* queries = nullptr;
  double query_p99_ms = 0.0;
  size_t tuple_count = 0;
  std::vector<double> round_p50_ms;
  std::vector<double> round_dead_slots;
  std::vector<double> round_ingest_s;
  double overhead = 0.0;
};

/// Every per-layer metric of BENCHMARK.json, in its order. A metric of a
/// layer the workload does not exercise reads 0.
void AddLayerMetrics(const LayerFacts& facts, Report* report) {
  const Totals& totals = facts.totals;
  auto phase = [&](const char* name) { return facts.timings.Get(name); };
  auto at = [](const std::vector<double>& values, size_t i) {
    return i < values.size() ? values[i] : 0.0;
  };
  const std::vector<double> no_levels;
  const std::vector<double>& levels =
      facts.phases != nullptr ? facts.phases->level_seconds() : no_levels;

  report->Add("core.phase.selection_s", phase(core::kPhaseSelection), "s");
  report->Add("core.phase.representation_s",
              phase(core::kPhaseRepresentation), "s");
  report->Add("core.phase.merging_s", phase(core::kPhaseMerging), "s");
  report->Add("core.phase.pruning_s", phase(core::kPhasePruning), "s");
  report->Add("core.assemble_s",
              facts.phases != nullptr ? facts.phases->assemble_seconds() : 0.0,
              "s");
  report->Add("core.merge.levels", static_cast<double>(levels.size()),
              "count");
  for (size_t l = 0; l < kMaxLevels; ++l) {
    report->Add("core.merge.level" + std::to_string(l) + "_s", at(levels, l),
                "s");
  }
  report->Add("core.merge.mutual_pairs",
              facts.phases != nullptr
                  ? static_cast<double>(facts.phases->mutual_pairs())
                  : 0.0,
              "count");
  report->Add("core.tuple_count", static_cast<double>(facts.tuple_count),
              "count");

  report->Add("embed.fit_s", totals.Get(Counter::kFitSeconds), "s");
  report->Add("embed.encode_calls", totals.Get(Counter::kEncodeCalls),
              "count");
  const std::pair<const char*, Stage> encode_stages[] = {
      {"selection", Stage::kSelection},
      {"representation", Stage::kRepresentation},
      {"serve", Stage::kServe},
      {"ingest", Stage::kIngest}};
  for (const auto& [name, stage] : encode_stages) {
    report->Add(std::string("embed.encode_thread_s.") + name,
                totals.Get(Counter::kEncodeSeconds, stage), "s");
  }

  report->Add("ann.build_calls", totals.Get(Counter::kBuildCalls), "count");
  report->Add("ann.build_rows", totals.Get(Counter::kBuildRows), "count");
  const std::pair<const char*, Stage> build_stages[] = {
      {"merge", Stage::kMerge},
      {"assemble", Stage::kAssemble},
      {"ingest", Stage::kIngest}};
  for (const auto& [name, stage] : build_stages) {
    report->Add(std::string("ann.build_s.") + name,
                totals.Get(Counter::kBuildSeconds, stage), "s");
  }
  report->Add("ann.clone_s.ingest",
              totals.Get(Counter::kCloneSeconds, Stage::kIngest), "s");
  report->Add("ann.search_calls", totals.Get(Counter::kSearchCalls), "count");
  const std::pair<const char*, Stage> search_stages[] = {
      {"merge", Stage::kMerge}, {"serve", Stage::kServe},
      {"ingest", Stage::kIngest}};
  for (const auto& [name, stage] : search_stages) {
    report->Add(std::string("ann.search_thread_s.") + name,
                totals.Get(Counter::kSearchSeconds, stage), "s");
  }
  report->Add("ann.distance_evals", totals.Get(Counter::kDistanceEvals),
              "count");
  report->Add("ann.visited", totals.Get(Counter::kVisited), "count");
  report->Add("ann.index_bytes", static_cast<double>(totals.peak_index_bytes),
              "bytes");

  report->Add("prune.s", totals.Get(Counter::kPruneSeconds), "s");
  report->Add("prune.outliers_removed",
              totals.Get(Counter::kOutliersRemoved), "count");

  for (size_t r = 0; r < kRounds; ++r) {
    report->Add("serve.round" + std::to_string(r) + ".query_p50_ms",
                at(facts.round_p50_ms, r), "ms");
  }
  for (size_t r = 0; r < kRounds; ++r) {
    report->Add("serve.round" + std::to_string(r) + ".dead_slots",
                at(facts.round_dead_slots, r), "count");
  }
  report->Add("serve.distance_evals_per_query",
              facts.queries != nullptr
                  ? facts.queries->distance_evals_per_query()
                  : 0.0,
              "count");
  report->Add("serve.visited_per_query",
              facts.queries != nullptr ? facts.queries->visited_per_query()
                                       : 0.0,
              "count");
  report->Add("serve.query_p99_ms", facts.query_p99_ms, "ms");
  for (size_t r = 0; r < kRounds; ++r) {
    report->Add("ingest.round" + std::to_string(r) + "_s",
                at(facts.round_ingest_s, r), "s");
  }
  report->Add("trace.overhead", facts.overhead, "ratio");
}

void CheckFloor(const char* metric, double value, double floor,
                Report* report) {
  if (!(value >= floor)) {
    report->problems.push_back(std::string(metric) + " " + Fixed(value, 4) +
                               " is below its floor " + Fixed(floor, 2));
  }
}

void CheckTupleSet(const std::vector<eval::Tuple>& tuples, Report* report) {
  for (std::string& problem : CheckTuples(tuples)) {
    report->problems.push_back(std::move(problem));
  }
}

/// Median wall time of repeated calls of `setup` (see kMinSetups), which
/// must release the previous product before making the next and leave its
/// product in place for the run that follows. A traced run reports no
/// set-up time and sets up once. The repeats are noted in `report`.
template <typename Fn>
util::Result<double> TimeSetup(bool once, Report* report, Fn&& setup) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < (once ? 1 : kMinSetups) ||
         (!once && seconds.size() < kMaxSetups && total < kSetupSeconds)) {
    util::WallTimer timer;
    util::Status status = setup();
    if (!status.ok()) return status;
    seconds.push_back(timer.ElapsedSeconds());
    total += seconds.back();
  }
  if (!once) {
    const auto [low, high] =
        std::minmax_element(seconds.begin(), seconds.end());
    report->notes.push_back("set-up: " + std::to_string(seconds.size()) +
                            " repeats, " + Fixed(*low, 4) + " to " +
                            Fixed(*high, 4) + " s");
  }
  return Median(seconds);
}

double PeakRssMb() {
  return static_cast<double>(util::PeakRssBytes()) / (1024.0 * 1024.0);
}

// ------------------------------------------------------------- batch runs

/// One pipeline run, counted as an operation and checked.
util::Status RunPipeline(const core::MultiEmPipeline& pipeline,
                         const Corpus& corpus, const core::RunContext& ctx,
                         Report* report, core::PipelineResult* result,
                         double* seconds) {
  *result = core::PipelineResult{};
  util::WallTimer timer;
  util::Status status = pipeline.Run(corpus.tables, ctx, result);
  *seconds = timer.ElapsedSeconds();
  report->Attempt(status, "Run");
  if (status.ok()) CheckTupleSet(result->tuples, report);
  return status;
}

/// A batch workload: `run_s` times MultiEmPipeline::Run, which also builds
/// the run's serving session (build_matcher). The serving tail (query
/// latency, recall) then runs against that session.
util::Status MeasureBatch(const RunOptions& options, Report* report) {
  const core::MultiEmConfig config = MakeConfig(options.workload, kThreads);
  const Floors floors = FloorsOf(options.workload);
  core::RunContext ctx;
  ctx.build_matcher = true;
  util::ThreadPool pool(kThreads);

  Corpus corpus;
  std::unique_ptr<core::MultiEmPipeline> pipeline;
  auto setup = TimeSetup(/*once=*/options.trace, report, [&] {
    pipeline.reset();
    corpus = Corpus{};
    auto made = MakeCorpus(options.workload, options.seed);
    if (!made.ok()) return made.status();
    corpus = std::move(*made);
    auto built = BuildPipeline(config, /*traced=*/false);
    if (!built.ok()) return built.status();
    pipeline = std::make_unique<core::MultiEmPipeline>(std::move(*built));
    return util::Status::Ok();
  });
  if (!setup.ok()) return setup.status();
  const QueryBatches batches(corpus.tables, kMaxTailBatches, options.seed);
  size_t total_rows = 0;
  for (const table::Table& t : corpus.tables) total_rows += t.num_rows();

  // Untraced runs: all of them in an untraced run; in a traced run, the
  // two that bracket the traced one are the overhead baseline.
  std::vector<double> run_seconds;
  core::PipelineResult result;
  // Peak RSS through set-up and the first run: later runs would only add
  // what the allocator kept from the earlier ones.
  double peak_rss_mb = 0.0;
  auto untraced_run = [&] {
    double seconds = 0.0;
    if (!RunPipeline(*pipeline, corpus, ctx, report, &result, &seconds)
             .ok()) {
      return false;
    }
    if (run_seconds.empty()) peak_rss_mb = PeakRssMb();
    run_seconds.push_back(seconds);
    report->notes.push_back("run " + std::to_string(run_seconds.size()) +
                            ": " + Fixed(seconds, 3) + " s, tuple_count " +
                            std::to_string(result.tuples.size()));
    return true;
  };
  util::WallTimer budget;
  do {
    if (!untraced_run()) return util::Status::Ok();
  } while (!options.trace && budget.ElapsedSeconds() < options.seconds);

  PhaseObserver phases;
  QueryObserver queries;
  double traced_seconds = 0.0;
  if (options.trace) {
    auto traced = BuildPipeline(config, /*traced=*/true);
    if (!traced.ok()) return traced.status();
    Trace::Global().Reset();
    core::RunContext traced_ctx = ctx;
    traced_ctx.observer = &phases;
    util::Status status = RunPipeline(*traced, corpus, traced_ctx, report,
                                      &result, &traced_seconds);
    phases.OnRunReturned();
    if (!status.ok()) return util::Status::Ok();
    report->notes.push_back("traced run: " + Fixed(traced_seconds, 3) +
                            " s, tuple_count " +
                            std::to_string(result.tuples.size()));
    Trace::Global().SetStage(Stage::kServe);
  }
  Served served;
  ServeBatches(*result.matcher, batches, 0, batches.size(), kQueryBatches,
               kTailSeconds, kRecallBatches, &pool,
               options.trace ? &queries : nullptr, options.trace, report,
               &served);
  Trace::Global().SetStage(Stage::kOther);

  if (options.trace) {
    LayerFacts facts;
    facts.totals = Trace::Global().Snapshot();
    facts.timings = result.timings;
    facts.phases = &phases;
    facts.queries = &queries;
    facts.query_p99_ms = Percentile(served.latencies_ms, 0.99);
    facts.tuple_count = result.tuples.size();
    // The session stays alive for the recall check below; the closing
    // baseline run gets a result of its own.
    core::PipelineResult session = std::move(result);
    if (!untraced_run()) return util::Status::Ok();
    result = std::move(session);
    facts.overhead = traced_seconds / Median(run_seconds) - 1.0;
    AddLayerMetrics(facts, report);
  }

  const double run_s = Median(run_seconds);
  const double tuple_f1 =
      eval::EvaluateTuples(result.ToTupleSet(), corpus.truth).f1;
  report->notes.push_back(QueryTailNote(served.latencies_ms));
  report->notes.push_back("truth tuples " +
                          std::to_string(corpus.truth.size()));
  RecallTally recall;
  TallyRecall(*result.matcher, result.matcher->snapshot(), served, &pool,
              &recall);
  CheckFloor("tuple_f1", tuple_f1, floors.tuple_f1, report);
  CheckFloor("recall_at_10", recall.value(), floors.recall_at_10, report);
  if (!options.trace) {
    report->Add("setup_s", *setup, "s");
    report->Add("run_s", run_s, "s");
    report->Add("peak_rss_mb", peak_rss_mb, "MB");
    report->Add("tuple_f1", tuple_f1, "ratio");
    report->Add("query_p50_ms", Median(served.latencies_ms), "ms");
    report->Add("ingest_rows_per_s", static_cast<double>(total_rows) / run_s,
                "1/s");
    report->Add("recall_at_10", recall.value(), "ratio");
  }
  return util::Status::Ok();
}

// ---------------------------------------------------------- serve-mixed run

/// Builds the serving session over the first kSessionSources sources.
util::Result<std::shared_ptr<core::Matcher>> BuildSession(
    const core::MultiEmPipeline& pipeline, const Corpus& corpus,
    Report* report) {
  const std::vector<table::Table> sources(
      corpus.tables.begin(), corpus.tables.begin() + kSessionSources);
  core::RunContext ctx;
  ctx.build_matcher = true;
  core::PipelineResult result;
  util::Status status = pipeline.Run(sources, ctx, &result);
  report->Attempt(status, "Run");
  if (!status.ok()) return status;
  return result.matcher;
}

/// One closed-loop pass over a fresh session.
struct Rounds {
  std::shared_ptr<core::Matcher> session;
  /// Wall time of the loop, without the recall scoring.
  double seconds = 0.0;
  double ingest_seconds = 0.0;
  size_t ingest_rows = 0;
  std::vector<Served> served;
  RecallTally recall;
  std::vector<double> p50_ms;
  std::vector<double> dead_slots;
  std::vector<double> ingest_s;
};

/// The closed loop: per round, kBatchesPerRound MatchRecords batches, then
/// AddTable of the next held-out source. Each round's sampled answers are
/// scored before its AddTable, against the epoch they were served from, so
/// no earlier epoch outlives its round; the loop's time leaves the scoring
/// out.
Rounds ServeRounds(std::shared_ptr<core::Matcher> session,
                   const Corpus& corpus,
                   const QueryBatches& batches,
                   util::ThreadPool* pool, QueryObserver* observer,
                   bool traced, Report* report) {
  Rounds rounds;
  rounds.session = std::move(session);
  core::Matcher& matcher = *rounds.session;
  rounds.served.resize(kRounds);
  core::AddTableOptions add_options;
  add_options.pool = pool;
  Trace& trace = Trace::Global();
  double scoring_seconds = 0.0;
  util::WallTimer total;
  for (size_t r = 0; r < kRounds; ++r) {
    {
      const core::Matcher::Snapshot snap = matcher.snapshot();
      rounds.dead_slots.push_back(static_cast<double>(snap.dead_slots()));
      if (traced) trace.SetStage(Stage::kServe);
      ServeBatches(matcher, batches, r * kBatchesPerRound,
                   (r + 1) * kBatchesPerRound, kBatchesPerRound,
                   /*min_seconds=*/0.0, kRecallBatches / kRounds, pool,
                   observer, traced, report, &rounds.served[r]);
      rounds.p50_ms.push_back(Median(rounds.served[r].latencies_ms));
      if (traced) trace.SetStage(Stage::kOther);
      util::WallTimer scoring;
      TallyRecall(matcher, snap, rounds.served[r], pool, &rounds.recall);
      scoring_seconds += scoring.ElapsedSeconds();
    }

    if (traced) trace.SetStage(Stage::kIngest);
    const table::Table& source = corpus.tables[kSessionSources + r];
    const double span_start = traced ? Trace::Now() : 0.0;
    util::WallTimer timer;
    util::Status status = matcher.AddTable(source, add_options);
    const double seconds = timer.ElapsedSeconds();
    if (traced) {
      trace.Span("serve.AddTable", "serve", span_start, Trace::Now(),
                 "\"round\": " + std::to_string(r) +
                     ", \"rows\": " + std::to_string(source.num_rows()));
      trace.SetStage(Stage::kOther);
    }
    report->Attempt(status, "AddTable");
    rounds.ingest_s.push_back(seconds);
    rounds.ingest_seconds += seconds;
    rounds.ingest_rows += source.num_rows();
  }
  rounds.seconds = total.ElapsedSeconds() - scoring_seconds;
  return rounds;
}

/// What the untraced loops of a run add up to.
struct ServeTotals {
  std::vector<double> loop_seconds;
  /// Per loop, the mean of its rounds' p50 latencies.
  std::vector<double> loop_p50_ms;
  std::vector<double> latencies_ms;
  std::vector<double> tuple_f1s;
  /// Peak RSS through set-up and the first kMinLoops loops, which every
  /// untraced run makes, so it does not depend on how many more fit. After
  /// one loop it still varies with what the allocator keeps (120-145 MB
  /// over seeds 11-14); after two it has settled (157-176 MB).
  double peak_rss_mb = 0.0;
  double ingest_rows = 0.0;
  double ingest_seconds = 0.0;
  RecallTally recall;
  /// Per-round breakdown of the latest loop.
  std::vector<std::string> breakdown;
};

/// Checks a finished loop and folds it into `totals`, outside every timing.
void Digest(const std::string& label, const Rounds& loop, const Corpus& corpus,
            Report* report, ServeTotals* totals) {
  totals->loop_seconds.push_back(loop.seconds);
  if (totals->loop_seconds.size() == kMinLoops) {
    totals->peak_rss_mb = PeakRssMb();
  }
  totals->ingest_rows += static_cast<double>(loop.ingest_rows);
  totals->ingest_seconds += loop.ingest_seconds;
  totals->recall.hit += loop.recall.hit;
  totals->recall.want += loop.recall.want;
  double p50_sum = 0.0;
  for (double p50 : loop.p50_ms) p50_sum += p50;
  totals->loop_p50_ms.push_back(p50_sum / static_cast<double>(kRounds));
  totals->breakdown.clear();
  for (size_t r = 0; r < kRounds; ++r) {
    const std::vector<double>& latencies = loop.served[r].latencies_ms;
    totals->latencies_ms.insert(totals->latencies_ms.end(), latencies.begin(),
                                latencies.end());
    totals->breakdown.push_back(
        "round " + std::to_string(r) + ": query p50 " +
        Fixed(loop.p50_ms[r], 3) + " ms, p99 " +
        Fixed(Percentile(latencies, 0.99), 3) + " ms, dead slots " +
        Fixed(loop.dead_slots[r], 0) + ", AddTable " +
        Fixed(loop.ingest_s[r], 3) + " s");
  }
  const eval::TupleSet tuples = loop.session->Tuples();
  CheckTupleSet(tuples.tuples(), report);
  totals->tuple_f1s.push_back(eval::EvaluateTuples(tuples, corpus.truth).f1);
  report->notes.push_back(label + ": " + Fixed(loop.seconds, 3) +
                          " s, tuple_count " +
                          std::to_string(tuples.size()) + ", truth tuples " +
                          std::to_string(corpus.truth.size()));
}

/// serve-mixed: `run_s` times one closed loop of all eight rounds. Each
/// loop starts from a fresh session, built outside every timing.
util::Status MeasureServe(const RunOptions& options, Report* report) {
  const core::MultiEmConfig config = MakeConfig(options.workload, kThreads);
  const Floors floors = FloorsOf(options.workload);
  util::ThreadPool pool(kThreads);

  Corpus corpus;
  std::unique_ptr<core::MultiEmPipeline> pipeline;
  std::shared_ptr<core::Matcher> session;
  auto setup = TimeSetup(/*once=*/options.trace, report, [&] {
    session.reset();
    pipeline.reset();
    corpus = Corpus{};
    auto made = MakeCorpus(options.workload, options.seed);
    if (!made.ok()) return made.status();
    corpus = std::move(*made);
    auto built = BuildPipeline(config, /*traced=*/false);
    if (!built.ok()) return built.status();
    pipeline = std::make_unique<core::MultiEmPipeline>(std::move(*built));
    auto opened = BuildSession(*pipeline, corpus, report);
    if (!opened.ok()) return opened.status();
    session = std::move(*opened);
    return util::Status::Ok();
  });
  if (!setup.ok()) return setup.status();
  const QueryBatches batches(corpus.tables, kLoopBatches, options.seed);

  // Untraced loops: all of them in an untraced run; in a traced run, the
  // two that bracket the traced loop are the overhead baseline. A loop's
  // session is released before the next one is built.
  ServeTotals totals;
  auto untraced_loop = [&] {
    if (session == nullptr) {
      auto opened = BuildSession(*pipeline, corpus, report);
      if (!opened.ok()) return false;
      session = std::move(*opened);
    }
    const Rounds loop = ServeRounds(std::move(session), corpus, batches,
                                    &pool, nullptr, /*traced=*/false, report);
    Digest("loop " + std::to_string(totals.loop_seconds.size() + 1), loop,
           corpus, report, &totals);
    return true;
  };
  util::WallTimer budget;
  do {
    if (!untraced_loop()) return util::Status::Ok();
  } while (!options.trace && (totals.loop_seconds.size() < kMinLoops ||
                              budget.ElapsedSeconds() < options.seconds));

  if (options.trace) {
    auto traced = BuildPipeline(config, /*traced=*/true);
    if (!traced.ok()) return traced.status();
    auto opened = BuildSession(*traced, corpus, report);
    if (!opened.ok()) return util::Status::Ok();
    Trace::Global().Reset();
    QueryObserver queries;
    Rounds rounds = ServeRounds(std::move(*opened), corpus, batches, &pool,
                                &queries, /*traced=*/true, report);
    LayerFacts facts;
    facts.totals = Trace::Global().Snapshot();
    facts.queries = &queries;
    facts.tuple_count = rounds.session->Tuples().size();
    facts.round_p50_ms = rounds.p50_ms;
    facts.round_dead_slots = rounds.dead_slots;
    facts.round_ingest_s = rounds.ingest_s;
    const double traced_seconds = rounds.seconds;
    ServeTotals traced_totals;
    Digest("traced loop", rounds, corpus, report, &traced_totals);
    CheckFloor("traced tuple_f1", Median(traced_totals.tuple_f1s),
               floors.tuple_f1, report);
    CheckFloor("traced recall_at_10", traced_totals.recall.value(),
               floors.recall_at_10, report);
    rounds = Rounds{};
    if (!untraced_loop()) return util::Status::Ok();
    // Over the two untraced loops that bracket the traced one: a loop alone
    // has too few batches for a p99.
    facts.query_p99_ms = Percentile(totals.latencies_ms, 0.99);
    facts.overhead = traced_seconds / Median(totals.loop_seconds) - 1.0;
    AddLayerMetrics(facts, report);
    totals.breakdown = traced_totals.breakdown;
  }

  for (const std::string& line : totals.breakdown) {
    report->notes.push_back(line);
  }
  report->notes.push_back(QueryTailNote(totals.latencies_ms));
  const double tuple_f1 = Median(totals.tuple_f1s);
  CheckFloor("tuple_f1", tuple_f1, floors.tuple_f1, report);
  CheckFloor("recall_at_10", totals.recall.value(), floors.recall_at_10,
             report);
  if (!options.trace) {
    report->Add("setup_s", *setup, "s");
    report->Add("run_s", Median(totals.loop_seconds), "s");
    report->Add("peak_rss_mb", totals.peak_rss_mb, "MB");
    report->Add("tuple_f1", tuple_f1, "ratio");
    // Round latencies differ up to 5x with the dead slots of the epoch, so
    // a median pooled over rounds falls between round clusters; the mean
    // of the round p50s does not jump when the rounds shift slightly.
    report->Add("query_p50_ms", Median(totals.loop_p50_ms), "ms");
    report->Add("ingest_rows_per_s",
                totals.ingest_rows / totals.ingest_seconds, "1/s");
    report->Add("recall_at_10", totals.recall.value(), "ratio");
  }
  return util::Status::Ok();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "music-2000", "shopee-20", "serve-mixed"};
  return names;
}

util::Result<Corpus> MakeCorpus(const std::string& workload, uint64_t seed) {
  if (workload == "music-2000" || workload == "shopee-20" ||
      workload == "serve-mixed") {
    auto data = datagen::MakeDataset(
        workload == "music-2000" ? "music-2000" : "shopee", 1.0, seed);
    if (!data.ok()) return data.status();
    return Corpus{std::move(data->tables), std::move(data->truth)};
  }
  return util::Status::NotFound("unknown workload '" + workload + "'");
}

core::MultiEmConfig MakeConfig(const std::string& workload, size_t threads) {
  core::MultiEmConfig config;
  // The tuned Fig-5 settings: k=1, MinPts=2, r=0.2, eps=1.0, gamma=0.9; the
  // confusable shopee titles need the tighter m.
  config.k = 1;
  config.min_pts = 2;
  config.sample_ratio = 0.2;
  config.eps = 1.0f;
  config.gamma = 0.9;
  config.m = workload == "music-2000" ? 0.5f : 0.35f;
  config.num_threads = threads;
  return config;
}

util::Result<core::MultiEmPipeline> BuildPipeline(
    const core::MultiEmConfig& config, bool traced) {
  core::PipelineBuilder builder(config);
  if (traced) {
    auto encoder = core::TextEncoders().Create(config.encoder_name, config);
    if (!encoder.ok()) return encoder.status();
    auto factory = core::IndexFactories().Create(
        config.effective_index_name(), config);
    if (!factory.ok()) return factory.status();
    auto pruner = core::Pruners().Create(config.pruner_name, config);
    if (!pruner.ok()) return pruner.status();
    builder.WithEncoder(std::make_unique<TracedEncoder>(std::move(*encoder)))
        .WithIndexFactory(
            std::make_unique<TracedIndexFactory>(std::move(*factory)))
        .WithPruner(std::make_unique<TracedPruner>(std::move(*pruner)));
  }
  return builder.Build();
}

std::vector<std::string> CheckTuples(const std::vector<eval::Tuple>& tuples) {
  std::vector<std::string> problems;
  std::unordered_set<uint64_t> seen;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (tuples[i].size() < 2) {
      problems.push_back("tuple " + std::to_string(i) + " has " +
                         std::to_string(tuples[i].size()) + " member(s)");
    }
    for (const table::EntityId& id : tuples[i]) {
      if (!seen.insert(id.packed()).second) {
        problems.push_back("entity " + id.ToString() +
                           " appears in two tuples");
      }
    }
    if (problems.size() >= 10) break;  // enough to diagnose
  }
  return problems;
}

void Report::Attempt(const util::Status& status, const std::string& what) {
  ++attempted;
  if (!status.ok()) {
    ++failed;
    problems.push_back(what + " failed: " + status.ToString());
  }
}

util::Result<Report> RunWorkload(const RunOptions& options) {
  Report report;
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) ==
      names.end()) {
    return util::Status::NotFound("unknown workload '" + options.workload +
                                  "'");
  }
  util::Status status = IsBatch(options.workload)
                            ? MeasureBatch(options, &report)
                            : MeasureServe(options, &report);
  if (!status.ok()) return status;
  if (options.trace && !options.trace_path.empty() &&
      !Trace::Global().WriteChromeTrace(options.trace_path)) {
    report.notes.push_back("could not write " + options.trace_path);
  }
  return report;
}

}  // namespace perfbench
