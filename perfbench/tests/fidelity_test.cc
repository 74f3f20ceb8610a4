// Wrapper-fidelity test of the benchmark: the forwarding wrappers a traced
// run injects must not change what the library computes.
//
//  * Each wrapper forwards a call to the same method of the wrapped
//    component (Search to Search, SearchWithStats to SearchWithStats), wraps
//    Clone() results, and passes kind / Save / MemoryUsage / dim through.
//  * At num_threads = 1 (serial runs are deterministic) a wrapped pipeline
//    gives bit-identical tuples to an unwrapped one on music-2000 and
//    shopee-20.
//
// Run: ctest --test-dir .bench_build (after building perfbench/), or the
// perfbench_fidelity_test binary directly. Exits non-zero on any failure.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ann/hnsw.h"
#include "core/registry.h"
#include "util/rng.h"
#include "workloads.h"
#include "wrappers.h"

namespace {

using namespace perfbench;  // NOLINT: test-local brevity

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

/// Records which methods were called; returns fixed values.
class SpyIndex final : public ann::VectorIndex {
 public:
  struct Calls {
    int add = 0;
    int search = 0;
    int search_with_stats = 0;
    int clone = 0;
    std::string saved_to;
  };

  explicit SpyIndex(std::shared_ptr<Calls> calls) : calls_(std::move(calls)) {}

  void Add(std::span<const float>) override { ++calls_->add; }
  std::vector<ann::Neighbor> Search(std::span<const float>,
                                    size_t) const override {
    ++calls_->search;
    return {{3, 0.25f}};
  }
  std::vector<ann::Neighbor> SearchWithStats(
      std::span<const float>, size_t, size_t,
      ann::SearchStats* stats) const override {
    ++calls_->search_with_stats;
    if (stats != nullptr) *stats = {5, 9};
    return {{4, 0.5f}};
  }
  std::unique_ptr<ann::VectorIndex> Clone() const override {
    ++calls_->clone;
    return std::make_unique<SpyIndex>(calls_);
  }
  size_t size() const override { return 11; }
  size_t dim() const override { return 7; }
  size_t SizeBytes() const override { return 600; }
  ann::MemoryBreakdown MemoryUsage() const override { return {100, 200, 300}; }
  ann::Metric metric() const override { return ann::Metric::kCosine; }
  std::string_view kind() const override { return "spy"; }
  util::Status Save(const std::string& path) const override {
    calls_->saved_to = path;
    return util::Status::Ok();
  }

 private:
  std::shared_ptr<SpyIndex::Calls> calls_;
};

void TestIndexForwarding() {
  auto calls = std::make_shared<SpyIndex::Calls>();
  TracedIndex wrapped(std::make_unique<SpyIndex>(calls));
  const std::vector<float> query(7, 1.0f);

  const auto hits = wrapped.Search(query, 1);
  Expect(calls->search == 1 && calls->search_with_stats == 0,
         "Search forwards to Search");
  Expect(hits.size() == 1 && hits[0].id == 3, "Search returns the result");

  ann::SearchStats stats;
  const auto stat_hits = wrapped.SearchWithStats(query, 1, 0, &stats);
  Expect(calls->search == 1 && calls->search_with_stats == 1,
         "SearchWithStats forwards to SearchWithStats");
  Expect(stat_hits.size() == 1 && stat_hits[0].id == 4 &&
             stats.visited == 5 && stats.distance_evals == 9,
         "SearchWithStats returns the result and the counters");

  std::unique_ptr<ann::VectorIndex> copy = wrapped.Clone();
  Expect(calls->clone == 1, "Clone forwards to Clone");
  Expect(dynamic_cast<TracedIndex*>(copy.get()) != nullptr,
         "Clone result is wrapped");

  Expect(wrapped.kind() == "spy", "kind passes through");
  Expect(wrapped.dim() == 7 && wrapped.size() == 11, "dim/size pass through");
  const ann::MemoryBreakdown usage = wrapped.MemoryUsage();
  Expect(usage.fp32_bytes == 100 && usage.quantized_bytes == 200 &&
             usage.graph_bytes == 300 && wrapped.SizeBytes() == 600,
         "MemoryUsage/SizeBytes pass through");
  Expect(wrapped.Save("somewhere").ok() && calls->saved_to == "somewhere",
         "Save passes through");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Real components: identical answers and identical saved bytes.
void TestRealComponents() {
  core::MultiEmConfig config = MakeConfig("shopee-20", 1);
  config.embedding_dim = 32;
  auto plain_factory =
      core::IndexFactories().Create(config.effective_index_name(), config);
  auto inner_factory =
      core::IndexFactories().Create(config.effective_index_name(), config);
  Expect(plain_factory.ok() && inner_factory.ok(), "index factory resolves");
  if (!plain_factory.ok() || !inner_factory.ok()) return;
  TracedIndexFactory traced_factory(std::move(*inner_factory));

  embed::EmbeddingMatrix vectors(300, config.embedding_dim);
  util::Rng rng(11);
  for (size_t r = 0; r < vectors.num_rows(); ++r) {
    for (float& x : vectors.Row(r)) {
      x = static_cast<float>(rng.UniformDouble()) - 0.5f;
    }
  }
  auto plain = (*plain_factory)->Create(vectors.dim(), ann::Metric::kCosine);
  auto traced = traced_factory.Create(vectors.dim(), ann::Metric::kCosine);
  plain->AddBatch(vectors);
  traced->AddBatch(vectors);
  std::unique_ptr<ann::VectorIndex> traced_clone = traced->Clone();
  bool same = traced_clone != nullptr;
  for (size_t r = 0; same && r < vectors.num_rows(); r += 7) {
    same = plain->Search(vectors.Row(r), 5) == traced->Search(vectors.Row(r), 5) &&
           plain->Search(vectors.Row(r), 5) ==
               traced_clone->Search(vectors.Row(r), 5);
  }
  Expect(same, "wrapped HNSW (and its clone) answers like the unwrapped one");
  Expect(plain->Save("fidelity_plain.index").ok() &&
             traced->Save("fidelity_traced.index").ok() &&
             ReadFile("fidelity_plain.index") ==
                 ReadFile("fidelity_traced.index"),
         "wrapped HNSW saves the same bytes");

  auto plain_encoder = core::TextEncoders().Create(config.encoder_name, config);
  auto inner_encoder = core::TextEncoders().Create(config.encoder_name, config);
  Expect(plain_encoder.ok() && inner_encoder.ok(), "encoder resolves");
  if (!plain_encoder.ok() || !inner_encoder.ok()) return;
  TracedEncoder traced_encoder(std::move(*inner_encoder));
  const std::vector<std::string> corpus = {"apple iphone 8 plus 64gb",
                                           "samsung galaxy s9 black",
                                           "google pixel 3 xl"};
  (*plain_encoder)->FitCorpus(corpus);
  traced_encoder.FitCorpus(corpus);
  std::unique_ptr<embed::TextEncoder> encoder_clone = traced_encoder.Clone();
  Expect(dynamic_cast<TracedEncoder*>(encoder_clone.get()) != nullptr,
         "encoder Clone result is wrapped");
  Expect(traced_encoder.kind() == (*plain_encoder)->kind() &&
             traced_encoder.dim() == (*plain_encoder)->dim(),
         "encoder kind/dim pass through");
  Expect((*plain_encoder)->Encode("pixel 3 xl") ==
                 traced_encoder.Encode("pixel 3 xl") &&
             (*plain_encoder)->Encode("pixel 3 xl") ==
                 encoder_clone->Encode("pixel 3 xl"),
         "wrapped encoder (and its clone) embeds like the unwrapped one");
  Expect((*plain_encoder)->Save("fidelity_plain.encoder").ok() &&
             traced_encoder.Save("fidelity_traced.encoder").ok() &&
             ReadFile("fidelity_plain.encoder") ==
                 ReadFile("fidelity_traced.encoder"),
         "wrapped encoder saves the same bytes");
  for (const char* path :
       {"fidelity_plain.index", "fidelity_traced.index",
        "fidelity_plain.encoder", "fidelity_traced.encoder"}) {
    std::filesystem::remove(path);
  }
}

/// Serial wrapped and unwrapped runs give the same tuples, bit for bit. The
/// two runs are independent, so they run side by side.
void TestPipelineFidelity(const std::string& workload) {
  auto corpus = MakeCorpus(workload, 0);
  Expect(corpus.ok(), workload + ": corpus builds");
  if (!corpus.ok()) return;
  const core::MultiEmConfig config = MakeConfig(workload, 1);
  auto plain = BuildPipeline(config, /*traced=*/false);
  auto traced = BuildPipeline(config, /*traced=*/true);
  Expect(plain.ok() && traced.ok(), workload + ": pipelines build");
  if (!plain.ok() || !traced.ok()) return;

  core::PipelineResult plain_result;
  core::PipelineResult traced_result;
  util::Status plain_status;
  util::Status traced_status;
  PhaseObserver observer;
  std::thread plain_run([&] {
    plain_status = plain->Run(corpus->tables, core::RunContext{},
                              &plain_result);
  });
  core::RunContext ctx;
  ctx.observer = &observer;
  traced_status = traced->Run(corpus->tables, ctx, &traced_result);
  plain_run.join();

  Expect(plain_status.ok() && traced_status.ok(), workload + ": runs succeed");
  Expect(plain_result.tuples == traced_result.tuples,
         workload + ": wrapped run gives bit-identical tuples (" +
             std::to_string(plain_result.tuples.size()) + " vs " +
             std::to_string(traced_result.tuples.size()) + ")");
  Expect(CheckTuples(traced_result.tuples).empty(),
         workload + ": tuples are well formed");
  std::printf("%s: %zu tuples at 1 thread, wrapped and unwrapped\n",
              workload.c_str(), traced_result.tuples.size());
}

}  // namespace

int main() {
  TestIndexForwarding();
  TestRealComponents();
  TestPipelineFidelity("shopee-20");
  TestPipelineFidelity("music-2000");
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
