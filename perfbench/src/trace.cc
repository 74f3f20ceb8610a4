#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/// Small dense thread ids for the trace viewer's rows.
int ThreadId() {
  static std::atomic<int> next{1};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

Trace& Trace::Global() {
  static Trace* trace = new Trace();  // never destroyed: pool threads may
                                      // still hold slots at exit
  return *trace;
}

double Trace::Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

Trace::ThreadSlots& Trace::Local() {
  thread_local ThreadSlots* local = nullptr;
  if (local == nullptr) {
    auto slots = std::make_unique<ThreadSlots>();
    local = slots.get();
    std::lock_guard<std::mutex> lock(mu_);
    slots_.push_back(std::move(slots));
  }
  return *local;
}

void Trace::Add(Counter counter, double value) {
  // Each slot has a single writer (its thread), so load + store suffices.
  std::atomic<double>& slot =
      Local().values[static_cast<int>(stage())][static_cast<int>(counter)];
  slot.store(slot.load(std::memory_order_relaxed) + value,
             std::memory_order_relaxed);
}

Totals Trace::Snapshot() const {
  Totals totals;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slots : slots_) {
    for (int s = 0; s < Totals::kStages; ++s) {
      for (int c = 0; c < Totals::kCounters; ++c) {
        totals.values[s][c] +=
            slots->values[s][c].load(std::memory_order_relaxed);
      }
    }
  }
  totals.peak_index_bytes = peak_index_bytes_.load(std::memory_order_relaxed);
  return totals;
}

double Totals::Get(Counter counter) const {
  double total = 0.0;
  for (int s = 0; s < kStages; ++s) {
    total += values[s][static_cast<int>(counter)];
  }
  return total;
}

void Trace::Span(std::string name, const char* category, double start,
                 double end, std::string args) {
  SpanRecord record{std::move(name), category, start, end, ThreadId(),
                    std::move(args)};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

void Trace::AddIndexBytes(int64_t delta) {
  const int64_t live =
      live_index_bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
  int64_t peak = peak_index_bytes_.load(std::memory_order_relaxed);
  while (live > peak && !peak_index_bytes_.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void Trace::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slots : slots_) {
    for (auto& row : slots->values) {
      for (auto& value : row) value.store(0.0, std::memory_order_relaxed);
    }
  }
  // Indexes that outlive the reset (a serving session's) stay counted as
  // live; only the high-water mark restarts from them.
  peak_index_bytes_.store(live_index_bytes_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
}

bool Trace::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fputs("{\"name\": ", f);
    WriteJsonString(f, s.name);
    std::fprintf(f,
                 ", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {%s}}%s\n",
                 s.category, s.start * 1e6,
                 std::max(0.0, s.end - s.start) * 1e6, s.tid, s.args.c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
