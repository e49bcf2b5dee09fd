// In-memory span recording for the traced benchmark run, plus the wrappers
// that time calls into each layer's public interface from outside the
// serving stack: the backend store (storage.fetch), the AB and SB
// recommenders (predict.ab / predict.sb) and the allocation strategy
// (alloc). The driver opens the `request` and `wait_prefetch` spans itself.
//
// Spans are stamped on std::chrono::steady_clock (wall) and on the calling
// thread's CPU clock, so a layer's cost shows both as time and as CPU. Each
// thread appends to its own buffer; nothing is written out until the run
// ends. Nesting is tracked per thread: a span opened while another is open
// on the same thread becomes its child and inherits its request id. Work
// on executor threads has no enclosing span and records as a root span of
// request 0 (background work).

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/recommender.h"
#include "storage/tile_store.h"

namespace perfbench {

struct Span {
  const char* name = "";       ///< Static string.
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    ///< 0: no enclosing span on this thread.
  std::uint64_t request = 0;   ///< 0: background work.
  std::int64_t start_ns = 0;   ///< steady_clock.
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;     ///< Thread CPU consumed inside the span.
  std::uint32_t items = 0;     ///< Keys per storage call; 0 elsewhere.
};

/// Collects the spans of one traced round. At most one recorder is live at
/// a time; a thread's buffer is re-registered when a new recorder starts.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Every recorded span. Call only once no thread is still recording.
  std::vector<Span> Collect() const;

  /// Appends to the calling thread's buffer.
  void Record(const Span& span);

  /// Mints a request id for a driver-opened `request` span.
  std::uint64_t NewRequestId();

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  const std::uint64_t generation_;
  std::atomic<std::uint64_t> next_request_{0};
  mutable std::mutex mu_;  ///< Guards buffers_ (registration only).
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span on the calling thread. Inert when `recorder` is null.
class ScopedSpan {
 public:
  /// `request` 0 inherits the enclosing span's request id.
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::uint64_t request = 0, std::uint32_t items = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  Span span_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_request_ = 0;
};

/// Backend store wrapper: one storage.fetch span per Fetch / FetchBatch.
class TracedStore : public fc::storage::TileStore {
 public:
  TracedStore(fc::storage::TileStore* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  fc::Result<fc::tiles::TilePtr> Fetch(const fc::tiles::TileKey& key) override;
  std::vector<fc::Result<fc::tiles::TilePtr>> FetchBatch(
      const std::vector<fc::tiles::TileKey>& keys) override;
  bool Contains(const fc::tiles::TileKey& key) const override {
    return inner_->Contains(key);
  }
  const fc::tiles::PyramidSpec& spec() const override { return inner_->spec(); }
  std::uint64_t fetch_count() const override { return inner_->fetch_count(); }
  std::uint64_t query_count() const override { return inner_->query_count(); }

 private:
  fc::storage::TileStore* inner_;
  SpanRecorder* recorder_;
};

/// Recommender wrapper: one span per Recommend, named `span_name`.
class TracedRecommender : public fc::core::Recommender {
 public:
  TracedRecommender(const fc::core::Recommender* inner, const char* span_name,
                    SpanRecorder* recorder)
      : inner_(inner), span_name_(span_name), recorder_(recorder) {}

  std::string_view name() const override { return inner_->name(); }
  fc::Result<fc::core::RankedTiles> Recommend(
      const fc::core::PredictionContext& ctx) const override;

 private:
  const fc::core::Recommender* inner_;
  const char* span_name_;
  SpanRecorder* recorder_;
};

/// Allocation-strategy wrapper: one `alloc` span per Allocate.
class TracedAllocation : public fc::core::AllocationStrategy {
 public:
  TracedAllocation(const fc::core::AllocationStrategy* inner,
                   SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  std::string_view name() const override { return inner_->name(); }
  fc::core::Allocation Allocate(fc::core::AnalysisPhase phase,
                                std::size_t k) const override;

 private:
  const fc::core::AllocationStrategy* inner_;
  SpanRecorder* recorder_;
};

/// Per-name totals over one round's spans.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t items = 0;

  SpanTotals& operator+=(const SpanTotals& other);
};

/// What the rollup needs from one traced round.
struct SpanSummary {
  SpanTotals request, predict_ab, predict_sb, alloc, wait_prefetch;
  SpanTotals storage_request_path;  ///< storage.fetch under a request span.
  SpanTotals storage_background;    ///< storage.fetch on executor threads.
  /// Request wall time not covered by the request's child spans.
  std::int64_t request_self_ns = 0;
  /// Wall time of each wait_prefetch span (for percentiles).
  std::vector<double> wait_prefetch_us;

  /// Adds another round's summary.
  SpanSummary& operator+=(const SpanSummary& other);
};

SpanSummary Summarize(const std::vector<Span>& spans);

/// Writes `spans` as CSV (name,id,parent,request,start_ns,end_ns,cpu_ns,
/// items), start times relative to the earliest span.
fc::Status WriteSpansCsv(const std::string& path, const std::vector<Span>& spans);

/// Thread CPU time of the calling thread, in ns.
std::int64_t ThreadCpuNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
