#include "tracing.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_next_generation{1};
std::atomic<std::uint64_t> g_next_span_id{1};

/// The calling thread's buffer in the recorder of `generation`.
struct ThreadSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

/// The innermost open span on this thread and its request id.
thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_request = 0;

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Add(SpanTotals* totals, const Span& span) {
  *totals += SpanTotals{1, span.end_ns - span.start_ns, span.cpu_ns, span.items};
}

}  // namespace

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

SpanRecorder::SpanRecorder()
    : generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

SpanRecorder::Buffer* SpanRecorder::ThreadBuffer() {
  if (t_slot.generation != generation_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(4096);
    std::lock_guard<std::mutex> lock(mu_);
    t_slot.buffer = buffer.get();
    t_slot.generation = generation_;
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<Buffer*>(t_slot.buffer);
}

void SpanRecorder::Record(const Span& span) { ThreadBuffer()->spans.push_back(span); }

std::uint64_t SpanRecorder::NewRequestId() {
  return next_request_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       std::uint64_t request, std::uint32_t items)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.name = name;
  span_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current_span;
  span_.request = request != 0 ? request : t_current_request;
  span_.items = items;
  saved_parent_ = t_current_span;
  saved_request_ = t_current_request;
  t_current_span = span_.id;
  t_current_request = span_.request;
  span_.cpu_ns = ThreadCpuNs();
  span_.start_ns = SteadyNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = SteadyNs();
  span_.cpu_ns = ThreadCpuNs() - span_.cpu_ns;
  t_current_span = saved_parent_;
  t_current_request = saved_request_;
  recorder_->Record(span_);
}

fc::Result<fc::tiles::TilePtr> TracedStore::Fetch(const fc::tiles::TileKey& key) {
  ScopedSpan span(recorder_, "storage.fetch", 0, 1);
  return inner_->Fetch(key);
}

std::vector<fc::Result<fc::tiles::TilePtr>> TracedStore::FetchBatch(
    const std::vector<fc::tiles::TileKey>& keys) {
  ScopedSpan span(recorder_, "storage.fetch", 0,
                  static_cast<std::uint32_t>(keys.size()));
  return inner_->FetchBatch(keys);
}

fc::Result<fc::core::RankedTiles> TracedRecommender::Recommend(
    const fc::core::PredictionContext& ctx) const {
  ScopedSpan span(recorder_, span_name_);
  return inner_->Recommend(ctx);
}

fc::core::Allocation TracedAllocation::Allocate(fc::core::AnalysisPhase phase,
                                                std::size_t k) const {
  ScopedSpan span(recorder_, "alloc");
  return inner_->Allocate(phase, k);
}

SpanTotals& SpanTotals::operator+=(const SpanTotals& other) {
  count += other.count;
  wall_ns += other.wall_ns;
  cpu_ns += other.cpu_ns;
  items += other.items;
  return *this;
}

SpanSummary& SpanSummary::operator+=(const SpanSummary& other) {
  request += other.request;
  predict_ab += other.predict_ab;
  predict_sb += other.predict_sb;
  alloc += other.alloc;
  wait_prefetch += other.wait_prefetch;
  storage_request_path += other.storage_request_path;
  storage_background += other.storage_background;
  request_self_ns += other.request_self_ns;
  wait_prefetch_us.insert(wait_prefetch_us.end(), other.wait_prefetch_us.begin(),
                          other.wait_prefetch_us.end());
  return *this;
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary summary;
  // Direct children of one request run on the request's thread one after
  // another, so their durations never overlap and sum to the covered time.
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  std::unordered_map<std::uint64_t, std::int64_t> request_ns;
  for (const Span& span : spans) {
    const std::string_view name = span.name;
    const std::int64_t wall = span.end_ns - span.start_ns;
    if (name == "request") {
      Add(&summary.request, span);
      request_ns[span.id] = wall;
      continue;
    }
    if (span.parent != 0) child_ns[span.parent] += wall;
    if (name == "predict.ab") {
      Add(&summary.predict_ab, span);
    } else if (name == "predict.sb") {
      Add(&summary.predict_sb, span);
    } else if (name == "alloc") {
      Add(&summary.alloc, span);
    } else if (name == "wait_prefetch") {
      Add(&summary.wait_prefetch, span);
      summary.wait_prefetch_us.push_back(static_cast<double>(wall) / 1e3);
    } else if (name == "storage.fetch") {
      Add(span.parent != 0 ? &summary.storage_request_path
                           : &summary.storage_background,
          span);
    }
  }
  for (const auto& [id, wall] : request_ns) {
    auto it = child_ns.find(id);
    summary.request_self_ns += wall - (it == child_ns.end() ? 0 : it->second);
  }
  return summary;
}

fc::Status WriteSpansCsv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return fc::Status::IoError("cannot open " + path);
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  out << "name,id,parent,request,start_ns,end_ns,cpu_ns,items\n";
  for (const Span& span : spans) {
    out << span.name << ',' << span.id << ',' << span.parent << ','
        << span.request << ',' << span.start_ns - origin << ','
        << span.end_ns - origin << ',' << span.cpu_ns << ',' << span.items
        << '\n';
  }
  out.close();
  if (!out) return fc::Status::IoError("write failed: " + path);
  return fc::Status::OK();
}

}  // namespace perfbench
