#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <random>
#include <thread>

#include "array/cost_model.h"
#include "core/prefetch_scheduler.h"
#include "core/shared_tile_cache.h"
#include "core/stream_scheduler.h"
#include "common/sim_clock.h"
#include "server/session.h"
#include "storage/tile_store.h"

namespace perfbench {
namespace {

using fc::Result;
using fc::Status;

// Nominal tiles of the 341-tile study pyramid. explore_cold keeps about a
// fifth of the working set in memory (L1 plus lossless L2), so misses and
// evictions dominate; the 64-session workloads hold all of it.
const WorkloadConfig kWorkloads[] = {
    {"explore_cold", 18, 32, 32, 1, false, false},
    {"crowd_64", 64, 512, 0, 8, true, false},
    {"stream_64", 64, 512, 0, 8, true, true},
};

constexpr std::size_t kDriverThreads = 2;
constexpr std::size_t kExecutorThreads = 2;
constexpr std::size_t kMaxLoggedErrors = 8;

// The SVM's cost per call grows with its training rows, and a 6-user
// study's record count ranges from about 1,000 to 2,200 by seed. A fixed
// sample keeps the classifier's size, and so its share of request CPU,
// from following the seed.
constexpr std::size_t kClassifierTrainingRows = 1000;

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// One driver thread's share of a round.
struct DriverOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t hits = 0;
  std::vector<double> serve_us;
  std::vector<double> serve_cpu_us;
  double latency_ms_sum = 0.0;
  double miss_latency_ms_sum = 0.0;
  std::vector<std::string> errors;
};

/// A session's replay position.
struct Cursor {
  std::string session_id;
  const fc::core::Trace* trace = nullptr;
  std::size_t next = 0;              ///< Index of the next record to send.
  std::uint64_t last_request = 0;    ///< Span request id of the last send.
};

void Fail(DriverOutput* out, std::string message) {
  ++out->failed;
  if (out->errors.size() < kMaxLoggedErrors) out->errors.push_back(std::move(message));
}

/// Replays `cursors` round-robin until every trace is exhausted.
void Drive(fc::server::SessionManager* manager, const fc::tiles::TilePyramid& pyramid,
           std::vector<Cursor> cursors, SpanRecorder* recorder, DriverOutput* out) {
  std::size_t active = cursors.size();
  while (active > 0) {
    for (Cursor& cursor : cursors) {
      const auto& records = cursor.trace->records;
      if (cursor.next >= records.size()) continue;
      fc::server::BrowserSession* session = manager->GetOrCreate(cursor.session_id);
      if (cursor.next > 0) {
        ScopedSpan wait(recorder, "wait_prefetch", cursor.last_request);
        session->WaitForPrefetch();
      }
      const fc::core::TraceRecord& record = records[cursor.next];
      const std::uint64_t request_id = recorder != nullptr ? recorder->NewRequestId() : 0;
      const std::int64_t start_cpu_ns = ThreadCpuNs();
      const auto start = std::chrono::steady_clock::now();
      Result<fc::server::ServedRequest> served = [&]() -> Result<fc::server::ServedRequest> {
        ScopedSpan span(recorder, "request", request_id);
        if (cursor.next == 0) return session->Open();
        if (!record.request.move.has_value()) {
          return Status::InvalidArgument("trace record without a move");
        }
        return session->ApplyMove(*record.request.move);
      }();
      const auto end = std::chrono::steady_clock::now();
      const std::int64_t end_cpu_ns = ThreadCpuNs();
      ++out->attempted;
      out->serve_us.push_back(std::chrono::duration<double, std::micro>(end - start).count());
      out->serve_cpu_us.push_back(static_cast<double>(end_cpu_ns - start_cpu_ns) / 1e3);
      cursor.last_request = request_id;
      ++cursor.next;

      auto where = [&cursor] {
        return cursor.session_id + " request " + std::to_string(cursor.next - 1);
      };
      if (!served.ok()) {
        Fail(out, where() + ": " + served.status().ToString());
      } else if (served->tile == nullptr || served->tile->key() != record.request.tile) {
        Fail(out, where() + ": served the wrong tile, expected " +
                      record.request.tile.ToString());
      } else {
        auto reference = pyramid.GetTile(record.request.tile);
        if (!reference.ok() || (served->tile != *reference &&
                                !SameTile(*served->tile, **reference))) {
          Fail(out, where() + ": tile " + record.request.tile.ToString() +
                        " differs from the pyramid");
        } else {
          out->latency_ms_sum += served->latency_ms;
          if (served->cache_hit) {
            ++out->hits;
          } else {
            out->miss_latency_ms_sum += served->latency_ms;
          }
        }
      }
      if (cursor.next == records.size()) {
        ScopedSpan wait(recorder, "wait_prefetch", cursor.last_request);
        session->WaitForPrefetch();
        --active;
      }
    }
  }
}

/// Trace index of every session: a seeded permutation of the traces,
/// cycled when there are more sessions than traces.
std::vector<std::size_t> AssignTraces(std::size_t sessions, std::size_t traces,
                                      std::uint64_t seed) {
  std::vector<std::size_t> order(traces);
  for (std::size_t i = 0; i < traces; ++i) order[i] = i;
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (std::size_t i = traces; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  std::vector<std::size_t> assignment(sessions);
  for (std::size_t s = 0; s < sessions; ++s) assignment[s] = order[s % traces];
  return assignment;
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

Result<std::unique_ptr<Trained>> Setup(std::uint64_t seed) {
  fc::sim::ModisDatasetOptions options = fc::sim::DefaultStudyDataset();
  options.terrain.width = 512;
  options.terrain.height = 512;
  options.num_levels = 5;

  auto trained = std::make_unique<Trained>();
  FC_ASSIGN_OR_RETURN(trained->dataset, fc::sim::ModisDatasetBuilder(options).Build());
  trained->sb = std::make_unique<fc::core::SbRecommender>(
      &trained->dataset.pyramid->metadata(), trained->dataset.toolbox.get());
  std::mt19937_64 seeds(seed);
  for (std::size_t k = 0; k < kStudies; ++k) {
    StudyModels study;
    study.seed = seeds();
    fc::sim::StudyOptions study_options;
    study_options.num_users = 6;
    study_options.seed = study.seed;
    FC_ASSIGN_OR_RETURN(auto generated,
                        fc::sim::RunStudyOnDataset(trained->dataset, study_options));
    study.traces = std::move(generated.traces);
    fc::core::PhaseClassifierOptions classifier_options;
    classifier_options.max_training_rows = kClassifierTrainingRows;
    FC_ASSIGN_OR_RETURN(auto classifier,
                        fc::core::PhaseClassifier::Train(study.traces, classifier_options));
    study.classifier = std::make_unique<fc::core::PhaseClassifier>(std::move(classifier));
    FC_ASSIGN_OR_RETURN(auto ab, fc::core::AbRecommender::Make());
    FC_RETURN_IF_ERROR(ab.Train(study.traces));
    study.ab = std::make_unique<fc::core::AbRecommender>(std::move(ab));
    trained->studies.push_back(std::move(study));
  }
  return trained;
}

bool SameTile(const fc::tiles::Tile& a, const fc::tiles::Tile& b) {
  if (a.key() != b.key() || a.width() != b.width() || a.height() != b.height() ||
      a.attr_names() != b.attr_names()) {
    return false;
  }
  for (std::size_t attr = 0; attr < a.num_attrs(); ++attr) {
    const auto& x = a.AttrData(attr);
    const auto& y = b.AttrData(attr);
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

RoundResult RunRound(const Trained& trained, std::size_t study_index,
                     const WorkloadConfig& workload, SpanRecorder* recorder) {
  const StudyModels& study = trained.studies[study_index];
  const auto& pyramid = trained.dataset.pyramid;
  const std::size_t tile_bytes = pyramid->NominalTileBytes();

  fc::SimClock clock;
  fc::storage::RangeCoalesceOptions coalesce;
  coalesce.enabled = workload.coalesce;
  fc::storage::SimulatedDbmsStore dbms(
      pyramid, fc::array::QueryCostModel(fc::array::CalibratedPaperCosts(), study.seed),
      &clock, coalesce);

  fc::server::SharedPredictionComponents shared;
  shared.classifier = study.classifier.get();
  shared.ab = study.ab.get();
  shared.sb = trained.sb.get();
  shared.strategy = &trained.strategy;
  fc::storage::TileStore* store = &dbms;
  std::optional<TracedStore> traced_store;
  std::optional<TracedRecommender> traced_ab, traced_sb;
  std::optional<TracedAllocation> traced_strategy;
  if (recorder != nullptr) {
    store = &traced_store.emplace(&dbms, recorder);
    shared.ab = &traced_ab.emplace(study.ab.get(), "predict.ab", recorder);
    shared.sb = &traced_sb.emplace(trained.sb.get(), "predict.sb", recorder);
    shared.strategy = &traced_strategy.emplace(&trained.strategy, recorder);
  }

  fc::server::SessionManagerOptions options;
  options.executor_threads = kExecutorThreads;
  options.shared_cache.l1_bytes = workload.l1_tiles * tile_bytes;
  options.shared_cache.l2_bytes = workload.l2_tiles * tile_bytes;
  // Lossless warm tier: every served tile must stay bit-identical.
  options.shared_cache.codec.encoding = fc::storage::TileEncoding::kRawF64;
  options.prefetch_scheduler.batch.max_batch_tiles = workload.max_batch_tiles;
  options.use_push_streaming = workload.streaming;

  RoundResult result;
  fc::server::SessionManager manager(store, &clock, shared, options);

  const std::vector<std::size_t> assignment =
      AssignTraces(workload.sessions, study.traces.size(), study.seed);
  // Longest trace first to the driver with the fewest requests so far, so
  // both drivers finish together instead of one idling through the tail.
  std::vector<std::size_t> order(workload.sessions);
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return study.traces[assignment[a]].records.size() >
           study.traces[assignment[b]].records.size();
  });
  std::vector<std::vector<Cursor>> cursors(kDriverThreads);
  std::vector<std::size_t> load(kDriverThreads, 0);
  for (std::size_t s : order) {
    Cursor cursor;
    cursor.session_id = "s" + std::to_string(s);
    cursor.trace = &study.traces[assignment[s]];
    const std::size_t d = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[d] += cursor.trace->records.size();
    cursors[d].push_back(std::move(cursor));
  }
  std::vector<DriverOutput> outputs(kDriverThreads);

  const double cpu_start = CpuSeconds();
  const auto wall_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> helpers;
    for (std::size_t d = 1; d < kDriverThreads; ++d) {
      helpers.emplace_back(Drive, &manager, std::cref(*pyramid), std::move(cursors[d]),
                           recorder, &outputs[d]);
    }
    Drive(&manager, *pyramid, std::move(cursors[0]), recorder, &outputs[0]);
    for (auto& helper : helpers) helper.join();
  }
  result.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                wall_start)
                      .count();
  result.cpu_s = CpuSeconds() - cpu_start;

  for (DriverOutput& out : outputs) {
    result.attempted += out.attempted;
    result.failed += out.failed;
    result.hits += out.hits;
    result.serve_us.insert(result.serve_us.end(), out.serve_us.begin(), out.serve_us.end());
    result.serve_cpu_us.insert(result.serve_cpu_us.end(), out.serve_cpu_us.begin(),
                               out.serve_cpu_us.end());
    result.latency_ms_sum += out.latency_ms_sum;
    result.miss_latency_ms_sum += out.miss_latency_ms_sum;
    for (auto& error : out.errors) result.errors.push_back(std::move(error));
  }

  const fc::core::SharedTileCacheStats c = manager.shared_cache()->Stats();
  const fc::core::PrefetchSchedulerStats p = manager.prefetch_scheduler()->Stats();
  const fc::core::StreamSchedulerStats st = manager.stream_scheduler() != nullptr
                                                ? manager.stream_scheduler()->Stats()
                                                : fc::core::StreamSchedulerStats{};
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  result.counters = {
      {"core.cache.hits", count(c.hits), "count/round"},
      {"core.cache.misses", count(c.misses), "count/round"},
      {"core.cache.l2_hits", count(c.l2_hits), "count/round"},
      {"core.cache.evictions", count(c.evictions), "count/round"},
      {"core.cache.demotions", count(c.demotions), "count/round"},
      {"core.cache.admission_rejects", count(c.admission_rejects), "count/round"},
      {"core.cache.encode_ns", count(c.encode_ns), "ns/round"},
      {"core.cache.decode_ns", count(c.decode_ns), "ns/round"},
      {"core.prefetch.published", count(p.predictions_published), "count/round"},
      {"core.prefetch.merged", count(p.merged_predictions), "count/round"},
      {"core.prefetch.already_resident", count(p.already_resident), "count/round"},
      {"core.prefetch.fills_issued", count(p.fills_issued), "count/round"},
      {"core.prefetch.dedup_saved", count(p.dedup_saved_fetches), "count/round"},
      {"core.prefetch.stale_drops", count(p.stale_drops), "count/round"},
      {"core.prefetch.deliveries", count(p.deliveries), "count/round"},
      {"core.prefetch.max_queue_depth", count(p.max_queue_depth), "count"},
      {"core.stream.tiles_submitted", count(st.tiles_submitted), "count/round"},
      {"core.stream.chunks_enqueued", count(st.chunks_enqueued), "count/round"},
      {"core.stream.chunks_pushed", count(st.chunks_pushed), "count/round"},
      {"core.stream.stale_dropped", count(st.stale_chunks_dropped), "count/round"},
      {"core.stream.bytes_pushed", count(st.bytes_pushed), "bytes/round"},
      {"storage.sim_ms_charged", dbms.total_query_millis(), "ms/round"},
      {"storage.chunk_scans", count(dbms.chunk_scan_count()), "count/round"},
      {"storage.singleflight_deduped", count(manager.single_flight_store()->deduped_count()),
       "count/round"},
  };

  if (p.fills_issued + p.dedup_saved_fetches != p.predictions_published) {
    ++result.violations;
    result.errors.push_back(
        "prefetch books: fills_issued " + std::to_string(p.fills_issued) +
        " + dedup_saved_fetches " + std::to_string(p.dedup_saved_fetches) +
        " != predictions_published " + std::to_string(p.predictions_published));
  }
  if (st.chunks_pushed != st.base_chunks_pushed + st.exact_chunks_pushed) {
    ++result.violations;
    result.errors.push_back("stream books: chunks_pushed " +
                            std::to_string(st.chunks_pushed) + " != base " +
                            std::to_string(st.base_chunks_pushed) + " + exact " +
                            std::to_string(st.exact_chunks_pushed));
  }
  return result;
}

}  // namespace perfbench
