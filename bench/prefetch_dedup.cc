// Cross-session prefetch dedup: the shared PrefetchScheduler (one
// process-wide queue merging overlapping predictions) at 4/16/64
// overlapping sessions.
//
// Every session replays the SAME study trace — N distinct users making the
// same exploration, the workload where filling each session's region on its
// own would fetch every tile N times. The shared cache is deliberately small
// and TinyLFU-filtered: the scheduler's merged fills carry the AGGREGATE
// confidence and the whole group's frequency signal, so one fetch lands,
// admits, and serves everyone. Measured: DBMS fills issued, predictions
// merged and retired without a fetch of their own, useful-prefetch hit rate
// (requests served from middleware memory), and req/sec.
//
// Emits BENCH_prefetch_dedup.json; CI gates on balanced books and real
// dedup savings at every point, and on merged predictions at 16 sessions.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "server/session.h"
#include "storage/tile_store.h"

#include "bench_common.h"

using namespace fc;

namespace {

struct RunResult {
  std::uint64_t total_requests = 0;
  double requests_per_sec = 0.0;
  /// Useful-prefetch hit rate: fraction of requests served from middleware
  /// memory (private regions or shared cache) instead of the DBMS.
  double hit_rate = 0.0;
  std::uint64_t dbms_fetches = 0;
  core::PrefetchSchedulerStats scheduler;
  bool books_balance = false;
};

RunResult RunSessions(const sim::Study& study,
                      const bench::TrainedComponents& trained,
                      std::size_t num_sessions) {
  SimClock clock;
  array::QueryCostModel costs(array::CalibratedPaperCosts(), 5);
  storage::SimulatedDbmsStore store(study.dataset.pyramid, costs, &clock);

  const server::SharedPredictionComponents shared = trained.Shared(5);

  constexpr std::size_t kThreads = 8;
  server::SessionManagerOptions options;
  options.executor_threads = kThreads;
  options.use_shared_cache = true;
  // Small and admission-filtered ON PURPOSE (see file comment): the point
  // is what merging does under memory pressure, not how a big cache hides
  // the duplicate fetches.
  options.shared_cache.l1_bytes =
      32 * study.dataset.pyramid->NominalTileBytes();
  options.shared_cache.num_shards = 4;
  options.shared_cache.admission.policy = core::AdmissionPolicyKind::kTinyLfu;
  options.shared_cache.admission.sketch_counters = 1024;
  server::SessionManager manager(&store, &clock, shared, options);

  // Every session replays the same trace: maximal prediction overlap.
  const core::Trace& trace = study.traces.front();
  std::vector<server::SessionManager::SessionWorkload> workloads;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    workloads.push_back(
        {"s" + std::to_string(s), [&trace](server::BrowserSession* session) {
           FC_RETURN_IF_ERROR(session->Open().status());
           session->WaitForPrefetch();
           for (std::size_t i = 1; i < trace.records.size(); ++i) {
             if (!trace.records[i].request.move.has_value()) continue;
             auto served = session->ApplyMove(*trace.records[i].request.move);
             (void)served;  // border rejections are fine during replay
             session->WaitForPrefetch();
           }
           return Status::OK();
         }});
  }

  auto start = std::chrono::steady_clock::now();
  auto status =
      manager.RunSessions(workloads, std::min(kThreads, num_sessions));
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  if (!status.ok()) {
    std::cerr << "ERROR: " << status << "\n";
    return {};
  }

  RunResult result;
  std::uint64_t hits = 0;
  for (const auto& workload : workloads) {
    auto server = manager.ServerFor(workload.session_id);
    if (!server.ok()) continue;
    result.total_requests += (*server)->cache_manager().requests();
    hits += (*server)->cache_manager().cache_hits();
  }
  result.requests_per_sec =
      elapsed > 0 ? static_cast<double>(result.total_requests) / elapsed : 0.0;
  result.hit_rate = result.total_requests == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(result.total_requests);
  result.dbms_fetches = store.fetch_count();
  result.scheduler = manager.prefetch_scheduler()->Stats();
  // Drained queue (every workload waited out its fills): the retirement
  // accounting must balance exactly.
  result.books_balance =
      result.scheduler.fills_issued + result.scheduler.dedup_saved_fetches ==
      result.scheduler.predictions_published;
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Cross-session prefetch dedup — shared scheduler merging fills",
      "Khameleon-style server-side scheduling over Battle et al. sec. 6.2");
  const auto& study = bench::GetStudy();

  const bench::TrainedComponents trained = bench::TrainComponents(study);

  eval::TablePrinter table({"Sessions", "Requests", "Req/sec", "Hit rate",
                            "DBMS fills", "Fills issued", "Merged",
                            "Dedup saved", "Stale drops"});
  auto results = JsonValue::Array();
  bool pass = true;
  for (std::size_t sessions : {4u, 16u, 64u}) {
    const RunResult run = RunSessions(study, trained, sessions);
    const core::PrefetchSchedulerStats& stats = run.scheduler;
    table.AddRow({std::to_string(sessions), std::to_string(run.total_requests),
                  eval::TablePrinter::Num(run.requests_per_sec, 0),
                  bench::Pct(run.hit_rate), std::to_string(run.dbms_fetches),
                  std::to_string(stats.fills_issued),
                  std::to_string(stats.merged_predictions),
                  std::to_string(stats.dedup_saved_fetches),
                  std::to_string(stats.stale_drops)});

    // The accounting invariant and a dedup signal must hold everywhere;
    // at 16 overlapping sessions predictions must actually merge.
    if (!run.books_balance || stats.dedup_saved_fetches == 0) pass = false;
    if (sessions == 16 && stats.merged_predictions == 0) pass = false;

    auto row = JsonValue::Object();
    row.Set("sessions", sessions);
    row.Set("total_requests", run.total_requests);
    row.Set("requests_per_sec", run.requests_per_sec);
    row.Set("hit_rate", run.hit_rate);
    row.Set("dbms_fetches", run.dbms_fetches);
    row.Set("predictions_published", stats.predictions_published);
    row.Set("merged_predictions", stats.merged_predictions);
    row.Set("already_resident", stats.already_resident);
    row.Set("fills_issued", stats.fills_issued);
    row.Set("dedup_saved_fetches", stats.dedup_saved_fetches);
    row.Set("stale_drops", stats.stale_drops);
    row.Set("deliveries", stats.deliveries);
    row.Set("max_queue_depth", stats.max_queue_depth);
    row.Set("books_balance", run.books_balance);
    results.Push(std::move(row));
  }
  table.Print();

  auto report = JsonValue::Object();
  report.Set("bench", "prefetch_dedup");
  report.Set("fast_mode", bench::FastBench());
  report.Set("pass", pass);
  report.Set("results", std::move(results));
  const std::string json_path = "BENCH_prefetch_dedup.json";
  if (auto status = WriteJsonFile(json_path, report); !status.ok()) {
    std::cerr << "ERROR writing " << json_path << ": " << status << "\n";
    return 1;
  }
  std::cout << "\nWrote " << json_path << "\n";

  std::cout << "\nWith every session predicting the same tiles, the shared\n"
            << "scheduler collapses N ranked lists into one fill per tile,\n"
            << "priority-admitted on aggregate confidence; merged\n"
            << "predictions retire without a DBMS fill of their own. "
            << (pass ? "PASS\n" : "FAIL\n");
  return pass ? 0 : 1;
}
