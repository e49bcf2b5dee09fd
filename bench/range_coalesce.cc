// Range-coalesced batched I/O: the same cross-session batched drain
// (max_batch_tiles = 32) with and without spatial run planning, over BOTH
// real backends, at 4/16/64 overlapping sessions replaying adjacency-heavy
// pan/zoom study traces (8 sessions share each trace, staggered by thread
// timing, so the queue mixes neighborhoods along the same pan paths).
//
//  * DBMS phase — SimulatedDbmsStore with a chunk grid spanning 4x4 tiles.
//    Per-key pricing charges one chunk scan per tile even when the batch
//    covers one chunk; coalesced pricing plans Morton runs and charges each
//    run's merged extent once. Headline: chunk_scan_count.
//  * Disk phase — DiskTileStore over a packed Morton-ordered extent file.
//    Per-key reads issue one pread per tile; the vectored path issues one
//    pread per byte run. Headline: syscall_count.
//
// The coalesced configurations also open the scheduler's bounded
// adjacency window (batch.adjacency_priority_window = 0.5) so batch
// formation feeds the planners run-shaped batches — the three tentpole
// layers (pop policy, run planner, backend pricing/readv) measured
// end to end. Per-key configurations keep every default OFF and thus
// reproduce the PR 5 drain bit for bit.
//
// Emits BENCH_range_coalesce.json; CI gates on the 64-session points
// (>= 2x fewer chunk scans, >= 2x fewer read syscalls, equal-or-better
// hit rate) and on the PR 4 invariant fills_issued + dedup_saved_fetches
// == predictions_published holding everywhere.

#include <algorithm>
#include <chrono>
#include <filesystem>
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
  bool run_ok = false;  ///< False: the replay itself failed (fails the bench).
  std::uint64_t total_requests = 0;
  double hit_rate = 0.0;
  double p99_latency_ms = 0.0;
  std::uint64_t round_trips = 0;   ///< Backend FetchBatch/Fetch round trips.
  std::uint64_t tiles_fetched = 0;
  // DBMS counters (zero for disk runs).
  std::uint64_t chunk_scans = 0;
  std::uint64_t coalesced_runs = 0;
  std::uint64_t waste_cells = 0;
  // Disk counters (zero for DBMS runs).
  std::uint64_t syscalls = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t vectored_runs = 0;
  core::PrefetchSchedulerStats scheduler;
  bool books_balance = true;
};

/// The coalescing profile both backends run under: DBMS chunks span 4x4
/// tiles (SciDB chunks hold many tiles — an aligned 16-tile block is one
/// merged-extent scan) and runs may span gap cells up to 3x the requested
/// area before splitting, trading bounded over-read for fewer scans.
storage::RangeCoalesceOptions CoalesceProfile() {
  storage::RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  coalesce.chunk_tile_span = 4;
  coalesce.max_waste_ratio = 3.0;
  coalesce.max_run_tiles = 64;
  return coalesce;
}

RunResult RunSessions(const sim::Study& study,
                      const bench::TrainedComponents& trained,
                      std::size_t num_sessions, storage::TileStore* store,
                      SimClock* clock, double adjacency_window) {
  // Deeper per-move neighborhoods than the accuracy benches use: the 8
  // predicted tiles of one viewport are a spatial cluster, exactly what
  // run planning coalesces.
  const server::SharedPredictionComponents shared = trained.Shared(8);

  constexpr std::size_t kThreads = 8;
  server::SessionManagerOptions options;
  options.executor_threads = kThreads;
  options.use_shared_cache = true;
  // Same deliberately small, admission-filtered cache as bench_batch_fetch —
  // the comparison is backend work per round trip, not cache capacity.
  options.shared_cache.l1_bytes =
      32 * study.dataset.pyramid->NominalTileBytes();
  options.shared_cache.num_shards = 4;
  options.shared_cache.admission.policy = core::AdmissionPolicyKind::kTinyLfu;
  options.shared_cache.admission.sketch_counters = 1024;
  options.prefetch_scheduler.batch.max_batch_tiles = 32;
  options.prefetch_scheduler.batch.adjacency_priority_window = adjacency_window;
  options.prefetch_scheduler.nominal_tile_bytes =
      study.dataset.pyramid->NominalTileBytes();
  server::SessionManager manager(store, clock, shared, options);

  // Sessions spread across the whole study (user-major, task-minor), so the
  // scheduler's queue holds predictions around MANY live viewports at once —
  // the adjacency-heavy mix run planning is for. Identical-trace sessions
  // would dedup into a queue too shallow to ever offer the batcher a choice.
  std::vector<server::SessionManager::SessionWorkload> workloads;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    const core::Trace& trace = study.traces[(s / 8) % study.traces.size()];
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

  auto status =
      manager.RunSessions(workloads, std::min(kThreads, num_sessions));
  if (!status.ok()) {
    std::cerr << "ERROR: " << status << "\n";
    return {};  // run_ok stays false: the bench must fail, not zero-pass
  }

  RunResult result;
  result.run_ok = true;
  std::uint64_t hits = 0;
  std::vector<double> latencies;
  for (const auto& workload : workloads) {
    auto server = manager.ServerFor(workload.session_id);
    if (!server.ok()) continue;
    result.total_requests += (*server)->cache_manager().requests();
    hits += (*server)->cache_manager().cache_hits();
    const auto& log = (*server)->latency_log();
    latencies.insert(latencies.end(), log.begin(), log.end());
  }
  result.hit_rate = result.total_requests == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(result.total_requests);
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    result.p99_latency_ms =
        latencies[static_cast<std::size_t>(0.99 * (latencies.size() - 1))];
  }
  result.round_trips = store->query_count();
  result.tiles_fetched = store->fetch_count();
  if (const auto* scheduler = manager.prefetch_scheduler()) {
    result.scheduler = scheduler->Stats();
    result.books_balance =
        result.scheduler.fills_issued + result.scheduler.dedup_saved_fetches ==
        result.scheduler.predictions_published;
  }
  return result;
}

/// One DBMS replay: a fresh store per run so counters and the jitter RNG
/// start identically in both modes.
RunResult RunDbms(const sim::Study& study,
                  const bench::TrainedComponents& trained,
                  std::size_t num_sessions, bool coalesced) {
  SimClock clock;
  array::QueryCostModel costs(array::CalibratedPaperCosts(), 5);
  storage::SimulatedDbmsStore store(
      study.dataset.pyramid, costs, &clock,
      coalesced ? CoalesceProfile() : storage::RangeCoalesceOptions{});
  auto result = RunSessions(study, trained, num_sessions, &store, &clock,
                            coalesced ? 0.5 : 0.0);
  result.chunk_scans = store.chunk_scan_count();
  result.coalesced_runs = store.run_count();
  result.waste_cells = store.waste_cell_count();
  return result;
}

/// One disk replay over the shared packed-extent directory. Each run opens
/// its own DiskTileStore so syscall counters start at zero.
RunResult RunDisk(const sim::Study& study,
                  const bench::TrainedComponents& trained,
                  std::size_t num_sessions, const std::string& directory,
                  bool coalesced) {
  SimClock clock;
  auto opened = storage::DiskTileStore::Open(
      directory, study.dataset.pyramid->spec(), {},
      coalesced ? CoalesceProfile() : storage::RangeCoalesceOptions{});
  if (!opened.ok()) {
    std::cerr << "ERROR: " << opened.status() << "\n";
    return {};
  }
  auto store = std::move(opened).value();
  if (!store->packed_loaded()) {
    std::cerr << "ERROR: packed extent missing from " << directory << "\n";
    return {};
  }
  auto result = RunSessions(study, trained, num_sessions, store.get(), &clock,
                            coalesced ? 0.5 : 0.0);
  result.syscalls = store->syscall_count();
  result.bytes_read = store->bytes_read();
  result.vectored_runs = store->vectored_run_count();
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Range-coalesced batched I/O — merged-extent scans & vectored reads",
      "SciDB chunk-scan amortization; packed-extent preadv on disk");
  const auto& study = bench::GetStudy();

  const bench::TrainedComponents trained = bench::TrainComponents(study);

  // Pack the study pyramid once; every disk run re-opens the same extent.
  const std::string disk_dir =
      (std::filesystem::temp_directory_path() / "fc_bench_range_coalesce")
          .string();
  std::filesystem::remove_all(disk_dir);
  {
    auto packer =
        storage::DiskTileStore::Open(disk_dir, study.dataset.pyramid->spec());
    if (!packer.ok() ||
        !(*packer)->SavePyramid(*study.dataset.pyramid).ok()) {
      std::cerr << "ERROR: packing study pyramid to disk failed\n";
      return 1;
    }
  }

  eval::TablePrinter table({"Backend", "Sessions", "Mode", "Hit rate",
                            "Round trips", "Tiles", "Chunk scans", "Syscalls",
                            "Runs", "Reorders", "p99 ms"});
  auto results = JsonValue::Array();
  bool pass = true;
  double chunk_scan_reduction_64 = 0.0;
  double syscall_reduction_64 = 0.0;

  for (std::size_t sessions : {4u, 16u, 64u}) {
    auto dbms_per_key = RunDbms(study, trained, sessions, /*coalesced=*/false);
    auto dbms_coalesced = RunDbms(study, trained, sessions, /*coalesced=*/true);
    auto disk_per_key =
        RunDisk(study, trained, sessions, disk_dir, /*coalesced=*/false);
    auto disk_coalesced =
        RunDisk(study, trained, sessions, disk_dir, /*coalesced=*/true);

    struct Labeled {
      const char* backend;
      const char* mode;
      const RunResult* run;
    };
    for (const auto& [backend, mode, run] :
         {Labeled{"dbms", "per-key", &dbms_per_key},
          Labeled{"dbms", "coalesced", &dbms_coalesced},
          Labeled{"disk", "per-key", &disk_per_key},
          Labeled{"disk", "coalesced", &disk_coalesced}}) {
      table.AddRow({backend, std::to_string(sessions), mode,
                    bench::Pct(run->hit_rate),
                    std::to_string(run->round_trips),
                    std::to_string(run->tiles_fetched),
                    std::to_string(run->chunk_scans),
                    std::to_string(run->syscalls),
                    std::to_string(run->coalesced_runs + run->vectored_runs),
                    std::to_string(run->scheduler.adjacency_reorders),
                    eval::TablePrinter::Num(run->p99_latency_ms, 1)});

      auto row = JsonValue::Object();
      row.Set("backend", std::string(backend));
      row.Set("sessions", sessions);
      row.Set("mode", std::string(mode));
      row.Set("total_requests", run->total_requests);
      row.Set("hit_rate", run->hit_rate);
      row.Set("p99_latency_ms", run->p99_latency_ms);
      row.Set("round_trips", run->round_trips);
      row.Set("tiles_fetched", run->tiles_fetched);
      row.Set("chunk_scans", run->chunk_scans);
      row.Set("coalesced_runs", run->coalesced_runs);
      row.Set("waste_cells", run->waste_cells);
      row.Set("syscalls", run->syscalls);
      row.Set("bytes_read", run->bytes_read);
      row.Set("vectored_runs", run->vectored_runs);
      row.Set("adjacency_reorders", run->scheduler.adjacency_reorders);
      row.Set("fetch_batches", run->scheduler.fetch_batches);
      row.Set("batched_fills", run->scheduler.batched_fills);
      row.Set("books_balance", run->books_balance);
      results.Push(std::move(row));

      if (!run->run_ok || !run->books_balance) pass = false;
    }

    // The coalesced paths must actually coalesce (runs planned, vectored
    // reads issued) and the adjacency window must actually reorder.
    if (dbms_coalesced.coalesced_runs == 0 ||
        disk_coalesced.vectored_runs == 0) {
      pass = false;
    }

    // Acceptance gates ride on the 64-session points: >= 2x fewer chunk
    // scans (DBMS) and read syscalls (disk) at equal-or-better hit rates
    // (1% scheduling noise).
    if (sessions == 64) {
      chunk_scan_reduction_64 =
          dbms_coalesced.chunk_scans == 0
              ? 0.0
              : static_cast<double>(dbms_per_key.chunk_scans) /
                    static_cast<double>(dbms_coalesced.chunk_scans);
      syscall_reduction_64 =
          disk_coalesced.syscalls == 0
              ? 0.0
              : static_cast<double>(disk_per_key.syscalls) /
                    static_cast<double>(disk_coalesced.syscalls);
      if (chunk_scan_reduction_64 < 2.0 || syscall_reduction_64 < 2.0 ||
          dbms_coalesced.hit_rate + 0.01 < dbms_per_key.hit_rate ||
          disk_coalesced.hit_rate + 0.01 < disk_per_key.hit_rate) {
        pass = false;
      }
    }
  }
  table.Print();

  auto report = JsonValue::Object();
  report.Set("bench", "range_coalesce");
  report.Set("fast_mode", bench::FastBench());
  report.Set("pass", pass);
  report.Set("chunk_scan_reduction_64", chunk_scan_reduction_64);
  report.Set("syscall_reduction_64", syscall_reduction_64);
  report.Set("results", std::move(results));
  const std::string json_path = "BENCH_range_coalesce.json";
  if (auto status = WriteJsonFile(json_path, report); !status.ok()) {
    std::cerr << "ERROR writing " << json_path << ": " << status << "\n";
    return 1;
  }
  std::cout << "\nWrote " << json_path << "\n";
  std::filesystem::remove_all(disk_dir);

  std::cout << "\nWith batch formation preferring run completion and both\n"
            << "backends serving each run as one merged extent, 64 sessions\n"
            << "cost " << eval::TablePrinter::Num(chunk_scan_reduction_64, 1)
            << "x fewer chunk scans and "
            << eval::TablePrinter::Num(syscall_reduction_64, 1)
            << "x fewer read syscalls than per-key service. "
            << (pass ? "PASS\n" : "FAIL\n");
  return pass ? 0 : 1;
}
