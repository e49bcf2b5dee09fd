// The benchmark's workloads and one closed-loop replay round through the
// public SessionManager / BrowserSession API.
//
// A round builds a fresh serving stack (SimClock, simulated DBMS, manager),
// opens every session, and replays each session's assigned study trace
// from Open() to its last move. Each of the two driver threads (the
// calling thread plus one more) owns half the sessions, balanced by trace
// length, and visits its sessions round-robin through
// SessionManager::GetOrCreate, so all sessions are live at once and each
// stays on one thread. A session sends
// its next move only after its previous request returned and its prefetch
// settled (WaitForPrefetch). With the 2-thread executor the process runs
// at most 4 OS threads.
//
// A round is a fixed amount of work for a given study, so counts per
// round compare across runs and across workloads.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "core/phase_classifier.h"
#include "core/sb_recommender.h"
#include "sim/study.h"
#include "tracing.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  std::size_t sessions = 0;
  std::size_t l1_tiles = 0;         ///< Shared L1 budget in nominal tiles.
  std::size_t l2_tiles = 0;         ///< Shared L2 budget (lossless blobs).
  std::size_t max_batch_tiles = 1;  ///< Tiles per backend round trip.
  bool coalesce = false;            ///< Range-coalesced batch pricing.
  bool streaming = false;           ///< Progressive push streaming.
};

/// The named workload, or null.
const WorkloadConfig* FindWorkload(const std::string& name);

/// Studies per run. Each is a 6-user, 18-trace study of its own seed over
/// the shared dataset, with its own trained classifier and AB model; rounds
/// rotate through them. One study's SVM cost per request and miss rate
/// swing by a third from seed to seed, so a run averages many.
inline constexpr std::size_t kStudies = 16;

struct StudyModels {
  std::uint64_t seed = 0;  ///< StudyOptions::seed; also seeds the assignment.
  std::vector<fc::core::Trace> traces;
  std::unique_ptr<fc::core::PhaseClassifier> classifier;
  std::unique_ptr<fc::core::AbRecommender> ab;
};

/// Everything set-up produces: the fast-size dataset (512x512, 5 levels,
/// 341 tiles), its SB model, and kStudies trained studies.
struct Trained {
  fc::sim::ModisDataset dataset;
  std::unique_ptr<fc::core::SbRecommender> sb;
  fc::core::HybridAllocationStrategy strategy;
  std::vector<StudyModels> studies;
};

/// Builds the dataset and the kStudies studies whose seeds derive from
/// `seed`, and trains each study's classifier and AB model on its traces.
fc::Result<std::unique_ptr<Trained>> Setup(std::uint64_t seed);

/// One per-layer counter of a round.
struct Counter {
  const char* name;
  double value;
  const char* unit;  ///< Per round, e.g. "count/round".
};

/// What one round did and measured.
struct RoundResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t hits = 0;
  double wall_s = 0.0;  ///< Replay only; stack set-up and teardown excluded.
  double cpu_s = 0.0;   ///< Process user+sys CPU over the same window.
  std::vector<double> serve_us;      ///< Wall time of each Open / ApplyMove.
  std::vector<double> serve_cpu_us;  ///< Calling thread's CPU time in each.
  /// Sums of ServedRequest::latency_ms over all served requests and over
  /// the misses among them (completed requests = hits + misses).
  double latency_ms_sum = 0.0;
  double miss_latency_ms_sum = 0.0;
  std::vector<std::string> errors;  ///< First few failures, for the log.
  /// Broken books: prefetch retirement or stream chunk counts.
  std::uint64_t violations = 0;

  /// Per-layer counters read from the components' Stats() once every
  /// session settled, under their per-layer metric names.
  std::vector<Counter> counters;
};

/// Replays one round of `workload` over study `study`. With a `recorder`,
/// the backend store, recommenders and allocation strategy are wrapped and
/// every layer boundary records a span; without one the stack runs
/// unwrapped.
RoundResult RunRound(const Trained& trained, std::size_t study,
                     const WorkloadConfig& workload, SpanRecorder* recorder);

/// Bit-identity of two tiles: key, geometry, attribute names and every
/// payload byte.
bool SameTile(const fc::tiles::Tile& a, const fc::tiles::Tile& b);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
