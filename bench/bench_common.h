// Shared setup for the experiment harnesses: builds (once per process) the
// synthetic MODIS dataset and the 18x3 study traces every figure/table
// reproduction replays, and trains the prediction components the
// multi-session serving harnesses wire into their SessionManagers.

#ifndef FORECACHE_BENCH_BENCH_COMMON_H_
#define FORECACHE_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>

#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "core/phase_classifier.h"
#include "core/sb_recommender.h"
#include "eval/loocv.h"
#include "eval/predictor.h"
#include "eval/replay.h"
#include "eval/table_printer.h"
#include "eval/trace_stats.h"
#include "server/session.h"
#include "sim/study.h"

namespace fc::bench {

/// The study every harness replays. Built on first use; deterministic.
/// Set FORECACHE_FAST_BENCH=1 to shrink the dataset (CI smoke runs).
const sim::Study& GetStudy();

/// The prediction components a serving harness shares read-only across
/// every session of every SessionManager it builds.
struct TrainedComponents {
  std::unique_ptr<core::PhaseClassifier> classifier;
  std::unique_ptr<core::AbRecommender> ab;
  std::unique_ptr<core::SbRecommender> sb;
  core::HybridAllocationStrategy strategy;

  /// The components as a SessionManager takes them, predicting
  /// `prefetch_k` tiles per request.
  server::SharedPredictionComponents Shared(std::size_t prefetch_k) const;
};

/// Trains the phase classifier and the AB model on `study`'s traces and
/// builds the SB model over its dataset. Deterministic; a training failure
/// is fatal, like a study build failure.
TrainedComponents TrainComponents(const sim::Study& study);

/// Convenience: "12.3%" formatting.
std::string Pct(double fraction, int precision = 1);

/// True when FORECACHE_FAST_BENCH=1 (CI smoke runs on shrunken datasets).
bool FastBench();

/// Phase names in report order (Foraging, Navigation, Sensemaking).
const std::vector<core::AnalysisPhase>& ReportPhases();

/// Prints a standard harness banner.
void PrintBanner(const std::string& experiment, const std::string& paper_ref);

/// Runs the LOOCV accuracy protocol for each configuration at each fetch
/// budget k and prints one table: model x k -> per-phase + overall accuracy.
/// Engine configurations have their prefetch budget set to each k in turn.
int PrintAccuracySweep(const sim::Study& study,
                       std::vector<eval::PredictorConfig> configs,
                       const std::vector<std::size_t>& ks);

}  // namespace fc::bench

#endif  // FORECACHE_BENCH_BENCH_COMMON_H_
