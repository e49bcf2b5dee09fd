#include "bench_common.h"

#include <cstdlib>
#include <iostream>

#include "common/logging.h"
#include "common/string_utils.h"

namespace fc::bench {

bool FastBench() {
  const char* fast = std::getenv("FORECACHE_FAST_BENCH");
  return fast != nullptr && std::string(fast) == "1";
}

const sim::Study& GetStudy() {
  static const sim::Study study = [] {
    sim::ModisDatasetOptions dataset = sim::DefaultStudyDataset();
    sim::StudyOptions options;
    if (FastBench()) {
      dataset.terrain.width = 512;
      dataset.terrain.height = 512;
      dataset.num_levels = 5;
      options.num_users = 6;
    }
    std::cerr << "[bench] building study dataset ("
              << dataset.terrain.width << "x" << dataset.terrain.height << ", "
              << dataset.num_levels << " levels) and "
              << options.num_users << "x3 traces...\n";
    auto study_result = sim::RunStudy(dataset, options);
    FC_CHECK_MSG(study_result.ok(), study_result.status().ToString());
    std::cerr << "[bench] study ready: " << study_result->traces.size()
              << " traces, " << study_result->dataset.pyramid->tile_count()
              << " tiles\n";
    return std::move(study_result).value();
  }();
  return study;
}

server::SharedPredictionComponents TrainedComponents::Shared(
    std::size_t prefetch_k) const {
  server::SharedPredictionComponents shared;
  shared.classifier = classifier.get();
  shared.ab = ab.get();
  shared.sb = sb.get();
  shared.strategy = &strategy;
  shared.engine_options.prefetch_k = prefetch_k;
  return shared;
}

TrainedComponents TrainComponents(const sim::Study& study) {
  auto classifier = core::PhaseClassifier::Train(study.traces);
  FC_CHECK_MSG(classifier.ok(), classifier.status().ToString());
  auto ab = core::AbRecommender::Make();
  FC_CHECK_MSG(ab.ok(), ab.status().ToString());
  const Status trained_ab = ab->Train(study.traces);
  FC_CHECK_MSG(trained_ab.ok(), trained_ab.ToString());
  TrainedComponents trained;
  trained.classifier =
      std::make_unique<core::PhaseClassifier>(std::move(*classifier));
  trained.ab = std::make_unique<core::AbRecommender>(std::move(*ab));
  trained.sb = std::make_unique<core::SbRecommender>(
      &study.dataset.pyramid->metadata(), study.dataset.toolbox.get());
  return trained;
}

std::string Pct(double fraction, int precision) {
  return StrFormat("%.*f%%", precision, fraction * 100.0);
}

const std::vector<core::AnalysisPhase>& ReportPhases() {
  static const std::vector<core::AnalysisPhase> kPhases = {
      core::AnalysisPhase::kForaging,
      core::AnalysisPhase::kNavigation,
      core::AnalysisPhase::kSensemaking,
  };
  return kPhases;
}

void PrintBanner(const std::string& experiment, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << "ForeCache reproduction | " << experiment << "\n"
            << "Paper reference: " << paper_ref << "\n"
            << "==============================================================\n";
}

int PrintAccuracySweep(const sim::Study& study,
                       std::vector<eval::PredictorConfig> configs,
                       const std::vector<std::size_t>& ks) {
  eval::TablePrinter table(
      {"Model", "k", "Foraging", "Navigation", "Sensemaking", "Overall"});
  for (auto& config : configs) {
    for (std::size_t k : ks) {
      config.k = k;
      auto result = eval::RunLoocvAccuracy(study, config, k);
      if (!result.ok()) {
        std::cerr << "ERROR (" << config.DisplayName() << ", k=" << k
                  << "): " << result.status() << "\n";
        return 1;
      }
      const auto& report = result->merged;
      table.AddRow(
          {config.DisplayName(), std::to_string(k),
           Pct(report.ForPhase(core::AnalysisPhase::kForaging).Rate()),
           Pct(report.ForPhase(core::AnalysisPhase::kNavigation).Rate()),
           Pct(report.ForPhase(core::AnalysisPhase::kSensemaking).Rate()),
           Pct(report.overall.Rate())});
    }
  }
  table.Print();
  return 0;
}

}  // namespace fc::bench
