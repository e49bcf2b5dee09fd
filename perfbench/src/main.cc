// Serving benchmark driver.
//
//   perfbench_driver --workload <explore_cold|crowd_64|stream_64> --seed <n>
//                    --seconds <s> --trace <0|1> [--spans-out <file.csv>]
//
// Set-up builds the dataset and the seeded studies and trains their
// predictors, three times in parallel (the median is setup_s; the three
// must agree). One untimed warm-up round follows. Then closed-loop replay
// rounds (workload.h), rotating through the studies, repeat until
// --seconds have passed.
//
// --trace 0 prints the end-to-end metrics of untraced rounds. --trace 1
// alternates untraced and traced rounds (plus, on a streaming workload,
// untraced rounds of its streaming-off twin) and prints the per-layer
// metrics: counters from the components' Stats() per round, span-derived
// costs from the traced rounds, classifier and codec costs from side
// passes, and a CPU rollup against the run's cpu_us_per_request.
//
// Every run checks that each served tile is bit-identical to the
// pyramid's, that the prefetch and stream books balance, and that the
// codec round trips exactly. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
// when every check passed.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/stream_scheduler.h"
#include "storage/tile_codec.h"
#include "tracing.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
        have_seconds = args->seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
      } else if (flag == "--spans-out") {
        args->spans_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Nearest-rank percentile of already sorted samples.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a over everything the replay consumes from a study, so parallel
/// set-ups can be checked for agreement.
std::uint64_t Fingerprint(const Trained& trained) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::int64_t>(trained.dataset.pyramid->tile_count()));
  for (const auto& study : trained.studies) {
    for (const auto& trace : study.traces) {
      mix(trace.task_id);
      mix(static_cast<std::int64_t>(trace.records.size()));
      for (const auto& record : trace.records) {
        mix(record.request.tile.level);
        mix(record.request.tile.x);
        mix(record.request.tile.y);
        mix(record.request.move.has_value() ? static_cast<int>(*record.request.move) : -1);
        mix(static_cast<int>(record.phase));
      }
    }
  }
  return h;
}

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    entries_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char number[64];
      auto end = std::to_chars(number, number + sizeof(number), e.value).ptr;
      out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " +
             std::string(number, end) + ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

  void Print(std::ostream& os) const {
    for (const Entry& e : entries_) {
      os << "  " << std::left << std::setw(44) << e.name << std::right
         << std::setw(16) << std::setprecision(6) << e.value << " " << e.unit << "\n";
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Sums of several rounds, plus each round's wall- and CPU-time figures.
/// Timing metrics are the median over rounds, so a burst of load from
/// outside the process that covers a few rounds does not move them.
struct Totals {
  std::uint64_t rounds = 0, attempted = 0, failed = 0, hits = 0, violations = 0;
  double cpu_s = 0.0, latency_ms_sum = 0.0, miss_latency_ms_sum = 0.0;
  std::vector<double> round_rps, round_cpu_us, round_p50_us, round_cpu_p99_us;

  void Add(RoundResult&& round) {
    ++rounds;
    attempted += round.attempted;
    failed += round.failed;
    hits += round.hits;
    violations += round.violations;
    cpu_s += round.cpu_s;
    latency_ms_sum += round.latency_ms_sum;
    miss_latency_ms_sum += round.miss_latency_ms_sum;
    const double done = static_cast<double>(round.attempted - round.failed);
    round_rps.push_back(Ratio(done, round.wall_s));
    round_cpu_us.push_back(Ratio(round.cpu_s * 1e6, done));
    std::sort(round.serve_us.begin(), round.serve_us.end());
    round_p50_us.push_back(Percentile(round.serve_us, 0.50));
    std::sort(round.serve_cpu_us.begin(), round.serve_cpu_us.end());
    round_cpu_p99_us.push_back(Percentile(round.serve_cpu_us, 0.99));
    for (const auto& error : round.errors) std::cout << "CHECK FAILED: " << error << "\n";
  }

  double completed() const { return static_cast<double>(attempted - failed); }
  double CpuUsPerRequest() const { return Ratio(cpu_s * 1e6, completed()); }
};

struct SetupOutcome {
  std::vector<std::unique_ptr<Trained>> reps;
  double setup_s = 0.0;
  bool agree = true;
};

/// Runs kSetupReps independent set-ups on their own threads.
fc::Result<SetupOutcome> RunSetups(std::uint64_t seed) {
  std::vector<fc::Result<std::unique_ptr<Trained>>> results;
  for (int r = 0; r < kSetupReps; ++r) {
    results.emplace_back(fc::Status::Internal("set-up did not run"));
  }
  std::vector<double> seconds(kSetupReps, 0.0);
  std::vector<std::thread> threads;
  for (int r = 0; r < kSetupReps; ++r) {
    threads.emplace_back([&, r] {
      const auto start = std::chrono::steady_clock::now();
      results[r] = Setup(seed);
      seconds[r] = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                       .count();
    });
  }
  for (auto& thread : threads) thread.join();

  SetupOutcome outcome;
  for (auto& result : results) {
    if (!result.ok()) return result.status();
    outcome.reps.push_back(std::move(result).value());
  }
  outcome.setup_s = Median(seconds);
  for (const auto& rep : outcome.reps) {
    outcome.agree = outcome.agree && Fingerprint(*rep) == Fingerprint(*outcome.reps[0]);
  }
  return outcome;
}

struct SidePasses {
  double classify_ns = 0.0;
  double encode_ns = 0.0, encode_progressive_ns = 0.0, reassemble_ns = 0.0,
         decode_ns = 0.0;
  bool codec_exact = true;
};

/// Thread-CPU ns per call of the classifier over every trace record and of
/// each codec pass over every study tile, with the stream's codec options.
SidePasses RunSidePasses(const Trained& trained) {
  constexpr int kCodecReps = 3;
  SidePasses passes;
  std::uint64_t calls = 0;
  std::uint64_t agree = 0;
  std::int64_t start = ThreadCpuNs();
  for (const auto& study : trained.studies) {
    for (const auto& trace : study.traces) {
      for (const auto& record : trace.records) {
        agree += study.classifier->Predict(record.request) == record.phase ? 1 : 0;
        ++calls;
      }
    }
  }
  passes.classify_ns = Ratio(static_cast<double>(ThreadCpuNs() - start), calls);
  std::cout << "classifier side pass: " << calls << " calls, "
            << Ratio(static_cast<double>(agree), calls) << " agree with the labels\n";

  const auto& pyramid = *trained.dataset.pyramid;
  std::vector<fc::tiles::TilePtr> tiles;
  for (int level = 0; level < pyramid.spec().num_levels; ++level) {
    for (const auto& key : pyramid.spec().KeysAtLevel(level)) {
      auto tile = pyramid.GetTile(key);
      if (tile.ok()) tiles.push_back(*tile);
    }
  }
  const fc::storage::TileCodec codec(fc::core::StreamSchedulerOptions{}.codec);
  std::int64_t encode = 0, progressive = 0, reassemble = 0, decode = 0;
  for (int rep = 0; rep < kCodecReps; ++rep) {
    for (const auto& tile : tiles) {
      std::int64_t t0 = ThreadCpuNs();
      const std::string blob = codec.Encode(*tile);
      std::int64_t t1 = ThreadCpuNs();
      const fc::storage::ProgressiveEncoding pair = codec.EncodeProgressive(*tile);
      std::int64_t t2 = ThreadCpuNs();
      auto rebuilt = fc::storage::TileCodec::Reassemble(pair.base, pair.refinement);
      std::int64_t t3 = ThreadCpuNs();
      auto decoded = fc::storage::TileCodec::Decode(blob);
      std::int64_t t4 = ThreadCpuNs();
      encode += t1 - t0;
      progressive += t2 - t1;
      reassemble += t3 - t2;
      decode += t4 - t3;
      passes.codec_exact = passes.codec_exact && rebuilt.ok() && decoded.ok() &&
                           SameTile(*rebuilt, *tile) && SameTile(*decoded, *tile);
    }
  }
  const double n = static_cast<double>(tiles.size() * kCodecReps);
  passes.encode_ns = Ratio(static_cast<double>(encode), n);
  passes.encode_progressive_ns = Ratio(static_cast<double>(progressive), n);
  passes.reassemble_ns = Ratio(static_cast<double>(reassemble), n);
  passes.decode_ns = Ratio(static_cast<double>(decode), n);
  return passes;
}

/// Per-layer sums over the traced rounds.
struct LayerTotals {
  std::uint64_t rounds = 0;
  SpanSummary spans;
  std::vector<Counter> counters;  ///< Summed by position; every round has the same list.

  void Add(const RoundResult& round, const SpanSummary& summary) {
    ++rounds;
    spans += summary;
    if (counters.empty()) {
      counters = round.counters;
      return;
    }
    for (std::size_t i = 0; i < counters.size(); ++i) counters[i].value += round.counters[i].value;
  }

  double Sum(std::string_view name) const {
    for (const Counter& counter : counters) {
      if (name == counter.name) return counter.value;
    }
    return 0.0;
  }
};

void PerLayerMetrics(const Totals& untraced, const Totals& traced, const Totals* twin,
                     const LayerTotals& layers, const SidePasses& side, Metrics* m) {
  const double rounds = static_cast<double>(std::max<std::uint64_t>(layers.rounds, 1));
  const auto& sp = layers.spans;
  const double requests = static_cast<double>(sp.request.count);
  auto per_round = [rounds](double v) { return v / rounds; };
  auto ns_per = [](const SpanTotals& t) {
    return Ratio(static_cast<double>(t.cpu_ns), static_cast<double>(t.count));
  };

  std::vector<double> waits = sp.wait_prefetch_us;
  std::sort(waits.begin(), waits.end());
  m->Set("server.request_self_us", Ratio(sp.request_self_ns / 1e3, requests), "us");
  m->Set("server.wait_prefetch_p50_us", Percentile(waits, 0.50), "us");
  m->Set("server.wait_prefetch_p99_us", Percentile(waits, 0.99), "us");
  m->Set("server.requests", per_round(static_cast<double>(traced.attempted)), "count/round");
  m->Set("server.failed", per_round(static_cast<double>(traced.failed)), "count/round");

  const double predict_wall = static_cast<double>(sp.predict_ab.wall_ns +
                                                  sp.predict_sb.wall_ns + sp.alloc.wall_ns);
  m->Set("core.predict.ab_ns", ns_per(sp.predict_ab), "ns");
  m->Set("core.predict.sb_ns", ns_per(sp.predict_sb), "ns");
  m->Set("core.predict.alloc_ns", ns_per(sp.alloc), "ns");
  m->Set("core.predict.calls",
         per_round(static_cast<double>(sp.predict_ab.count + sp.predict_sb.count)),
         "count/round");
  m->Set("core.predict.classify_ns", side.classify_ns, "ns");
  m->Set("core.predict.share", Ratio(predict_wall, static_cast<double>(sp.request.wall_ns)),
         "fraction");

  for (const Counter& counter : layers.counters) {
    m->Set(counter.name, per_round(counter.value), counter.unit);
  }
  const double hits = layers.Sum("core.cache.hits");
  const double fills = layers.Sum("core.prefetch.fills_issued");
  const double submitted = layers.Sum("core.stream.tiles_submitted");
  m->Set("core.cache.hit_ratio", Ratio(hits, hits + layers.Sum("core.cache.misses")),
         "fraction");
  m->Set("core.prefetch.fills_per_publish",
         Ratio(fills, layers.Sum("core.prefetch.published")), "ratio");
  m->Set("core.stream.submits_per_fill", Ratio(submitted, fills), "ratio");
  m->Set("core.stream.cpu_us_per_request",
         twin != nullptr ? untraced.CpuUsPerRequest() - twin->CpuUsPerRequest() : 0.0, "us");

  SpanTotals storage = sp.storage_request_path;
  storage += sp.storage_background;
  m->Set("storage.calls", per_round(storage.count), "count/round");
  m->Set("storage.keys_per_call",
         Ratio(static_cast<double>(storage.items), static_cast<double>(storage.count)),
         "ratio");
  m->Set("storage.cpu_ns_per_call", ns_per(storage), "ns");
  m->Set("storage.codec.encode_ns", side.encode_ns, "ns");
  m->Set("storage.codec.encode_progressive_ns", side.encode_progressive_ns, "ns");
  m->Set("storage.codec.reassemble_ns", side.reassemble_ns, "ns");
  m->Set("storage.codec.decode_ns", side.decode_ns, "ns");

  // Rollup: per request, the thread CPU inside spans that never overlap
  // (request path and waits on the driver threads, backend fetches on the
  // executor) against the traced rounds' process CPU. The rest ran on the
  // executor outside any span: scheduler drains, stream pumps, cache
  // inserts. Side-pass estimates say where time inside the spans goes; the
  // stream codec estimate (4 passes per submitted tile) lands mostly inside
  // the request path, because resident tiles are delivered while the
  // request publishes its predictions.
  const double traced_cpu_us = traced.CpuUsPerRequest();
  const double per_req = std::max(requests, 1.0) * 1e3;  // ns -> us per request
  const double request_path = static_cast<double>(sp.request.cpu_ns) / per_req;
  const double predict = static_cast<double>(sp.predict_ab.cpu_ns + sp.predict_sb.cpu_ns +
                                             sp.alloc.cpu_ns) / per_req;
  const double classify = side.classify_ns / 1e3;
  const double demand_storage = static_cast<double>(sp.storage_request_path.cpu_ns) / per_req;
  const double waiting = static_cast<double>(sp.wait_prefetch.cpu_ns) / per_req;
  const double background_storage =
      static_cast<double>(sp.storage_background.cpu_ns) / per_req;
  const double codec_passes_ns =
      side.encode_ns + side.encode_progressive_ns + side.reassemble_ns + side.decode_ns;
  const double stream_codec = submitted * codec_passes_ns / per_req;
  const double explained = request_path + waiting + background_storage;
  std::cout << "CPU rollup (us per request, traced rounds):\n"
            << "  process CPU                      " << traced_cpu_us << "\n"
            << "  request spans                    " << request_path << "\n"
            << "    predict.ab + predict.sb + alloc " << predict << "\n"
            << "    classifier (side pass)         " << classify << "\n"
            << "    storage.fetch on misses        " << demand_storage << "\n"
            << "    rest of server + cache         "
            << request_path - predict - classify - demand_storage << "\n"
            << "  wait_prefetch spans              " << waiting << "\n"
            << "  background storage.fetch spans   " << background_storage << "\n"
            << "  unexplained (outside any span)   " << traced_cpu_us - explained << "\n"
            << "  stream codec estimate, all threads (side pass x submits) "
            << stream_codec << "\n";
  m->Set("rollup.request_path_cpu_us", request_path, "us");
  m->Set("rollup.predict_cpu_us", predict, "us");
  m->Set("rollup.stream_codec_cpu_us", stream_codec, "us");
  m->Set("rollup.explained_cpu_us", explained, "us");
  m->Set("rollup.unexplained_cpu_us", traced_cpu_us - explained, "us");
  m->Set("trace.cpu_us_per_request", traced_cpu_us, "us");
  m->Set("trace.overhead_cpu_us_per_request", traced_cpu_us - untraced.CpuUsPerRequest(),
         "us");
}

void EndToEndMetrics(const Totals& run, double setup_s, Metrics* m) {
  const double misses = run.completed() - static_cast<double>(run.hits);
  m->Set("requests_per_s", Median(run.round_rps), "req/s");
  m->Set("cpu_us_per_request", Median(run.round_cpu_us), "us");
  m->Set("serve_p50_us", Median(run.round_p50_us), "us");
  m->Set("serve_cpu_p99_us", Median(run.round_cpu_p99_us), "us");
  m->Set("latency_mean_ms", Ratio(run.latency_ms_sum, run.completed()), "ms");
  m->Set("latency_miss_mean_ms", Ratio(run.miss_latency_ms_sum, misses), "ms");
  m->Set("hit_rate", Ratio(static_cast<double>(run.hits), run.completed()), "fraction");
  m->Set("setup_s", setup_s, "s");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <file>]\n";
    return 2;
  }
  const WorkloadConfig* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }

  auto setups = RunSetups(args.seed);
  if (!setups.ok()) {
    std::cerr << "set-up failed: " << setups.status() << "\n";
    return 1;
  }
  const double setup_s = setups->setup_s;
  const bool setups_agree = setups->agree;
  std::unique_ptr<Trained> trained = std::move(setups->reps[0]);
  setups->reps.clear();
  if (!setups_agree) std::cout << "CHECK FAILED: parallel set-ups disagree\n";
  std::cout << "workload " << workload->name << ": " << workload->sessions << " sessions, "
            << kStudies << " studies of " << trained->studies[0].traces.size()
            << " traces, " << trained->dataset.pyramid->tile_count() << " tiles; set-up "
            << setup_s << " s (median of " << kSetupReps << ")\n";

  Metrics metrics;
  bool correct = setups_agree;
  // Every round's checks count, the untimed warm-up's too.
  Totals warmup, measured, traced, twin;
  warmup.Add(RunRound(*trained, 0, *workload, nullptr));
  std::size_t next_study = 0;
  auto study = [&next_study] { return next_study++ % kStudies; };
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(args.seconds);
  auto time_left = [&deadline] { return std::chrono::steady_clock::now() < deadline; };

  if (!args.trace) {
    do {
      measured.Add(RunRound(*trained, study(), *workload, nullptr));
    } while (time_left());
    EndToEndMetrics(measured, setup_s, &metrics);
  } else {
    const SidePasses side = RunSidePasses(*trained);
    correct = correct && side.codec_exact;
    if (!side.codec_exact) std::cout << "CHECK FAILED: codec round trip not exact\n";

    WorkloadConfig twin_config = *workload;
    twin_config.streaming = false;
    LayerTotals layers;
    std::vector<Span> last_spans;
    do {
      const std::size_t k = study();
      RoundResult untraced = RunRound(*trained, k, *workload, nullptr);
      if (workload->streaming) {
        RoundResult off = RunRound(*trained, k, twin_config, nullptr);
        if (off.attempted != untraced.attempted) {
          ++off.violations;
          off.errors.push_back("streaming on served " + std::to_string(untraced.attempted) +
                               " requests, off served " + std::to_string(off.attempted));
        }
        twin.Add(std::move(off));
      }
      measured.Add(std::move(untraced));
      SpanRecorder recorder;
      RoundResult round = RunRound(*trained, k, *workload, &recorder);
      last_spans = recorder.Collect();
      layers.Add(round, Summarize(last_spans));
      traced.Add(std::move(round));
    } while (time_left());
    PerLayerMetrics(measured, traced, workload->streaming ? &twin : nullptr, layers, side,
                    &metrics);
    if (!args.spans_out.empty()) {
      auto status = WriteSpansCsv(args.spans_out, last_spans);
      if (status.ok()) {
        std::cout << "spans of the last traced round: " << args.spans_out << "\n";
      } else {
        std::cerr << "spans not written: " << status << "\n";
      }
    }
  }

  Totals reported;
  for (const Totals* t : {&warmup, &measured, &traced, &twin}) {
    reported.rounds += t->rounds;
    reported.attempted += t->attempted;
    reported.failed += t->failed;
    reported.violations += t->violations;
  }
  correct = correct && reported.failed == 0 && reported.violations == 0 &&
            reported.attempted > 0;
  std::cout << "rounds " << reported.rounds << ", requests attempted " << reported.attempted
            << ", succeeded " << reported.attempted - reported.failed << ", failed "
            << reported.failed << ", book violations " << reported.violations << "\n";
  metrics.Print(std::cout);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << reported.attempted
            << ", \"failed\": " << reported.failed << ", \"metrics\": " << metrics.Json()
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
