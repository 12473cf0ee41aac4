// train-128 and train-32x4: core::Trainer over cfrecord shards that
// set-up writes from simulator output.
//
// A run repeats one fixed training budget (same data, same seed) until
// --seconds have passed. Each repeat is a fresh Trainer, so its final
// validation loss must repeat bit for bit. p50_ms is the median
// training-step time of every step of every repeat, read from the
// trainer's per-step log (rank 0, validation excluded), and
// samples_per_s is the global batch over it. The median keeps a noisy
// neighbour's burst out of both.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "dnn/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

struct TrainSpec {
  const char* preset;
  std::int64_t dhw;
  int ranks;
  std::size_t threads_per_rank;  // 0 = cost-model auto
  std::size_t train_boxes;       // simulated boxes, 8 samples each
  std::size_t train_samples;     // training samples kept
  std::size_t val_boxes;         // from kValidationSeed
  std::size_t val_samples;       // validation samples kept
  int epochs;
};

// The validation boxes are the same for every seed (a fixed held-out
// set), so val_loss compares models trained on different seeds' data on
// equal terms. Training data, weights, shuffling and augmentation all
// come from --seed.
constexpr std::uint64_t kValidationSeed = 0x76616c;  // "val"

// Correctness gates per repeat: val_loss is finite and bitwise equal
// across repeats, and the last epoch's mean training loss is below the
// first's. The validation loss itself does not fall reliably within
// these budgets: train-32x4 reaches the predict-the-mean plateau inside
// its first epoch, and train-128 passes through the loss spike the
// paper's learning rate causes at a global batch of 1.
//
// train-128: 4 octants of one box train, 2 of another validate; 2 epochs
// = 8 steps of the 128^3 network per repeat.
// train-32x4: 32 boxes train, 16 validate; 2 epochs of 256 samples =
// 128 global steps of 4 ranks per repeat.
constexpr TrainSpec kTrain128{"cosmoflow-128", 128, 1, 0, 1, 4, 1, 2, 2};
constexpr TrainSpec kTrain32x4{"cosmoflow-32", 32, 4, 1, 32, 256, 16, 128,
                               2};

struct TrainSetup {
  std::unique_ptr<WorkDir> dir;
  std::unique_ptr<cf::data::CfrecordSource> train;
  std::unique_ptr<cf::data::CfrecordSource> val;
  std::size_t sims = 0;
  double sim_seconds = 0.0;
  double write_seconds = 0.0;
  std::uint64_t write_bytes = 0;

  void reset() { *this = TrainSetup{}; }
};

TrainSetup make_setup(const Args& args, const TrainSpec& spec) {
  TrainSetup setup;
  setup.dir = std::make_unique<WorkDir>(args, args.workload);
  cf::runtime::ThreadPool pool;
  const double start = now_seconds();
  cf::core::GeneratedDataset train =
      simulate(spec.dhw, spec.train_boxes, args.seed, pool);
  cf::core::GeneratedDataset val =
      simulate(spec.dhw, spec.val_boxes, kValidationSeed, pool);
  setup.sim_seconds = now_seconds() - start;
  setup.sims = spec.train_boxes + spec.val_boxes;
  train.train.resize(std::min(train.train.size(), spec.train_samples));
  val.train.resize(std::min(val.train.size(), spec.val_samples));
  std::vector<std::string> train_paths;
  std::vector<std::string> val_paths;
  {
    SpanScope span("data/write_shards", "data");
    const double write_start = now_seconds();
    train_paths = cf::data::write_shards(train.train, setup.dir->path(),
                                         "train", 16, args.seed);
    val_paths = cf::data::write_shards(val.train, setup.dir->path(), "val",
                                       16, args.seed);
    setup.write_seconds = now_seconds() - write_start;
  }
  for (const auto* split : {&train.train, &val.train}) {
    for (const cf::data::Sample& sample : *split) {
      setup.write_bytes += sample.volume.size() * sizeof(float);
    }
  }
  SpanScope span("data/open_shards", "data");
  setup.train = std::make_unique<cf::data::CfrecordSource>(train_paths);
  setup.val = std::make_unique<cf::data::CfrecordSource>(val_paths);
  return setup;
}

cf::core::TrainerConfig trainer_config(const TrainSpec& spec,
                                       std::uint64_t seed,
                                       const std::string& step_log) {
  cf::core::TrainerConfig config;
  config.nranks = spec.ranks;
  config.epochs = spec.epochs;
  config.seed = seed;
  config.threads_per_rank = spec.threads_per_rank;
  config.step_log_path = step_log;
  return config;  // Adam+LARC, overlap, shuffle, augmentation: defaults
}

// Rank-0 training-step seconds from a trainer step log, whose schema is
// in OBSERVABILITY.md. The trainer times a step before it logs it.
std::vector<double> rank0_step_seconds(const std::string& path) {
  std::vector<double> seconds;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"phase\":\"step\"") == std::string::npos ||
        line.find("\"rank\":0,") == std::string::npos) {
      continue;
    }
    const std::size_t at = line.find("\"sec_step\":");
    if (at != std::string::npos) {
      seconds.push_back(std::strtod(line.c_str() + at + 11, nullptr));
    }
  }
  return seconds;
}

struct RepeatResult {
  double seconds = 0.0;              // the whole Trainer::run
  std::vector<double> step_seconds;  // rank 0, every step
  double first_train_loss = 0.0;
  double last_train_loss = 0.0;
  double val_loss = 0.0;
};

RepeatResult run_once(const cf::core::TopologyConfig& topology,
                      const TrainSpec& spec, const TrainSetup& setup,
                      const Args& args,
                      std::unique_ptr<cf::core::Trainer>& trainer) {
  const std::string log = setup.dir->path() + "/steps.jsonl";
  std::remove(log.c_str());
  trainer = std::make_unique<cf::core::Trainer>(
      topology, *setup.train, *setup.val,
      trainer_config(spec, args.seed, log));
  std::vector<cf::core::EpochStats> stats;
  RepeatResult r;
  {
    SpanScope span("core/trainer_run", "core");
    const double start = now_seconds();
    stats = trainer->run();
    r.seconds = now_seconds() - start;
  }
  r.step_seconds = rank0_step_seconds(log);
  r.first_train_loss = stats.front().train_loss;
  r.last_train_loss = stats.back().train_loss;
  r.val_loss = stats.back().val_loss;
  return r;
}

// The trainer's per-rank intra-op width: auto is the machine's threads
// split across the ranks.
std::size_t threads_per_rank(const TrainSpec& spec) {
  if (spec.threads_per_rank != 0) return spec.threads_per_rank;
  return std::max<std::size_t>(
      1, cf::runtime::ThreadPool::default_num_threads() /
             static_cast<std::size_t>(spec.ranks));
}

double samples_per_s(const TrainSpec& spec, const std::vector<double>& steps) {
  return static_cast<double>(spec.ranks) / median(steps);
}

// The traced repeat's per-layer figures.
// `before` is the registry as the traced repeat started; data figures
// are its deltas, since the pipeline counters are process-wide.
void report_layers(const TrainSpec& spec, const TrainSetup& setup,
                   cf::core::Trainer& trainer, const RepeatResult& traced,
                   const cf::obs::MetricsSnapshot& before,
                   double untraced_sps, Report& report) {
  report.layer("cosmo.sims", static_cast<double>(setup.sims));
  report.layer("cosmo.sim_s",
               setup.sim_seconds / static_cast<double>(setup.sims));
  report.layer("train.val_loss", traced.val_loss);

  const cf::core::CategoryBreakdown b = trainer.breakdown();
  const auto sec = [&](const char* key) { return b.seconds.at(key); };
  report.layer("train.steps", static_cast<double>(traced.step_seconds.size()));
  report.layer("train.step_ms", 1e3 * median(traced.step_seconds));
  double staged = 0.0;
  for (const auto& [category, seconds] : b.seconds) {
    if (category != "comm_hidden") staged += seconds;
  }
  report.layer("train.other_s", b.total - staged);

  const cf::obs::MetricsSnapshot m = cf::obs::Registry::global().snapshot();
  const auto counter = [](const cf::obs::MetricsSnapshot& s,
                          const char* name) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto grown = [&](const char* name) {
    return counter(m, name) - counter(before, name);
  };
  const auto gauge = [](const cf::obs::MetricsSnapshot& s,
                        const char* name) {
    const auto it = s.gauges.find(name);
    return it == s.gauges.end() ? 0.0 : it->second;
  };
  report.layer("data.write_s", setup.write_seconds);
  report.layer("data.write_bytes", static_cast<double>(setup.write_bytes));
  report.layer("data.wait_s", sec("io_wait"));
  report.layer("data.samples", grown("data/pipeline/samples_prefetched"));
  report.layer("data.bytes", grown("data/pipeline/bytes_prefetched"));
  report.layer("data.read_gb_per_s",
               grown("data/pipeline/bytes_prefetched") / traced.seconds /
                   1e9);
  // The gauge holds the process's running total of pool misses.
  report.layer("data.pool_allocs",
               gauge(m, "data/pipeline/pool_allocs") -
                   gauge(before, "data/pipeline/pool_allocs"));

  report.layer("optim.step_s", sec("optimizer"));
  report.layer("comm.exposed_s", sec("comm"));
  report.layer("comm.hidden_s", sec("comm_hidden"));
  report.layer("comm.overlap_fraction", b.overlap_fraction);
  report.layer("comm.allreduce_calls", grown("comm/allreduce_calls"));
  report.layer("comm.allreduce_bytes", grown("comm/allreduce_bytes"));
  report.layer("comm.buckets", grown("comm/buckets"));

  report.layer("dnn.conv_s", sec("conv"));
  report.layer("dnn.pool_s", sec("pool"));
  report.layer("dnn.dense_s", sec("dense"));
  double flops = 0.0;
  double layer_seconds = 0.0;
  for (const cf::dnn::LayerProfile& p : trainer.context(0).profiles()) {
    flops += static_cast<double>(p.flops.fwd) * p.fwd.count() +
             static_cast<double>(p.flops.bwd_data) * p.bwd_data.count() +
             static_cast<double>(p.flops.bwd_weights) *
                 p.bwd_weights.count();
    layer_seconds +=
        p.fwd.total() + p.bwd_data.total() + p.bwd_weights.total();
    if (p.kind == "conv") {
      const std::string base = "dnn." + p.name;
      report.layer(base + ".fwd_ms", 1e3 * p.fwd.mean());
      report.layer(base + ".bww_ms", 1e3 * p.bwd_weights.mean());
      report.layer(base + ".bwd_ms", 1e3 * p.bwd_data.mean());
    }
  }
  report.layer("dnn.gflop_per_s", flops / layer_seconds / 1e9);
  const cf::dnn::Network& net = trainer.network(0);
  const cf::dnn::CostModel model(net, {}, /*training=*/true);
  report.layer("dnn.cost_model_pred_ms",
               1e3 * model.predicted_seconds(threads_per_rank(spec)));
  report.layer("dnn.peak_tensor_bytes",
               static_cast<double>(net.peak_tensor_bytes()));
  report.layer("obs.overhead_pct",
               100.0 * (untraced_sps /
                            samples_per_s(spec, traced.step_seconds) -
                        1.0));
}

}  // namespace

void run_train(const Args& args, Report& report) {
  const TrainSpec& spec =
      args.workload == "train-128" ? kTrain128 : kTrain32x4;
  const cf::core::TopologyConfig topology =
      cf::core::preset_topology(spec.preset);
  TrainSetup setup = repeated_setup(
      report, [&] { return make_setup(args, spec); });
  report.stamp("ranks", std::to_string(spec.ranks));
  report.stamp("threads_per_rank", std::to_string(threads_per_rank(spec)));
  report.stamp("train_samples", std::to_string(setup.train->size()));
  report.stamp("val_samples", std::to_string(setup.val->size()));

  // Repeats run untraced; a traced run adds one traced repeat after
  // them, whose figures are the per-layer metrics.
  cf::obs::Tracer::global().set_enabled(false);
  SpanLog::global().set_enabled(false);
  std::vector<double> steps;
  std::optional<double> reference_loss;
  std::unique_ptr<cf::core::Trainer> trainer;
  const double start = now_seconds();
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  int repeats = 0;
  for (;;) {
    const double begin = now_seconds();
    const RepeatResult r = run_once(topology, spec, setup, args, trainer);
    const double last = now_seconds() - begin;
    ++repeats;
    report.attempt();
    steps.insert(steps.end(), r.step_seconds.begin(), r.step_seconds.end());
    if (!std::isfinite(r.val_loss)) {
      report.fail("val_loss is not finite");
    } else if (!(r.last_train_loss < r.first_train_loss)) {
      report.fail("the last epoch's training loss is not below the first's");
    } else if (reference_loss &&
               std::memcmp(&*reference_loss, &r.val_loss, sizeof(double)) !=
                   0) {
      report.fail("val_loss differs between repeats of one seed");
    }
    if (!reference_loss) {
      reference_loss = r.val_loss;
      report.stamp("train_loss_first_epoch", json_number(r.first_train_loss));
      report.stamp("train_loss_last_epoch", json_number(r.last_train_loss));
    }
    // Stop before a repeat that would overrun the budget by more than
    // half a repeat.
    if (now_seconds() - start + 0.5 * last > budget) break;
  }
  const double untraced_sps = samples_per_s(spec, steps);
  report.e2e("samples_per_s", untraced_sps);
  report.e2e("p50_ms", 1e3 * median(steps));
  report.stamp("val_loss", json_number(*reference_loss));
  report.stamp("repeats", std::to_string(repeats));
  report.stamp("steps", std::to_string(steps.size()));

  if (args.trace) {
    const cf::obs::MetricsSnapshot before =
        cf::obs::Registry::global().snapshot();
    cf::obs::Tracer::global().set_enabled(true);
    SpanLog::global().set_enabled(true);
    const RepeatResult traced = run_once(topology, spec, setup, args, trainer);
    report.attempt();
    if (std::memcmp(&*reference_loss, &traced.val_loss, sizeof(double)) !=
        0) {
      report.fail("traced val_loss differs from the untraced repeats");
    }
    report_layers(spec, setup, *trainer, traced, before, untraced_sps,
                  report);
  }
}

}  // namespace bench
