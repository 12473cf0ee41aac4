// serve-32: cf::serve over cosmoflow-32 in bf16, driven open-loop.
//
// One generator thread sends a fixed Poisson schedule, drawn from the
// seed, at three absolute rates: low, high and overload. The rates are
// constants of the benchmark (fixed against the measured capacity of
// the commit that introduced it) and are never derived from the run, so
// the offered load does not move with the code under test. Each request
// is timed from the instant it was due to be sent; its completion is
// the worker's result-ready stamp (InferenceResult::total_seconds after
// the submit call), because a future offers no completion callback and
// an in-order collector would stamp out-of-order completions late.
//
// The admission queue is sized so that no phase sheds: the overload
// phase measures the completion rate of a saturated server, reported as
// samples_per_s. p50_ms is the median latency at the high rate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "core/topology.hpp"
#include "dnn/cost_model.hpp"
#include "dnn/exec_context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/rng.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Phase {
  const char* name;
  double rate;   // requests per second, fixed
  double share;  // of --seconds
};

// About 0.2x, 0.6x and 1.5x of the ~1650 requests/s a saturated server
// completed on the 4-core host the benchmark was introduced on (see
// perfbench/README.md).
constexpr Phase kLow{"low", 300.0, 0.4};
constexpr Phase kHigh{"high", 900.0, 0.35};
constexpr Phase kOverload{"overload", 2400.0, 0.25};
// Low, high and overload take turns in this many blocks each, so a slow
// drift of the host lands on every phase alike.
constexpr std::size_t kRounds = 4;
// At least 1000 requests per phase leaves 10 samples beyond its p99.
constexpr std::size_t kMinRequests = 1000;

std::size_t phase_requests(const Phase& phase, double seconds) {
  return std::max(kMinRequests, static_cast<std::size_t>(
                                    phase.rate * phase.share * seconds));
}

struct ServeSetup {
  std::shared_ptr<const cf::dnn::Network> network;
  std::vector<cf::tensor::Tensor> inputs;
  std::vector<std::vector<float>> expected;  // serial bf16 reference
  std::unique_ptr<cf::serve::Server> server;
  std::size_t workers = 0;
  std::size_t threads_per_worker = 0;
  std::size_t sims = 0;
  double sim_seconds = 0.0;
  // The serial reference pass: one bf16 forward per input, 1 thread.
  std::vector<cf::dnn::LayerProfile> reference_profiles;

  void reset() { *this = ServeSetup{}; }
};

ServeSetup make_setup(const Args& args) {
  ServeSetup setup;
  cf::runtime::ThreadPool pool;
  // 16 boxes: 128 distinct inputs, each with its serial reference output.
  const double start = now_seconds();
  cf::core::GeneratedDataset dataset = simulate(32, 16, args.seed, pool);
  setup.sim_seconds = now_seconds() - start;
  setup.sims = 16;
  std::shared_ptr<cf::dnn::Network> network;
  {
    SpanScope span("dnn/build_network", "dnn");
    network = std::make_shared<cf::dnn::Network>(cf::core::build_network(
        cf::core::preset_topology("cosmoflow-32"), args.seed));
    network->prepare_inference_precision(cf::dnn::Precision::kBf16);
  }
  setup.network = network;
  {
    SpanScope span("dnn/serial_reference", "dnn");
    cf::dnn::ExecContext ctx = setup.network->make_context(
        cf::dnn::ExecMode::kInference, cf::dnn::Precision::kBf16);
    cf::runtime::ThreadPool serial(1);
    for (cf::data::Sample& sample : dataset.train) {
      setup.expected.push_back(ctx.forward(sample.volume, serial).to_vector());
      setup.inputs.push_back(std::move(sample.volume));
    }
    setup.reference_profiles = ctx.profiles();
  }
  SpanScope span("serve/start", "serve");
  const cf::dnn::IntraopPlan plan = cf::dnn::CostModel(*setup.network)
      .choose(cf::runtime::ThreadPool::default_num_threads());
  cf::serve::ServerConfig config;
  config.workers = plan.streams;
  config.threads_per_worker = 0;  // the same cost-model plan per worker
  config.precision = cf::dnn::Precision::kBf16;
  config.queue_capacity = 1 << 14;
  setup.workers = plan.streams;
  setup.threads_per_worker = plan.threads_per_stream;
  setup.server =
      std::make_unique<cf::serve::Server>(setup.network, config);
  return setup;
}

// Completions per group of a completion rate.
constexpr std::size_t kRateGroup = 100;

// Completion rates of consecutive groups of kRateGroup completions:
// each group's rate is kRateGroup over the time from the last
// completion before it to its own last one.
void append_group_rates(std::vector<double> completions,
                        std::vector<double>& rates) {
  std::sort(completions.begin(), completions.end());
  for (std::size_t end = kRateGroup; end < completions.size();
       end += kRateGroup) {
    const double span = completions[end] - completions[end - kRateGroup];
    rates.push_back(static_cast<double>(kRateGroup) /
                    std::max(1e-9, span));
  }
}

// One request's client-side record.
struct Sent {
  std::size_t input = 0;
  double due = 0.0;   // scheduled send, seconds on the steady clock
  double call = 0.0;  // when submit was called
  std::uint64_t id = 0;
  std::int64_t span = -1;
  std::future<cf::serve::InferenceResult> future;
};

struct PhaseResult {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<double> queue_ms;
  std::vector<double> compute_ms;
  std::vector<double> rates;  // completions/s per group of completions
};

double to_seconds(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

// A steady-clock instant (seconds) on the tracer's clock (ns).
std::uint64_t tracer_ns(double seconds) {
  const double offset =
      static_cast<double>(cf::obs::Tracer::now_ns()) - now_seconds() * 1e9;
  return static_cast<std::uint64_t>(seconds * 1e9 + offset);
}

// Sends `requests` requests of one phase on a Poisson schedule drawn
// from (seed, stream), waits for every one, and appends the figures to
// `into`.
void run_block(const Args& args, const Phase& phase, std::uint64_t stream,
               std::size_t requests, ServeSetup& setup,
               std::uint64_t& next_request_id, PhaseResult& into,
               Report& report) {
  cf::runtime::Rng rng(args.seed, 0x5e7e0000ULL + stream);
  std::vector<double> offsets(requests);
  double t = 0.0;
  for (double& offset : offsets) {
    offset = t;
    const double u = rng.uniform_double();
    t += -std::log(1.0 - std::min(u, 0.9999999)) / phase.rate;
  }

  std::vector<Sent> sent(requests);
  SpanLog& log = SpanLog::global();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const double t0_s = to_seconds(t0);
  SpanScope block_span(phase.name, "bench");
  const std::int64_t block_id = SpanLog::current();
  for (std::size_t i = 0; i < requests; ++i) {
    Sent& s = sent[i];
    s.id = next_request_id++;
    s.input = static_cast<std::size_t>(s.id * 7 % setup.inputs.size());
    s.due = t0_s + offsets[i];
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(offsets[i])));
    cf::tensor::Tensor input = setup.inputs[s.input].clone();
    s.call = now_seconds();
    report.attempt();
    // The request's span runs from its due time to its completion; the
    // submit call is its child. Both carry the request id.
    s.span = log.add("serve/request", "serve", tracer_ns(s.due), 0,
                     block_id, s.id);
    const std::uint64_t submit_begin = cf::obs::Tracer::now_ns();
    const cf::serve::SubmitStatus status =
        setup.server->submit(std::move(input), &s.future);
    log.add("serve/submit", "serve", submit_begin,
            cf::obs::Tracer::now_ns(), s.span, s.id);
    if (status != cf::serve::SubmitStatus::kAccepted) {
      report.fail(std::string("request refused in phase ") + phase.name);
    }
  }

  std::vector<double> completions;
  completions.reserve(requests);
  for (Sent& s : sent) {
    if (!s.future.valid()) continue;
    cf::serve::InferenceResult r;
    try {
      r = s.future.get();
    } catch (const std::exception& e) {
      report.fail(std::string("request failed: ") + e.what());
      continue;
    }
    const std::vector<float>& want = setup.expected[s.input];
    if (r.output.size() != want.size() ||
        std::memcmp(r.output.data(), want.data(),
                    want.size() * sizeof(float)) != 0) {
      report.fail("served output differs from the serial bf16 reference");
      continue;
    }
    const double completed = s.call + r.total_seconds;
    completions.push_back(completed);
    into.latency_ms.push_back(1e3 * (completed - s.due));
    into.late_ms.push_back(1e3 * (s.call - s.due));
    into.queue_ms.push_back(1e3 * r.queue_seconds);
    into.compute_ms.push_back(1e3 * r.compute_seconds);
    log.set_end(s.span, tracer_ns(completed));
  }
  append_group_rates(std::move(completions), into.rates);
}

// Per-layer figures of set-up: the simulator, and the dnn forward of
// the serial bf16 reference pass (the kernels the workers run, on one
// thread).
void report_setup_layers(const ServeSetup& setup, Report& report) {
  report.layer("cosmo.sims", static_cast<double>(setup.sims));
  report.layer("cosmo.sim_s",
               setup.sim_seconds / static_cast<double>(setup.sims));
  double flops = 0.0;
  double seconds = 0.0;
  std::map<std::string, double> by_kind;
  for (const cf::dnn::LayerProfile& p : setup.reference_profiles) {
    flops += static_cast<double>(p.flops.fwd) * p.fwd.count();
    seconds += p.fwd.total();
    by_kind[p.kind] += p.fwd.total();
    if (p.kind == "conv") {
      report.layer("dnn." + p.name + ".fwd_ms", 1e3 * p.fwd.mean());
    }
  }
  report.layer("dnn.conv_s", by_kind["conv"]);
  report.layer("dnn.pool_s", by_kind["pool"]);
  report.layer("dnn.dense_s", by_kind["dense"]);
  report.layer("dnn.gflop_per_s", flops / seconds / 1e9);
  report.layer("dnn.cost_model_pred_ms",
               1e3 * cf::dnn::CostModel(*setup.network)
                         .predicted_seconds(setup.threads_per_worker));
  report.layer("dnn.peak_tensor_bytes",
               static_cast<double>(setup.network->peak_tensor_bytes()));
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  ServeSetup setup =
      repeated_setup(report, [&] { return make_setup(args); });
  report.stamp("workers", std::to_string(setup.workers));
  report.stamp("threads_per_worker",
               std::to_string(setup.threads_per_worker));
  std::string rates;
  for (const Phase* p : {&kLow, &kHigh, &kOverload}) {
    rates += (rates.empty() ? "" : ", ") + json_string(p->name) + ": " +
             json_number(p->rate);
  }
  report.stamp("rates_rps", "{" + rates + "}");

  std::uint64_t next_request_id = 1;
  PhaseResult low;
  PhaseResult high;
  PhaseResult over;
  const std::size_t low_n = phase_requests(kLow, args.seconds);
  const std::size_t high_n = phase_requests(kHigh, args.seconds);
  const std::size_t over_n = phase_requests(kOverload, args.seconds);
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Block sizes sum to the phase's total.
    const auto block = [&](std::size_t total) {
      return total * (round + 1) / kRounds - total * round / kRounds;
    };
    run_block(args, kLow, 3 * round, block(low_n), setup, next_request_id,
              low, report);
    run_block(args, kHigh, 3 * round + 1, block(high_n), setup,
              next_request_id, high, report);
    run_block(args, kOverload, 3 * round + 2, block(over_n), setup,
              next_request_id, over, report);
  }
  // Saturated throughput: the median group rate of every overload block,
  // so a burst of host preemption in one group does not set it.
  const double overload_rps = median(over.rates);
  report.e2e("samples_per_s", overload_rps);
  report.e2e("p50_ms", percentile(high.latency_ms, 0.50));
  // The p99s follow the host's preemption rate more than the code: their
  // spread over seeds on a shared 4-core VM exceeds any usable bound, so
  // untraced runs stamp them and traced runs report them per layer.
  const double p50_low = percentile(low.latency_ms, 0.50);
  const double p99_low = percentile(low.latency_ms, 0.99);
  const double p99_high = percentile(high.latency_ms, 0.99);
  report.stamp("p50_ms_low", json_number(p50_low));
  report.stamp("p99_ms_low", json_number(p99_low));
  report.stamp("p99_ms_high", json_number(p99_high));
  report.stamp("requests_low", std::to_string(low.latency_ms.size()));
  report.stamp("requests_high", std::to_string(high.latency_ms.size()));
  report.stamp("requests_overload", std::to_string(over.latency_ms.size()));

  if (args.trace) {
    const cf::obs::MetricsSnapshot m =
        cf::obs::Registry::global().snapshot();
    // Tracing overhead: one more overload block with the tracers off.
    cf::obs::Tracer::global().set_enabled(false);
    SpanLog::global().set_enabled(false);
    PhaseResult untraced;
    run_block(args, kOverload, 3 * kRounds, over_n / kRounds, setup,
              next_request_id, untraced, report);
    report.layer("obs.overhead_pct",
                 100.0 * (median(untraced.rates) / overload_rps - 1.0));
    // Queueing and compute below saturation (the overload phase's queue
    // wait is its backlog); generator lateness over every phase.
    std::vector<double> queue;
    std::vector<double> compute;
    std::vector<double> late;
    for (const PhaseResult* r : {&low, &high}) {
      queue.insert(queue.end(), r->queue_ms.begin(), r->queue_ms.end());
      compute.insert(compute.end(), r->compute_ms.begin(),
                     r->compute_ms.end());
    }
    for (const PhaseResult* r : {&low, &high, &over}) {
      late.insert(late.end(), r->late_ms.begin(), r->late_ms.end());
    }
    report.layer("serve.p50_ms_low", p50_low);
    report.layer("serve.p99_ms_low", p99_low);
    report.layer("serve.p99_ms_high", p99_high);
    report.layer("serve.queue_ms_p50", percentile(queue, 0.50));
    report.layer("serve.queue_ms_p99", percentile(queue, 0.99));
    report.layer("serve.compute_ms_p50", percentile(compute, 0.50));
    report.layer("load.late_ms_p99", percentile(late, 0.99));
    report.layer("serve.batch_fill_mean",
                 m.stats.at("serve/batch_fill").mean());
    report.layer("serve.accepted",
                 static_cast<double>(m.counters.at("serve/accepted")));
    report.layer("serve.rejected",
                 static_cast<double>(m.counters.at("serve/rejected")));
    report_setup_layers(setup, report);
  }
  SpanScope span("serve/shutdown", "serve");
  setup.server->shutdown();
}

}  // namespace bench
