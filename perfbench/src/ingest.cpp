// ingest-128: data::Pipeline drains cfrecord shards of 128^3 samples
// through mmap, the hardware CRC and nproc - 1 I/O threads, with no
// compute behind it.
//
// Set-up simulates one box, orients each of its 8 octants under two
// seeded orientations (16 distinct samples, 128 MiB) and writes them
// kCopies times over, one shard per copy in its own seeded order, so the
// shards (1.25 GiB) outgrow the last-level cache several times over
// while the references stay small enough to compare against at the
// pipeline's pace. setup_s therefore covers the data write path. A run
// drains the shards epoch after epoch, in a seeded order, until
// --seconds have passed; samples_per_s is the median over timed epochs,
// and p50_ms is 1000 / samples_per_s, the time per delivered sample.
// Every delivered sample is identified against the generated samples
// and each must arrive kCopies times per epoch; every fourth epoch, not
// timed, also compares every sample byte for byte with memcmp.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/augment.hpp"
#include "data/dataset.hpp"
#include "data/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/rng.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

constexpr std::size_t kOrientations = 2;  // per octant: 16 references
constexpr std::size_t kCopies = 10;       // shards: 160 x 8 MiB samples

// A cheap identity for a sample: its targets and 512 strided voxels.
// It only finds the reference to memcmp against, never decides a match.
std::uint64_t fingerprint(const cf::data::Sample& sample) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, p, sizeof(bits));
    h = (h ^ bits) * 1099511628211ULL;
  };
  for (const float& t : sample.target) mix(&t);
  const std::size_t n = sample.volume.size();
  for (std::size_t i = 0; i < n; i += n / 512) mix(sample.volume.data() + i);
  return h;
}

struct IngestSetup {
  std::unique_ptr<WorkDir> dir;
  std::vector<cf::data::Sample> samples;  // the generated references
  std::unordered_multimap<std::uint64_t, std::size_t> by_fingerprint;
  std::unique_ptr<cf::data::CfrecordSource> source;
  std::size_t sims = 0;
  double sim_seconds = 0.0;
  double write_seconds = 0.0;
  std::uint64_t write_bytes = 0;

  void reset() { *this = IngestSetup{}; }
};

IngestSetup make_setup(const Args& args) {
  IngestSetup setup;
  setup.dir = std::make_unique<WorkDir>(args, args.workload);
  cf::runtime::ThreadPool pool;
  const double start = now_seconds();
  const cf::core::GeneratedDataset dataset =
      simulate(128, 1, args.seed, pool);
  setup.sim_seconds = now_seconds() - start;
  setup.sims = 1;

  {
    SpanScope span("bench/orient", "bench");
    cf::runtime::Rng rng(args.seed, 0x696e67657374ULL);  // "ingest"
    for (const cf::data::Sample& octant : dataset.train) {
      // Distinct codes per octant, so no two references share bytes.
      std::vector<std::uint32_t> codes(cf::data::kOrientationCount);
      for (std::uint32_t i = 0; i < codes.size(); ++i) codes[i] = i;
      for (std::size_t i = 0; i < kOrientations; ++i) {
        std::swap(codes[i], codes[i + rng.uniform_index(codes.size() - i)]);
        cf::data::Sample& ref = setup.samples.emplace_back();
        ref.volume = cf::tensor::Tensor(octant.volume.shape());
        ref.target = octant.target;
        cf::data::orient_volume_into(octant.volume, ref.volume.values(),
                                     codes[i]);
      }
    }
  }
  for (std::size_t k = 0; k < setup.samples.size(); ++k) {
    setup.by_fingerprint.emplace(fingerprint(setup.samples[k]), k);
  }
  std::vector<std::string> paths;
  {
    SpanScope span("data/write_shards", "data");
    const double write_start = now_seconds();
    for (std::size_t copy = 0; copy < kCopies; ++copy) {
      const std::vector<std::string> shard = cf::data::write_shards(
          setup.samples, setup.dir->path(),
          "ingest" + std::to_string(copy), setup.samples.size(),
          args.seed + copy);
      paths.insert(paths.end(), shard.begin(), shard.end());
    }
    setup.write_seconds = now_seconds() - write_start;
  }
  for (const cf::data::Sample& ref : setup.samples) {
    setup.write_bytes += kCopies * ref.volume.size() * sizeof(float);
  }
  SpanScope span("data/open_shards", "data");
  setup.source = std::make_unique<cf::data::CfrecordSource>(paths);
  return setup;
}

struct EpochResult {
  double samples_per_s = 0.0;
  double seconds = 0.0;
};

// One epoch in a seeded order. Every delivered sample is identified by
// its fingerprint, and each reference must arrive kCopies times. With
// `full_check` every sample is also compared byte for byte with memcmp;
// such epochs are not timed, because the compare reads as many bytes as
// the pipeline moves and would cap the rate the consumer can take.
EpochResult drain(cf::data::Pipeline& pipeline, const IngestSetup& setup,
                  std::uint64_t epoch_seed, bool full_check,
                  Report& report) {
  std::vector<std::size_t> order = cf::data::epoch_indices_for_rank(
      setup.source->size(), 1, 0, epoch_seed, /*shuffle=*/true);
  std::vector<std::uint32_t> seen(setup.samples.size(), 0);
  cf::data::Sample sample;
  std::size_t delivered = 0;
  const double start = now_seconds();
  pipeline.start_epoch(std::move(order));
  for (;;) {
    bool more = false;
    {
      SpanScope span("data/next", "data");
      more = pipeline.next(sample);
    }
    if (!more) break;
    ++delivered;
    report.attempt();
    SpanScope span("bench/verify", "bench");
    const std::size_t bytes = sample.volume.size() * sizeof(float);
    bool matched = false;
    const auto [first, last] =
        setup.by_fingerprint.equal_range(fingerprint(sample));
    for (auto it = first; it != last && !matched; ++it) {
      const cf::data::Sample& ref = setup.samples[it->second];
      if (ref.volume.size() * sizeof(float) == bytes &&
          ref.target == sample.target &&
          (!full_check ||
           std::memcmp(ref.volume.data(), sample.volume.data(), bytes) ==
               0)) {
        matched = true;
        ++seen[it->second];
      }
    }
    if (!matched) report.fail("delivered sample matches no generated sample");
  }
  const double seconds = now_seconds() - start;
  if (delivered != setup.source->size() ||
      std::any_of(seen.begin(), seen.end(),
                  [](std::uint32_t n) { return n != kCopies; })) {
    report.attempt();
    report.fail("an epoch did not deliver every shard record exactly once");
  }
  return {static_cast<double>(delivered) / seconds, seconds};
}

}  // namespace

void run_ingest(const Args& args, Report& report) {
  IngestSetup setup =
      repeated_setup(report, [&] { return make_setup(args); });
  const std::size_t io_threads = std::max<std::size_t>(
      1, cf::runtime::ThreadPool::default_num_threads() - 1);
  report.stamp("io_threads", std::to_string(io_threads));
  report.stamp("working_set_bytes", std::to_string(setup.write_bytes));
  report.stamp("mapped", setup.source->mapped() ? "true" : "false");

  cf::data::PipelineConfig config;
  config.io_threads = io_threads;
  config.metric_prefix = "data/pipeline/ingest";
  cf::data::Pipeline pipeline(*setup.source, config);

  // Every fourth epoch is a full memcmp check; the others are timed. A
  // traced run traces every other timed epoch, so the overhead compares
  // like with like.
  std::vector<double> untraced;
  std::vector<double> traced;
  double traced_seconds = 0.0;
  double traced_wait = 0.0;
  cf::obs::Registry& registry = cf::obs::Registry::global();
  registry.reset_prefix("data/pipeline/");
  const double start = now_seconds();
  std::size_t checked = 0;
  for (std::uint64_t epoch = 0;; ++epoch) {
    const bool full_check = epoch % 4 == 3;
    const bool trace_epoch = args.trace && epoch % 2 == 1 && !full_check;
    cf::obs::Tracer::global().set_enabled(trace_epoch);
    SpanLog::global().set_enabled(trace_epoch);
    if (trace_epoch) pipeline.reset_wait_time();
    const EpochResult r = drain(pipeline, setup,
                                args.seed * 1000003ULL + epoch, full_check,
                                report);
    if (full_check) {
      ++checked;
    } else if (trace_epoch) {
      traced.push_back(r.samples_per_s);
      traced_seconds += r.seconds;
      traced_wait += pipeline.wait_time().total();
    } else {
      untraced.push_back(r.samples_per_s);
    }
    if (now_seconds() - start > args.seconds && checked > 0 &&
        (!args.trace || trace_epoch)) {
      break;
    }
  }
  SpanLog::global().set_enabled(args.trace);
  report.e2e("samples_per_s", median(untraced));
  report.e2e("p50_ms", 1e3 / median(untraced));
  report.stamp("timed_epochs",
               std::to_string(untraced.size() + traced.size()));
  report.stamp("memcmp_epochs", std::to_string(checked));

  if (args.trace) {
    const cf::obs::MetricsSnapshot m = registry.snapshot();
    const auto counter = [&](const char* name) {
      const auto it = m.counters.find(name);
      return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto gauge = [&](const char* name) {
      const auto it = m.gauges.find(name);
      return it == m.gauges.end() ? 0.0 : it->second;
    };
    report.layer("cosmo.sims", static_cast<double>(setup.sims));
    report.layer("cosmo.sim_s",
                 setup.sim_seconds / static_cast<double>(setup.sims));
    report.layer("data.write_s", setup.write_seconds);
    report.layer("data.write_bytes", static_cast<double>(setup.write_bytes));
    report.layer("data.wait_s", traced_wait);
    report.layer("data.read_gb_per_s",
                 static_cast<double>(setup.write_bytes) *
                     static_cast<double>(traced.size()) / traced_seconds /
                     1e9);
    report.layer("data.samples", counter("data/pipeline/samples_prefetched"));
    report.layer("data.bytes", counter("data/pipeline/bytes_prefetched"));
    report.layer("data.pool_allocs", gauge("data/pipeline/pool_allocs"));
    report.layer("obs.overhead_pct",
                 100.0 * (median(untraced) / median(traced) - 1.0));
  }
}

}  // namespace bench
