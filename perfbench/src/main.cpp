// cfbench — the repository benchmark. One binary, four workloads:
//
//   cfbench --workload train-128|train-32x4|serve-32|ingest-128
//           --seed N --seconds S --trace 0|1
//           [--commit SHA] [--source-sha HASH] [--out DIR]
//
// Every input is generated from --seed. An untraced run (--trace 0)
// switches the program's tracer off and prints the end-to-end metrics;
// a traced run (--trace 1) switches it on, records benchmark-side spans
// around every public call, and prints the per-layer metrics. The last
// stdout line is the result object; the line before it stamps the host.
// perfbench/run.py builds this binary and is the command to run.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace bench {

cf::core::GeneratedDataset simulate(std::int64_t dhw, std::size_t boxes,
                                    std::uint64_t seed,
                                    cf::runtime::ThreadPool& pool) {
  cf::core::DatasetGenConfig gen;
  gen.simulations = boxes;
  gen.sim.grid = {dhw, 4.0 * static_cast<double>(dhw)};
  gen.sim.voxels = 2 * dhw;
  gen.seed = seed;
  gen.val_fraction = 0.0;
  gen.test_fraction = 0.0;
  SpanScope span("cosmo/generate_dataset", "cosmo");
  return cf::core::generate_dataset(gen, pool);
}

WorkDir::WorkDir(const Args& args, const std::string& tag)
    : path_(args.out_dir + "/work-" + tag + "-" +
            std::to_string(::getpid())) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace bench

int main(int argc, char** argv) {
  using namespace bench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cfbench: %s\n", e.what());
    return 2;
  }
  if (args.trace) {
    // The tracer sizes its per-thread rings when it is first used. The
    // 16384-event default holds about a third of a 15 s serve run's
    // events per worker, and a traced run fails on any dropped event.
    // An explicit setting in the environment wins.
    ::setenv("COSMOFLOW_TRACE_CAPACITY", "131072", /*overwrite=*/0);
  }
  cf::obs::Tracer::global().set_enabled(args.trace);
  SpanLog::global().set_enabled(args.trace);

  Report report;
  stamp_host(report);
  const CpuTimes cpu_before = read_cpu_times();
  try {
    std::filesystem::create_directories(args.out_dir);
    if (args.workload == "train-128" || args.workload == "train-32x4") {
      run_train(args, report);
    } else if (args.workload == "serve-32") {
      run_serve(args, report);
    } else if (args.workload == "ingest-128") {
      run_ingest(args, report);
    } else {
      std::fprintf(stderr, "cfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  const double steal = steal_percent(cpu_before, read_cpu_times());
  report.stamp("steal_pct", json_number(steal));
  report.e2e("peak_rss_mb", peak_rss_mb());

  if (args.trace) {
    report.layer("host.steal_pct", steal);
    const std::uint64_t dropped = cf::obs::Tracer::global().dropped();
    report.layer("obs.trace_dropped", static_cast<double>(dropped));
    // An incomplete trace cannot back a per-layer figure.
    if (dropped != 0) report.fail("program tracer dropped events");
    for (const auto& [layer, seconds] :
         SpanLog::global().self_seconds_by_layer()) {
      report.layer(layer + ".self_s", seconds);
    }
    const std::string base = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    if (!SpanLog::global().write_json(base + "-spans.json") ||
        !cf::obs::Tracer::global().write_chrome_trace(base + "-trace.json")) {
      std::fprintf(stderr, "cfbench: cannot write traces under %s\n",
                   args.out_dir.c_str());
      return 1;
    }
  }
  return report.print(args) ? 0 : 1;
}
