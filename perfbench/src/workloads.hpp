// The benchmark's workloads and the set-up helpers they share.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset_gen.hpp"
#include "harness.hpp"
#include "runtime/thread_pool.hpp"

namespace bench {

/// train-128 (paper preset, 1 rank x auto threads) and train-32x4
/// (4 ranks x 1 thread), both reading cfrecord shards.
void run_train(const Args& args, Report& report);
/// serve-32: open-loop Poisson traffic at fixed rates, bf16.
void run_serve(const Args& args, Report& report);
/// ingest-128: Pipeline drains cfrecord shards, no compute.
void run_ingest(const Args& args, Report& report);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// Simulates `boxes` boxes whose octants are dhw^3 samples (the
/// simulator deposits onto (2 dhw)^3 voxels from dhw^3 particles); all
/// 8 * boxes samples land in the result's `train` split.
cf::core::GeneratedDataset simulate(std::int64_t dhw, std::size_t boxes,
                                    std::uint64_t seed,
                                    cf::runtime::ThreadPool& pool);

/// A scratch directory under the run's output directory, removed with
/// everything in it when the object dies.
class WorkDir {
 public:
  WorkDir(const Args& args, const std::string& tag);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Runs `make` kSetupRepeats times, timing each; the previous product
/// is destroyed before the next is made, so peak memory holds one.
/// Reports the median as setup_s and returns the last product.
template <class Make>
auto repeated_setup(Report& report, Make make) -> decltype(make()) {
  std::vector<double> seconds;
  decltype(make()) product;
  for (int i = 0; i < kSetupRepeats; ++i) {
    product.reset();
    const double start = now_seconds();
    SpanScope span("bench/setup", "bench");
    product = make();
    seconds.push_back(now_seconds() - start);
  }
  report.e2e("setup_s", median(seconds));
  return product;
}

}  // namespace bench
