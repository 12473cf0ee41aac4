// Shared plumbing of the repository benchmark (cfbench): arguments,
// the result report, benchmark-side spans, host stamp and the small
// statistics the workloads share.
//
// The benchmark drives the library only through its public entry
// points; everything here is the benchmark's own instrumentation.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";      // git commit of the checkout
  std::string source_sha = "unknown";  // content hash of src/ + perfbench/
  std::string out_dir = ".bench_out";  // scratch + trace output
};

/// Parses `--flag value` pairs; throws std::invalid_argument.
Args parse_args(int argc, char** argv);

/// A metric of BENCHMARK.json: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end and per-layer metrics, in BENCHMARK.json's order.
/// perfbench/run.py checks the printed result against that file.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// One benchmark run's verdict and figures. Every workload reports every
/// end-to-end metric. A per-layer metric a workload does not report is
/// printed as 0: the workload does no work in that layer.
class Report {
 public:
  /// Records a metric of kEndToEnd / kPerLayer; throws std::logic_error
  /// on a name that is not in the table.
  void e2e(const std::string& name, double value);
  void layer(const std::string& name, double value);

  /// Counts `n` operations attempted.
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  /// Records one failed operation (and marks the run incorrect).
  void fail(const std::string& why);
  /// Adds a host/config stamp field printed on the stamp line.
  void stamp(const std::string& key, const std::string& json_value);

  /// Prints the stamp line, then the result line (the last stdout line).
  /// Returns false, printing no result, if an untraced run lacks an
  /// end-to-end metric.
  bool print(const Args& args) const;

 private:
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
  std::vector<std::pair<std::string, std::string>> stamp_;
  std::vector<std::string> failures_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// --- Benchmark-side spans ---------------------------------------------

/// A span around one public call the benchmark makes. `layer` names the
/// repository module the call enters (cosmo, data, dnn, core, serve) or
/// "bench" for the benchmark's own work. Times are on the program
/// tracer's clock (obs::Tracer::now_ns), so both traces line up.
struct Span {
  std::string name;
  std::string layer;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request_id = 0;  // serve requests; 0 otherwise
};

/// In-memory span log, written out once at exit. Disabled (every call a
/// no-op returning -1) in untraced runs.
class SpanLog {
 public:
  static SpanLog& global();

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span whose parent is the calling thread's innermost open
  /// span; returns its id (-1 when disabled).
  std::int64_t begin(const char* name, const char* layer,
                     std::uint64_t request_id = 0);
  void end(std::int64_t id);
  /// Records a finished span with explicit times and parent.
  std::int64_t add(const char* name, const char* layer,
                   std::uint64_t start_ns, std::uint64_t end_ns,
                   std::int64_t parent, std::uint64_t request_id = 0);
  /// Sets the end of a span recorded by add() (no-op for id -1).
  void set_end(std::int64_t id, std::uint64_t end_ns);
  /// The calling thread's innermost open span (-1 if none).
  static std::int64_t current();

  /// Self time per layer, seconds: each span's duration minus the part
  /// of it its child spans cover, summed by layer.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Writes every span plus the per-layer self times as JSON.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on the global log.
class SpanScope {
 public:
  SpanScope(const char* name, const char* layer,
            std::uint64_t request_id = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t id_;
};

// --- Host ---------------------------------------------------------------

/// Cumulative steal and total jiffies from /proc/stat ("cpu" line).
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes read_cpu_times();
/// Steal share of all CPU time between two readings, percent.
double steal_percent(const CpuTimes& before, const CpuTimes& after);

/// Stamps CPU model, ISA flags, nproc, default pool threads and the
/// last-level cache size onto the report.
void stamp_host(Report& report);
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

// --- Statistics ---------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank quantile, q in (0, 1].
double percentile(std::vector<double> values, double q);

/// Monotonic seconds since an arbitrary epoch.
double now_seconds();

/// Formats a double with all its digits as a JSON number.
std::string json_number(double value);
std::string json_string(const std::string& value);

}  // namespace bench
