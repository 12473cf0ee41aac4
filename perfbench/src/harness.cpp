#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace bench {

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-sha") {
      args.source_sha = value;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload needed");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds > 0");
  return args;
}

// --- Report ---------------------------------------------------------------

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"samples_per_s", "1/s"},
    {"p50_ms", "ms"},
};

namespace {

std::vector<MetricSpec> per_layer_table() {
  std::vector<MetricSpec> table = {
      {"cosmo.sims", "count"},       {"cosmo.sim_s", "s"},
      {"data.write_s", "s"},         {"data.write_bytes", "bytes"},
      {"data.wait_s", "s"},          {"data.read_gb_per_s", "GB/s"},
      {"data.samples", "count"},     {"data.bytes", "bytes"},
      {"data.pool_allocs", "count"},
  };
  // cosmoflow-128 has seven convolutions; cosmoflow-32 the first three.
  static const char* const kConvs[] = {
      "dnn.conv1.fwd_ms", "dnn.conv1.bww_ms", "dnn.conv1.bwd_ms",
      "dnn.conv2.fwd_ms", "dnn.conv2.bww_ms", "dnn.conv2.bwd_ms",
      "dnn.conv3.fwd_ms", "dnn.conv3.bww_ms", "dnn.conv3.bwd_ms",
      "dnn.conv4.fwd_ms", "dnn.conv4.bww_ms", "dnn.conv4.bwd_ms",
      "dnn.conv5.fwd_ms", "dnn.conv5.bww_ms", "dnn.conv5.bwd_ms",
      "dnn.conv6.fwd_ms", "dnn.conv6.bww_ms", "dnn.conv6.bwd_ms",
      "dnn.conv7.fwd_ms", "dnn.conv7.bww_ms", "dnn.conv7.bwd_ms"};
  for (const char* name : kConvs) table.push_back({name, "ms"});
  const std::vector<MetricSpec> rest = {
      {"dnn.conv_s", "s"},
      {"dnn.pool_s", "s"},
      {"dnn.dense_s", "s"},
      {"dnn.gflop_per_s", "GFLOP/s"},
      {"dnn.cost_model_pred_ms", "ms"},
      {"dnn.peak_tensor_bytes", "bytes"},
      {"optim.step_s", "s"},
      {"comm.exposed_s", "s"},
      {"comm.hidden_s", "s"},
      {"comm.overlap_fraction", "ratio"},
      {"comm.allreduce_calls", "count"},
      {"comm.allreduce_bytes", "bytes"},
      {"comm.buckets", "count"},
      {"train.steps", "count"},
      {"train.step_ms", "ms"},
      {"train.other_s", "s"},
      {"train.val_loss", "mse"},
      {"serve.p50_ms_low", "ms"},
      {"serve.p99_ms_low", "ms"},
      {"serve.p99_ms_high", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.compute_ms_p50", "ms"},
      {"serve.batch_fill_mean", "requests"},
      {"serve.accepted", "count"},
      {"serve.rejected", "count"},
      {"load.late_ms_p99", "ms"},
      {"obs.trace_dropped", "count"},
      {"obs.overhead_pct", "%"},
      {"host.steal_pct", "%"},
      {"bench.self_s", "s"},
      {"core.self_s", "s"},
      {"cosmo.self_s", "s"},
      {"data.self_s", "s"},
      {"dnn.self_s", "s"},
      {"serve.self_s", "s"},
  };
  table.insert(table.end(), rest.begin(), rest.end());
  return table;
}

void set_metric(const std::vector<MetricSpec>& table,
                std::map<std::string, double>& into, const std::string& name,
                double value) {
  const bool known = std::any_of(
      table.begin(), table.end(),
      [&](const MetricSpec& spec) { return name == spec.name; });
  if (!known) throw std::logic_error("metric not in the table: " + name);
  into[name] = value;
}

}  // namespace

const std::vector<MetricSpec> kPerLayer = per_layer_table();

void Report::e2e(const std::string& name, double value) {
  set_metric(kEndToEnd, e2e_, name, value);
}

void Report::layer(const std::string& name, double value) {
  set_metric(kPerLayer, layer_, name, value);
}

void Report::fail(const std::string& why) {
  ++failed_;
  // Keep the first few reasons; a systematic fault repeats itself.
  if (failures_.size() < 8) failures_.push_back(why);
  std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

void Report::stamp(const std::string& key, const std::string& json_value) {
  stamp_.emplace_back(key, json_value);
}

bool Report::print(const Args& args) const {
  std::string line = "{\"stamp\": {\"workload\": " +
                     json_string(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"commit\": " + json_string(args.commit) +
                     ", \"source_sha\": " + json_string(args.source_sha);
  for (const auto& [key, value] : stamp_) {
    line += ", " + json_string(key) + ": " + value;
  }
  line += ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    line += (i ? ", " : "") + json_string(failures_[i]);
  }
  line += "]}}";
  std::printf("%s\n", line.c_str());

  const std::vector<MetricSpec>& table = args.trace ? kPerLayer : kEndToEnd;
  const std::map<std::string, double>& values = args.trace ? layer_ : e2e_;
  std::string result = std::string("{\"correct\": ") +
                       (failed_ == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ", \"metrics\": {";
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto it = values.find(table[i].name);
    if (it == values.end() && !args.trace) {
      std::fprintf(stderr, "cfbench: %s did not measure %s\n",
                   args.workload.c_str(), table[i].name);
      return false;
    }
    const double value = it == values.end() ? 0.0 : it->second;
    result += (i ? ", " : "") + json_string(table[i].name) +
              ": {\"value\": " + json_number(value) +
              ", \"unit\": " + json_string(table[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return true;
}

// --- Spans ------------------------------------------------------------------

namespace {
thread_local std::vector<std::int64_t> open_spans;
}  // namespace

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

std::int64_t SpanLog::current() {
  return open_spans.empty() ? -1 : open_spans.back();
}

std::int64_t SpanLog::begin(const char* name, const char* layer,
                            std::uint64_t request_id) {
  if (!enabled_) return -1;
  const std::int64_t parent = current();
  const std::uint64_t now = cf::obs::Tracer::now_ns();
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, layer, now, now, parent, request_id});
  }
  open_spans.push_back(id);
  return id;
}

void SpanLog::end(std::int64_t id) {
  if (id < 0) return;
  const std::uint64_t now = cf::obs::Tracer::now_ns();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::int64_t SpanLog::add(const char* name, const char* layer,
                          std::uint64_t start_ns, std::uint64_t end_ns,
                          std::int64_t parent, std::uint64_t request_id) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, layer, start_ns, end_ns, parent, request_id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::set_end(std::int64_t id, std::uint64_t end_ns) {
  if (id < 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
}

std::map<std::string, double> SpanLog::self_seconds_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (const std::size_t c : children[i]) {
      const std::uint64_t b = std::max(spans_[c].start_ns, span.start_ns);
      const std::uint64_t e = std::min(spans_[c].end_ns, span.end_ns);
      if (e > b) covered.emplace_back(b, e);
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t busy = 0;
    std::uint64_t reach = 0;
    for (const auto& [b, e] : covered) {
      const std::uint64_t from = std::max(b, reach);
      if (e > from) busy += e - from;
      reach = std::max(reach, e);
    }
    const std::uint64_t duration = span.end_ns - span.start_ns;
    self[span.layer] +=
        static_cast<double>(duration - std::min(duration, busy)) / 1e9;
  }
  return self;
}

bool SpanLog::write_json(const std::string& path) const {
  const std::map<std::string, double> self = self_seconds_by_layer();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"self_seconds_by_layer\": {";
  bool first = true;
  for (const auto& [layer, seconds] : self) {
    out << (first ? "" : ", ") << json_string(layer) << ": "
        << json_number(seconds);
    first = false;
  }
  out << "},\n \"spans\": [\n";
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"layer\": " << json_string(s.layer)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent
        << ", \"request_id\": " << s.request_id << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

SpanScope::SpanScope(const char* name, const char* layer,
                     std::uint64_t request_id)
    : id_(SpanLog::global().begin(name, layer, request_id)) {}

SpanScope::~SpanScope() { SpanLog::global().end(id_); }

// --- Host ---------------------------------------------------------------

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes times;
  if (!(in >> label) || label != "cpu") return times;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double steal_percent(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

namespace {

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

// Last-level cache size in bytes (0 if unknown).
std::uint64_t llc_bytes() {
  // The highest cache index is the last level.
  std::uint64_t bytes = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string size;
    if (!(in >> size)) break;
    std::uint64_t value = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') value <<= 10;
    if (size.back() == 'M') value <<= 20;
    bytes = value;
  }
  return bytes;
}

}  // namespace

void stamp_host(Report& report) {
  report.stamp("cpu_model", json_string(cpuinfo_field("model name")));
  // The ISA extensions the kernels dispatch on, as the CPU reports them.
  std::istringstream flags(cpuinfo_field("flags"));
  static const char* const kIsa[] = {
      "sse4_2",      "avx2",        "fma",      "avx512f",
      "avx512bw",    "avx512_vnni", "avx512_bf16", "amx_tile",
      "amx_bf16",    "amx_int8"};
  std::string isa;
  std::string flag;
  while (flags >> flag) {
    for (const char* wanted : kIsa) {
      if (flag == wanted) isa += (isa.empty() ? "" : " ") + flag;
    }
  }
  report.stamp("isa", json_string(isa));
  report.stamp("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.stamp("pool_threads",
               std::to_string(cf::runtime::ThreadPool::default_num_threads()));
  report.stamp("llc_bytes", std::to_string(llc_bytes()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// --- Statistics ---------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace bench
