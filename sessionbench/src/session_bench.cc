// Session benchmark: runs one seeded workload end to end through the public
// API (MiningEngine, PartitionedTable, MiningServer / MiningClient), checks
// every answer, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer split of a
// traced run (--trace 1). Workloads, rates and limits are documented in
// sessionbench/NOTES.md.
//
// Usage:
//   session_bench --workload cold_paged|dist_gk|served_mix --seed N
//                 --seconds S --trace 0|1 --workerd PATH --work-dir DIR
//                 [--inject wrong-answer]
//
// Exit codes: 0 = ran and every check passed; 1 = an output check failed
// (the result line says "correct": false); 2 = bad arguments or a set-up
// failure (no result line).

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <cpuid.h>

#include "bucketing/simd_kernels.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/table_generator.h"
#include "dist/coordinator.h"
#include "dist/partitioned_table.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/miner.h"
#include "serve/client.h"
#include "serve/server.h"
#include "storage/buffer_pool.h"
#include "storage/columnar_batch.h"

#ifndef SESSIONBENCH_BUILD_TYPE
#define SESSIONBENCH_BUILD_TYPE "unknown"
#endif

namespace sessionbench {
namespace {

namespace fs = std::filesystem;
namespace obs = optrules::obs;
namespace rules = optrules::rules;
namespace serve = optrules::serve;
namespace dist = optrules::dist;
namespace storage = optrules::storage;
using optrules::Status;
using optrules::WallTimer;

// ------------------------------------------------------------ settings ----

// cold_paged: larger than the 64 MiB default BufferPool (72 MB of pages).
constexpr int64_t kColdPagedRows = 1'000'000;
// dist_gk and served_mix: pool-resident partitioned tables.
constexpr int64_t kPartitionedRows = 100'000;
constexpr int kPartitions = 4;
// At most nproc (4) pool threads, workers or client connections.
constexpr int kParallelism = 4;
// Set-up is repeated and its median reported, so one slow disk flush does
// not move setup_s.
constexpr int kSetupRepetitions = 5;

// served_mix open loop: three fixed offered rates (sessions/s); the
// end-to-end latencies are taken at the middle one. At 20/s about 30% of
// sessions queue behind cold engine builds and the median sat on that
// knee, moving 30-42 ms between runs; at 10/s it stays on the window.
constexpr double kServedRates[3] = {5.0, 10.0, 20.0};
constexpr int kMiddleRate = 1;
// Share of the timed phase spent at each rate. The middle rate gets most
// of it: its tail is the 10th-slowest session, which must be one of the
// cold sessions (one in kColdOneIn), so it needs well over 10 of them.
constexpr double kServedPhaseShare[3] = {0.1, 0.8, 0.1};
// Tail-latency limit a rate must meet to count as sustained.
constexpr double kLatencyLimitS = 0.150;
// One served session in this many carries an unseen threshold and forces
// a cold engine.
constexpr int kColdOneIn = 20;

constexpr const char* kCondition = "bool1";
constexpr const char* kObjective = "bool0";
constexpr const char* kRangeAttr = "num0";
constexpr const char* kAverageTarget = "num1";
constexpr const char* kRegionY = "num1";

// -------------------------------------------------------------- metrics ----

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json: the result line carries exactly these.
constexpr MetricSpec kEndToEnd[] = {
    {"session_ms_p50", "ms"}, {"session_ms_tail", "ms"},
    {"sessions_per_s", "1/s"}, {"setup_s", "s"}, {"peak_heap_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"storage.open_ms", "ms"},
    {"storage.page_loads", "count"},
    {"storage.pool_hit_rate", "ratio"},
    {"storage.io_wait_s", "s"},
    {"storage.load_s", "s"},
    {"bucketing.plan_s", "s"},
    {"bucketing.plan_share", "ratio"},
    {"bucketing.scan_s", "s"},
    {"bucketing.locate_s", "s"},
    {"bucketing.mask_s", "s"},
    {"bucketing.scatter_s", "s"},
    {"bucketing.scan_executions", "count"},
    {"dist.scan_s", "s"},
    {"dist.scan_self_s", "s"},
    {"dist.partition_s_p50", "s"},
    {"dist.partition_s_max", "s"},
    {"dist.retries", "count"},
    {"dist.workers_respawned", "count"},
    {"rules.prepare_s", "s"},
    {"rules.mine_allpairs_ms", "ms"},
    {"rules.mine_generalized_ms", "ms"},
    {"rules.mine_average_ms", "ms"},
    {"rules.hull_contexts_built", "count"},
    {"region.mine_ms", "ms"},
    {"serve.queue_wait_ms_mean", "ms"},
    {"serve.window_ms_mean", "ms"},
    {"serve.engine_cache_hit_rate", "ratio"},
    {"serve.sessions_per_window", "count"},
    {"serve.physical_scans", "count"},
    {"serve.rejected", "count"},
    {"serve.key_reuse_share", "ratio"},
    {"serve.unattributed_ms_mean", "ms"},
    {"threadpool.tasks", "count"},
    {"threadpool.task_s", "s"},
    {"cpu_s_per_session", "s"},
    {"unattributed_s", "s"},
    {"obs.spans_dropped", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"loadgen.lag_ms_max", "ms"},
};

/// Everything one run measured, printed by name and emitted as the
/// result line.
struct RunResult {
  std::map<std::string, double> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;  ///< extra "name = value unit" lines

  void Fail(const std::string& what) {
    if (check_failures.size() < 20) check_failures.push_back(what);
  }
  void Note(const std::string& name, double value, const std::string& unit) {
    char line[256];
    std::snprintf(line, sizeof(line), "%s = %.6g %s", name.c_str(), value,
                  unit.c_str());
    notes.emplace_back(line);
  }
};

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------- host ----

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string HostJson() {
  const storage::BufferPool* pool = storage::BufferPool::Default();
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"simd_arm\": "
      << JsonString(optrules::bucketing::simd::Active().name)
      << ", \"buffer_pool_bytes\": "
      << (pool == nullptr ? 0 : pool->capacity_bytes())
      << ", \"build_type\": " << JsonString(SESSIONBENCH_BUILD_TYPE) << "}";
  return out.str();
}

// ------------------------------------------------------------ sampling ----

/// Samples the heap this process has in use (glibc mallinfo2: allocated
/// arena chunks plus mmapped blocks) every 20 ms over the timed phase. The
/// reported peak heap is the median over 3-second windows of each window's
/// largest sample: every window holds at least one whole batch session, or
/// a few served cold-engine builds, so this is the high point a session
/// typically reaches, and one coincidence of transient allocations does
/// not set the figure.
///
/// It also records the largest resident-set sample, which is printed but
/// not gated: glibc keeps freed memory in per-thread arenas, so with the
/// readers' per-scan prefetch threads the resident set creeps up for the
/// first ~20 cold_paged sessions, and its peak over a run spread 13-17%
/// between seeds.
class PeakMemorySampler {
 public:
  PeakMemorySampler() : thread_([this] { Loop(); }) {}
  ~PeakMemorySampler() { Stop(); }
  PeakMemorySampler(const PeakMemorySampler&) = delete;
  PeakMemorySampler& operator=(const PeakMemorySampler&) = delete;

  /// Stops sampling (idempotent).
  void Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
  }
  double peak_heap_mb() const { return Median(window_heap_peaks_mb_); }
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  static constexpr double kMb = 1024.0 * 1024.0;
  static constexpr double kWindowSeconds = 3.0;

  double HeapMb() const {
    const struct mallinfo2 info = ::mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd) / kMb;
  }
  double ResidentMb() const {
    std::ifstream statm("/proc/self/statm");
    int64_t size_pages = 0;
    int64_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return static_cast<double>(resident_pages) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) / kMb;
  }
  void Loop() {
    double window_peak = 0.0;
    WallTimer window;
    for (;;) {
      const bool last = stop_.load();
      window_peak = std::max(window_peak, HeapMb());
      peak_rss_mb_ = std::max(peak_rss_mb_, ResidentMb());
      // A trailing partial window shorter than half a window is dropped
      // unless it is the only one.
      if (window.ElapsedSeconds() >= kWindowSeconds ||
          (last && (window.ElapsedSeconds() >= 0.5 * kWindowSeconds ||
                    window_heap_peaks_mb_.empty()))) {
        window_heap_peaks_mb_.push_back(window_peak);
        window_peak = 0.0;
        window.Reset();
      }
      if (last) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  std::atomic<bool> stop_{false};
  // Written by the sampler thread only; read after it is joined.
  std::vector<double> window_heap_peaks_mb_;
  double peak_rss_mb_ = 0.0;
  std::thread thread_;  // declared last: starts after the fields
};

/// User + system CPU seconds of this process and its reaped children
/// (subprocess scan workers).
double CpuSeconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    total +=
        static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                   usage.ru_stime.tv_usec);
  }
  return total;
}

/// Registry deltas between two snapshots.
struct RegistryDelta {
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;

  double Counter(const std::string& name) const {
    return static_cast<double>(Value(after.counters, name) -
                               Value(before.counters, name));
  }
  double HistogramSum(const std::string& name) const {
    return HistogramField(name, [](const obs::HistogramSnapshot& h) {
      return h.sum;
    });
  }
  double HistogramCount(const std::string& name) const {
    return HistogramField(name, [](const obs::HistogramSnapshot& h) {
      return static_cast<double>(h.count);
    });
  }

 private:
  static int64_t Value(const std::map<std::string, int64_t>& map,
                       const std::string& name) {
    const auto it = map.find(name);
    return it == map.end() ? 0 : it->second;
  }
  double HistogramField(
      const std::string& name,
      const std::function<double(const obs::HistogramSnapshot&)>& field)
      const {
    const auto a = after.histograms.find(name);
    if (a == after.histograms.end()) return 0.0;
    const auto b = before.histograms.find(name);
    return field(a->second) -
           (b == before.histograms.end() ? 0.0 : field(b->second));
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return Ratio(sum, static_cast<double>(values.size()));
}

// --------------------------------------------------------------- spans ----

/// Span records of a traced phase, indexed for per-layer attribution.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<obs::SpanRecord> records)
      : records_(std::move(records)) {
    for (size_t i = 0; i < records_.size(); ++i) {
      children_[records_[i].parent_id].push_back(i);
    }
  }

  /// Every record named `name`.
  std::vector<const obs::SpanRecord*> Named(const std::string& name) const {
    std::vector<const obs::SpanRecord*> out;
    for (const obs::SpanRecord& r : records_) {
      if (r.name == name) out.push_back(&r);
    }
    return out;
  }
  /// Summed duration of the direct children of `parent` named `name`.
  double ChildSeconds(const obs::SpanRecord& parent,
                      const std::string& name) const {
    double total = 0.0;
    for (const obs::SpanRecord* child : Children(parent)) {
      if (child->name == name) total += child->duration_seconds;
    }
    return total;
  }
  std::vector<const obs::SpanRecord*> Children(
      const obs::SpanRecord& parent) const {
    std::vector<const obs::SpanRecord*> out;
    const auto it = children_.find(parent.id);
    if (it == children_.end()) return out;
    for (const size_t i : it->second) out.push_back(&records_[i]);
    return out;
  }
  /// Time inside `parent` that none of its direct children covers.
  double SelfSeconds(const obs::SpanRecord& parent) const {
    std::vector<std::pair<double, double>> intervals;
    for (const obs::SpanRecord* child : Children(parent)) {
      intervals.emplace_back(child->start_seconds,
                             child->start_seconds + child->duration_seconds);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = parent.start_seconds;
    const double end = parent.start_seconds + parent.duration_seconds;
    for (const auto& [lo, hi] : intervals) {
      const double from = std::max(lo, reach);
      const double to = std::min(hi, end);
      if (to > from) covered += to - from;
      reach = std::max(reach, hi);
    }
    return parent.duration_seconds - covered;
  }

 private:
  std::vector<obs::SpanRecord> records_;
  std::map<uint64_t, std::vector<size_t>> children_;
};

/// Per-layer metrics every workload shares: registry-derived storage,
/// scan-phase, dist and thread-pool figures per session, plus the dist
/// span split.
void AddCommonLayerMetrics(const RegistryDelta& delta, const SpanIndex& spans,
                           double sessions, double cpu_seconds,
                           RunResult* result) {
  auto& m = result->metrics;
  const double hits = delta.Counter("bufferpool.hits");
  const double misses = delta.Counter("bufferpool.misses");
  m["storage.page_loads"] = Ratio(misses, sessions);
  m["storage.pool_hit_rate"] = Ratio(hits, hits + misses);
  m["storage.io_wait_s"] =
      Ratio(delta.HistogramSum("storage.page_io_wait_seconds"), sessions);
  m["storage.load_s"] =
      Ratio(delta.HistogramSum("bufferpool.load_seconds"), sessions);
  m["bucketing.locate_s"] =
      Ratio(delta.HistogramSum("scan.locate_seconds"), sessions);
  m["bucketing.mask_s"] = Ratio(delta.HistogramSum("scan.mask_seconds"),
                                sessions);
  m["bucketing.scatter_s"] =
      Ratio(delta.HistogramSum("scan.scatter_seconds"), sessions);
  m["bucketing.scan_executions"] =
      Ratio(delta.Counter("scan.executions"), sessions);
  m["dist.retries"] = delta.Counter("dist.retries");
  m["dist.workers_respawned"] = delta.Counter("dist.workers_respawned");
  m["threadpool.tasks"] = Ratio(delta.Counter("threadpool.tasks"), sessions);
  m["threadpool.task_s"] =
      Ratio(delta.HistogramSum("threadpool.task_seconds"), sessions);
  m["cpu_s_per_session"] = Ratio(cpu_seconds, sessions);

  double dist_scan = 0.0;
  double dist_self = 0.0;
  for (const obs::SpanRecord* scan : spans.Named("dist.scan")) {
    dist_scan += scan->duration_seconds;
    dist_self += spans.SelfSeconds(*scan);
  }
  std::vector<double> partitions;
  for (const obs::SpanRecord* p : spans.Named("dist.partition")) {
    partitions.push_back(p->duration_seconds);
  }
  m["dist.scan_s"] = Ratio(dist_scan, sessions);
  m["dist.scan_self_s"] = Ratio(dist_self, sessions);
  m["dist.partition_s_p50"] = Median(partitions);
  m["dist.partition_s_max"] =
      partitions.empty() ? 0.0
                         : *std::max_element(partitions.begin(),
                                             partitions.end());
}

/// Drains the default tracer: its records, and whether any were dropped.
std::vector<obs::SpanRecord> DrainTrace(uint64_t* dropped) {
  obs::Tracer& tracer = obs::Tracer::Default();
  std::vector<obs::SpanRecord> records = tracer.Snapshot();
  *dropped += tracer.dropped_spans();
  tracer.Clear();
  return records;
}

/// A traced run must see every span, or its per-layer split is partial.
void RecordDroppedSpans(uint64_t dropped, RunResult* result) {
  result->metrics["obs.spans_dropped"] = static_cast<double>(dropped);
  if (dropped > 0) {
    result->Fail("the tracer dropped " + std::to_string(dropped) + " spans");
  }
}

void StartTrace() {
  obs::Tracer::Default().Clear();
  obs::Tracer::Default().set_enabled(true);
}

// ---------------------------------------------------------------- args ----

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workerd;
  std::string work_dir;
  bool inject_wrong_answer = false;
};

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      args.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 3600) {
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else if (flag == "--workerd") {
      args.workerd = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--inject" && value == "wrong-answer") {
      args.inject_wrong_answer = true;
    } else {
      return std::nullopt;
    }
  }
  const bool known = args.workload == "cold_paged" ||
                     args.workload == "dist_gk" ||
                     args.workload == "served_mix";
  if (!known || !have_seed || args.seconds <= 0.0 || args.work_dir.empty() ||
      (args.workload == "dist_gk" && args.workerd.empty())) {
    return std::nullopt;
  }
  return args;
}

[[noreturn]] void SetupFailure(const std::string& what) {
  std::fprintf(stderr, "session_bench: set-up failed: %s\n", what.c_str());
  std::exit(2);
}

void CheckSetup(const Status& status, const std::string& what) {
  if (!status.ok()) SetupFailure(what + ": " + status.ToString());
}

/// Times a workload's set-up, kSetupRepetitions times in all. The set-up
/// the timed phase uses runs once before it (Run); the other repetitions
/// run after the timed phase and its checks (Finish), so the timed phase
/// always starts from the state one set-up leaves. (Repeating it up front
/// republished the table several times, and how many dead page generations
/// the buffer pool still held afterwards varied from run to run, moving the
/// served peak heap in 9 MB steps.)
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup)
      : setup_(std::move(setup)) {}

  void Run() {
    WallTimer timer;
    setup_();
    seconds_.push_back(timer.ElapsedSeconds());
  }
  /// Runs the remaining repetitions; returns the median seconds.
  double Finish() {
    while (seconds_.size() < kSetupRepetitions) Run();
    return Median(seconds_);
  }

 private:
  std::function<void()> setup_;
  std::vector<double> seconds_;
};

// ------------------------------------------------------- batch sessions ----

/// The answers of one batch session (cold_paged, dist_gk).
struct BatchAnswers {
  std::vector<rules::MinedRule> all_pairs;
  std::vector<rules::MinedRule> generalized;
  rules::MinedAggregateRange average;
  std::optional<rules::MinedRegion> region;
  int64_t hull_contexts_built = 0;
};

bool SameAnswers(const BatchAnswers& a, const BatchAnswers& b) {
  return SameRules(a.all_pairs, b.all_pairs) &&
         SameRules(a.generalized, b.generalized) &&
         SameAggregate(a.average, b.average) &&
         a.region.has_value() == b.region.has_value() &&
         (!a.region.has_value() || SameRegion(*a.region, *b.region));
}

/// How a batch workload opens its data and which engine it builds.
struct BatchWorkload {
  std::string paged_path;         ///< cold_paged: the single PagedFile
  std::string partitioned_dir;    ///< dist_gk: the partitioned table
  rules::MinerOptions options;
  dist::DistributedScanOptions dist_options;
  optrules::ThreadPool* pool = nullptr;
  bool region = false;
};

/// One session, open to last answer, with the benchmark's own spans around
/// each public call. The engine and its data handles are torn down after
/// the session span closes, so the latency ends at the last answer.
optrules::Result<BatchAnswers> RunBatchSession(const BatchWorkload& w) {
  const storage::Schema schema = storage::Schema::Synthetic(8, 8);
  std::unique_ptr<storage::PagedFileBatchSource> source;
  std::unique_ptr<dist::PartitionedTable> table;
  std::unique_ptr<rules::MiningEngine> engine;
  BatchAnswers answers;
  obs::Span session("engine.session");
  {
    obs::Span open("engine.open");
    if (!w.paged_path.empty()) {
      auto opened = storage::PagedFileBatchSource::Open(w.paged_path);
      if (!opened.ok()) return opened.status();
      source = std::move(opened).value();
    } else {
      auto opened = dist::PartitionedTable::Open(w.partitioned_dir);
      if (!opened.ok()) return opened.status();
      table = std::make_unique<dist::PartitionedTable>(
          std::move(opened).value());
    }
  }
  if (source != nullptr) {
    engine = std::make_unique<rules::MiningEngine>(source.get(), schema,
                                                   w.options, w.pool);
  } else {
    engine = std::make_unique<rules::MiningEngine>(table.get(), w.options,
                                                   w.dist_options);
  }
  OPTRULES_RETURN_IF_ERROR(engine->RequestGeneralized({kCondition}));
  OPTRULES_RETURN_IF_ERROR(engine->RequestAverageTarget(kAverageTarget));
  if (w.region) {
    OPTRULES_RETURN_IF_ERROR(engine->RequestRegionPair(kRangeAttr, kRegionY));
  }
  {
    obs::Span prepare("engine.prepare");
    OPTRULES_RETURN_IF_ERROR(engine->TryPrepare());
  }
  {
    obs::Span mine("engine.mine.all_pairs");
    answers.all_pairs = engine->MineAllPairs();
  }
  {
    obs::Span mine("engine.mine.generalized");
    auto mined = engine->MineGeneralized(kRangeAttr, {kCondition}, kObjective);
    if (!mined.ok()) return mined.status();
    answers.generalized = std::move(mined).value();
  }
  {
    obs::Span mine("engine.mine.average");
    auto mined =
        engine->MineMaximumAverageRange(kRangeAttr, kAverageTarget, 0.05);
    if (!mined.ok()) return mined.status();
    answers.average = mined.value();
  }
  if (w.region) {
    obs::Span mine("engine.mine.region");
    auto mined = engine->MineOptimizedRegion(kRangeAttr, kRegionY, kObjective);
    if (!mined.ok()) return mined.status();
    answers.region = std::move(mined).value();
  }
  answers.hull_contexts_built = engine->hull_contexts_built();
  if (engine->counting_scans() != 1) {
    return Status::Internal("session ran " +
                            std::to_string(engine->counting_scans()) +
                            " counting scans, expected 1");
  }
  return answers;
}

/// Latencies and outcomes of a closed loop of batch sessions.
struct ClosedLoop {
  std::vector<double> latencies_s;
  double elapsed_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Runs sessions one at a time until `seconds` have passed (at least one
/// session). Every successful answer set is compared with `*reference`
/// (the first one becomes the reference). With `trace`, the tracer is
/// drained after every session into `spans`.
ClosedLoop RunClosedLoop(const BatchWorkload& w, double seconds, bool trace,
                         std::optional<BatchAnswers>* reference,
                         std::vector<obs::SpanRecord>* spans,
                         uint64_t* dropped, RunResult* result) {
  ClosedLoop loop;
  WallTimer total;
  while (loop.attempted == 0 || total.ElapsedSeconds() < seconds) {
    ++loop.attempted;
    WallTimer timer;
    optrules::Result<BatchAnswers> answers = RunBatchSession(w);
    const double latency = timer.ElapsedSeconds();
    if (trace) {
      for (obs::SpanRecord& r : DrainTrace(dropped)) {
        spans->push_back(std::move(r));
      }
    }
    if (!answers.ok()) {
      ++loop.failed;
      std::fprintf(stderr, "session failed: %s\n",
                   answers.status().ToString().c_str());
      continue;
    }
    loop.latencies_s.push_back(latency);
    if (!reference->has_value()) {
      *reference = std::move(answers).value();
    } else if (!SameAnswers(**reference, answers.value())) {
      result->Fail("session " + std::to_string(loop.attempted) +
                   " answered differently from the first session");
    }
  }
  loop.elapsed_s = total.ElapsedSeconds();
  return loop;
}

/// Output checks of a batch workload's reference answers against the
/// generated rows.
void CheckBatchAnswers(const BatchAnswers& answers,
                       const storage::Relation& rows, RunResult* result) {
  for (const rules::MinedRule& rule : answers.all_pairs) {
    const std::string bad = RecountRule(rows, rule, {});
    if (!bad.empty()) result->Fail(bad);
  }
  for (const rules::MinedRule& rule : answers.generalized) {
    const std::string bad = RecountRule(rows, rule, {kCondition});
    if (!bad.empty()) result->Fail(bad);
  }
  const std::string bad = RecountAggregate(rows, answers.average);
  if (!bad.empty()) result->Fail(bad);
  const std::string planted = CheckPlantedRuleFound(answers.all_pairs);
  if (!planted.empty()) result->Fail(planted);
  if (answers.hull_contexts_built != 1) {
    result->Fail("expected one hull context per session, got " +
                 std::to_string(answers.hull_contexts_built));
  }
}

/// Perturbs one reported count, as a wrong program would.
void InjectWrongAnswer(BatchAnswers* answers) {
  for (rules::MinedRule& rule : answers->all_pairs) {
    if (rule.found) {
      ++rule.support_count;
      return;
    }
  }
}

void AddLatencyMetrics(const std::vector<double>& latencies_s,
                       RunResult* result) {
  const Tail tail = TailPercentile(latencies_s);
  result->metrics["session_ms_p50"] = 1e3 * Median(latencies_s);
  result->metrics["session_ms_tail"] = 1e3 * tail.value;
  result->Note("session_ms_tail.percentile", tail.percentile, "p");
  result->Note("session_ms_tail.samples", static_cast<double>(tail.samples),
               "count");
  result->Note("session_ms_tail.beyond", static_cast<double>(tail.beyond),
               "count");
}

/// Per-layer metrics of a traced batch phase.
void AddBatchLayerMetrics(const SpanIndex& spans, const RegistryDelta& delta,
                          double cpu_seconds, double sessions,
                          RunResult* result) {
  auto& m = result->metrics;
  std::vector<double> open;
  std::vector<double> prepare;
  std::vector<double> plan;
  std::vector<double> scan;
  std::vector<double> walls;
  std::vector<double> unattributed;
  std::map<std::string, std::vector<double>> mine;
  for (const obs::SpanRecord* session : spans.Named("engine.session")) {
    double covered = 0.0;
    for (const obs::SpanRecord* child : spans.Children(*session)) {
      covered += child->duration_seconds;
      if (child->name == "engine.open") {
        open.push_back(child->duration_seconds);
      } else if (child->name == "engine.prepare") {
        const double counting =
            spans.ChildSeconds(*child, "bucketing.scan") +
            spans.ChildSeconds(*child, "dist.scan");
        prepare.push_back(child->duration_seconds);
        scan.push_back(counting);
        plan.push_back(child->duration_seconds - counting);
      } else if (child->name.rfind("engine.mine.", 0) == 0) {
        mine[child->name].push_back(child->duration_seconds);
      }
    }
    walls.push_back(session->duration_seconds);
    unattributed.push_back(session->duration_seconds - covered);
  }
  m["storage.open_ms"] = 1e3 * Mean(open);
  m["bucketing.plan_s"] = Mean(plan);
  m["bucketing.plan_share"] = Ratio(Mean(plan), Mean(walls));
  m["bucketing.scan_s"] = Mean(scan);
  m["rules.prepare_s"] = Mean(prepare);
  m["rules.mine_allpairs_ms"] = 1e3 * Mean(mine["engine.mine.all_pairs"]);
  m["rules.mine_generalized_ms"] =
      1e3 * Mean(mine["engine.mine.generalized"]);
  m["rules.mine_average_ms"] = 1e3 * Mean(mine["engine.mine.average"]);
  m["region.mine_ms"] = 1e3 * Mean(mine["engine.mine.region"]);
  m["unattributed_s"] = Mean(unattributed);
  for (const char* name :
       {"serve.queue_wait_ms_mean", "serve.window_ms_mean",
        "serve.engine_cache_hit_rate", "serve.sessions_per_window",
        "serve.physical_scans", "serve.rejected", "serve.key_reuse_share",
        "serve.unattributed_ms_mean", "loadgen.lag_ms_max"}) {
    m[name] = 0.0;
  }
  AddCommonLayerMetrics(delta, spans, sessions, cpu_seconds, result);
}

RunResult RunBatchWorkload(const Args& args) {
  RunResult result;
  const fs::path dir = fs::path(args.work_dir) / args.workload;
  const bool paged = args.workload == "cold_paged";
  const int64_t rows = paged ? kColdPagedRows : kPartitionedRows;
  const optrules::datagen::TableConfig config = BenchTableConfig(rows);

  fs::create_directories(dir);
  BatchWorkload w;
  std::optional<optrules::ThreadPool> pool;
  std::optional<storage::Relation> relation;
  std::function<void()> setup;
  if (paged) {
    w.paged_path = (dir / "table.optp").string();
    pool.emplace(kParallelism);
    w.pool = &*pool;
    setup = [&] {
      optrules::Rng rng(args.seed);
      CheckSetup(optrules::datagen::GenerateTableToFile(config, rng,
                                                        w.paged_path),
                 "writing " + w.paged_path);
    };
  } else {
    w.partitioned_dir = (dir / "table").string();
    w.options.bucketizer = rules::Bucketizer::kGkSketch;
    w.dist_options.worker_kind = dist::WorkerKind::kSubprocess;
    w.dist_options.max_workers = kParallelism;
    w.dist_options.workerd_path = args.workerd;
    w.region = true;
    setup = [&] {
      relation.emplace(GenerateBenchTable(rows, args.seed));
      dist::PartitionOptions options;
      options.num_partitions = kPartitions;
      auto table =
          dist::PartitionRelation(*relation, w.partitioned_dir, options);
      CheckSetup(table.status(), "partitioning " + w.partitioned_dir);
    };
  }
  SetupTimer setup_timer(setup);
  setup_timer.Run();
  // The checks regenerate the rows after the timed phase, so the
  // benchmark's copy does not count in the system's heap.
  relation.reset();

  std::optional<BatchAnswers> reference;
  std::vector<obs::SpanRecord> records;
  uint64_t dropped = 0;
  const double measured_seconds = args.trace ? 0.5 * args.seconds
                                             : args.seconds;
  PeakMemorySampler memory;
  ClosedLoop loop = RunClosedLoop(w, measured_seconds, false, &reference,
                                  &records, &dropped, &result);
  memory.Stop();
  result.metrics["peak_heap_mb"] = memory.peak_heap_mb();
  result.Note("peak_rss_mb", memory.peak_rss_mb(), "MB");
  result.attempted = loop.attempted;
  result.failed = loop.failed;
  AddLatencyMetrics(loop.latencies_s, &result);
  result.metrics["sessions_per_s"] =
      Ratio(static_cast<double>(loop.latencies_s.size()), loop.elapsed_s);

  if (args.trace) {
    const double untraced_p50 = Median(loop.latencies_s);
    RegistryDelta delta;
    delta.before = obs::MetricsRegistry::Default().Snapshot();
    const double cpu_before = CpuSeconds();
    StartTrace();
    ClosedLoop traced = RunClosedLoop(w, measured_seconds, true, &reference,
                                      &records, &dropped, &result);
    obs::Tracer::Default().set_enabled(false);
    const double cpu_seconds = CpuSeconds() - cpu_before;
    delta.after = obs::MetricsRegistry::Default().Snapshot();
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    const double sessions = static_cast<double>(traced.latencies_s.size());
    AddBatchLayerMetrics(SpanIndex(std::move(records)), delta, cpu_seconds,
                         sessions, &result);
    result.metrics["rules.hull_contexts_built"] =
        reference.has_value()
            ? static_cast<double>(reference->hull_contexts_built)
            : 0.0;
    RecordDroppedSpans(dropped, &result);
    result.metrics["obs.trace_overhead_frac"] =
        Ratio(Median(traced.latencies_s) - untraced_p50, untraced_p50);
  }

  if (reference.has_value()) {
    if (args.inject_wrong_answer) InjectWrongAnswer(&*reference);
    if (!relation.has_value()) {
      relation.emplace(GenerateBenchTable(rows, args.seed));
    }
    CheckBatchAnswers(*reference, *relation, &result);
  } else {
    result.Fail("no session succeeded");
  }
  result.metrics["setup_s"] = setup_timer.Finish();
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  return result;
}

// ---------------------------------------------------------- served_mix ----

/// Attribute pools the served sessions draw from. Hot engines are warmed
/// with every entry, so their sessions never need a supplemental scan.
const std::vector<std::vector<std::string>>& ServedConditions() {
  static const std::vector<std::vector<std::string>> kPool = {
      {"bool1"}, {"bool2", "bool3"}};
  return kPool;
}
constexpr const char* kServedAverageTargets[] = {"num1", "num2"};
constexpr std::pair<const char*, const char*> kServedRegionPairs[] = {
    {"num0", "num1"}, {"num2", "num3"}};
constexpr double kServedAverageSupport = 0.05;

rules::MinerOptions HotOptions(int which) {
  rules::MinerOptions options;
  if (which == 1) {
    options.min_support = 0.10;
    options.min_confidence = 0.6;
  }
  return options;
}

/// A cold session's options: hot set 0 with a threshold no other session
/// uses, so its key misses the engine cache.
rules::MinerOptions ColdOptions(uint64_t ordinal) {
  rules::MinerOptions options = HotOptions(0);
  options.min_support = 0.05 + 1e-4 * static_cast<double>(ordinal + 1);
  return options;
}

std::string Attr(const char* prefix, uint64_t index) {
  return std::string(prefix) + std::to_string(index);
}

serve::ServeQuery MakeQuery(serve::ServeQuery::Kind kind) {
  serve::ServeQuery query;
  query.kind = kind;
  return query;
}

/// The warm-up session: every query kind over every pool entry.
serve::SessionRequest WarmupRequest(const std::string& table_dir,
                                    const rules::MinerOptions& options) {
  serve::SessionRequest request;
  request.table_dir = table_dir;
  request.options = options;
  request.queries.push_back(MakeQuery(serve::ServeQuery::Kind::kAllPairs));
  for (const auto& condition : ServedConditions()) {
    serve::ServeQuery q = MakeQuery(serve::ServeQuery::Kind::kGeneralized);
    q.attr_a = "num0";
    q.attr_b = "bool0";
    q.conditions = condition;
    request.queries.push_back(q);
  }
  for (const char* target : kServedAverageTargets) {
    serve::ServeQuery q = MakeQuery(serve::ServeQuery::Kind::kAverageRange);
    q.attr_a = "num0";
    q.attr_b = target;
    q.threshold = kServedAverageSupport;
    request.queries.push_back(q);
  }
  for (const auto& [x, y] : kServedRegionPairs) {
    serve::ServeQuery q = MakeQuery(serve::ServeQuery::Kind::kRegion);
    q.attr_a = x;
    q.attr_b = y;
    q.target = "bool0";
    request.queries.push_back(q);
  }
  return request;
}

/// Every query a hot session can draw (the warm-up queries plus every
/// pair, generalized, average and region variant of the pools).
std::vector<serve::ServeQuery> HotQuerySpace(const std::string& table_dir) {
  std::vector<serve::ServeQuery> queries =
      WarmupRequest(table_dir, HotOptions(0)).queries;
  for (uint64_t n = 0; n < 8; ++n) {
    for (uint64_t b = 0; b < 8; ++b) {
      serve::ServeQuery pair = MakeQuery(serve::ServeQuery::Kind::kPair);
      pair.attr_a = Attr("num", n);
      pair.attr_b = Attr("bool", b);
      queries.push_back(pair);
      for (const auto& condition : ServedConditions()) {
        serve::ServeQuery gen =
            MakeQuery(serve::ServeQuery::Kind::kGeneralized);
        gen.attr_a = pair.attr_a;
        gen.attr_b = pair.attr_b;
        gen.conditions = condition;
        queries.push_back(gen);
      }
      if (n == 0) {
        for (const auto& [x, y] : kServedRegionPairs) {
          serve::ServeQuery region =
              MakeQuery(serve::ServeQuery::Kind::kRegion);
          region.attr_a = x;
          region.attr_b = y;
          region.target = pair.attr_b;
          queries.push_back(region);
        }
      }
    }
    for (const char* target : kServedAverageTargets) {
      serve::ServeQuery avg =
          MakeQuery(serve::ServeQuery::Kind::kAverageRange);
      avg.attr_a = Attr("num", n);
      avg.attr_b = target;
      avg.threshold = kServedAverageSupport;
      queries.push_back(avg);
    }
  }
  return queries;
}

/// One scheduled session: a pair, a generalized and an average query,
/// plus a region query in one session of two and the all-pairs query in
/// one of eight (the all-pairs answer is most of a hot session's mining
/// work), under a hot or a cold option set.
struct ServedSession {
  serve::SessionRequest request;
  bool cold = false;
  int hot = 0;  ///< which hot option set, when not cold
};

std::vector<ServedSession> MakeServedSessions(const std::string& table_dir,
                                              uint64_t seed, size_t count,
                                              uint64_t* cold_ordinal) {
  optrules::Rng rng(seed);
  std::vector<ServedSession> sessions(count);
  // Every kColdOneIn-th session is cold, from a seeded offset: evenly
  // spaced, so one cold engine build rarely queues behind another and the
  // tail measures one cold key blocking the hot ones behind it.
  const uint64_t offset = rng.NextBounded(kColdOneIn);
  for (size_t i = 0; i < count; ++i) {
    sessions[i].cold = (i + offset) % kColdOneIn == 0;
  }

  for (ServedSession& s : sessions) {
    serve::SessionRequest& r = s.request;
    r.table_dir = table_dir;
    s.hot = static_cast<int>(rng.NextBounded(2));
    r.options = s.cold ? ColdOptions((*cold_ordinal)++) : HotOptions(s.hot);
    serve::ServeQuery pair = MakeQuery(serve::ServeQuery::Kind::kPair);
    pair.attr_a = Attr("num", rng.NextBounded(8));
    pair.attr_b = Attr("bool", rng.NextBounded(8));
    r.queries.push_back(pair);
    serve::ServeQuery gen = MakeQuery(serve::ServeQuery::Kind::kGeneralized);
    gen.attr_a = Attr("num", rng.NextBounded(8));
    gen.conditions = ServedConditions()[rng.NextBounded(2)];
    gen.attr_b = Attr("bool", 4 + rng.NextBounded(4));
    r.queries.push_back(gen);
    serve::ServeQuery avg = MakeQuery(serve::ServeQuery::Kind::kAverageRange);
    avg.attr_a = Attr("num", 3 + rng.NextBounded(5));
    avg.attr_b = kServedAverageTargets[rng.NextBounded(2)];
    avg.threshold = kServedAverageSupport;
    r.queries.push_back(avg);
    if (rng.NextBounded(2) == 0) {
      serve::ServeQuery region = MakeQuery(serve::ServeQuery::Kind::kRegion);
      const auto& [x, y] = kServedRegionPairs[rng.NextBounded(2)];
      region.attr_a = x;
      region.attr_b = y;
      region.target = Attr("bool", rng.NextBounded(8));
      r.queries.push_back(region);
    }
    if (rng.NextBounded(8) == 0) {
      r.queries.push_back(MakeQuery(serve::ServeQuery::Kind::kAllPairs));
    }
  }
  return sessions;
}

/// Canonical text of a query (the reference-answer key).
std::string QueryKey(const serve::ServeQuery& q) {
  std::string key = std::to_string(static_cast<int>(q.kind)) + "|" + q.attr_a +
                    "|" + q.attr_b + "|" + q.target + "|" +
                    FormatNumber(q.threshold) + "|" + std::to_string(q.nx) +
                    "x" + std::to_string(q.ny);
  for (const std::string& c : q.conditions) key += "|" + c;
  return key;
}

/// Answers `q` with a standalone engine, as the server would.
serve::QueryAnswer AnswerStandalone(rules::MiningEngine* engine,
                                    const serve::ServeQuery& q) {
  serve::QueryAnswer answer;
  using Kind = serve::ServeQuery::Kind;
  switch (q.kind) {
    case Kind::kAllPairs:
      answer.rules = engine->MineAllPairs();
      break;
    case Kind::kPair: {
      auto mined = engine->MinePair(q.attr_a, q.attr_b);
      answer.status = mined.status();
      if (mined.ok()) answer.rules = std::move(mined).value();
      break;
    }
    case Kind::kGeneralized: {
      auto mined = engine->MineGeneralized(q.attr_a, q.conditions, q.attr_b);
      answer.status = mined.status();
      if (mined.ok()) answer.rules = std::move(mined).value();
      break;
    }
    case Kind::kAverageRange: {
      auto mined =
          engine->MineMaximumAverageRange(q.attr_a, q.attr_b, q.threshold);
      answer.status = mined.status();
      if (mined.ok()) answer.aggregate = mined.value();
      break;
    }
    case Kind::kSupportRange: {
      auto mined =
          engine->MineMaximumSupportRange(q.attr_a, q.attr_b, q.threshold);
      answer.status = mined.status();
      if (mined.ok()) answer.aggregate = mined.value();
      break;
    }
    case Kind::kRegion: {
      auto mined = engine->MineOptimizedRegion(q.attr_a, q.attr_b, q.target);
      answer.status = mined.status();
      if (mined.ok()) answer.region = std::move(mined).value();
      break;
    }
  }
  return answer;
}

bool SameAnswer(const serve::QueryAnswer& a, const serve::QueryAnswer& b) {
  return a.status.ok() == b.status.ok() && SameRules(a.rules, b.rules) &&
         SameAggregate(a.aggregate, b.aggregate) &&
         SameRegion(a.region, b.region);
}

/// Reference answers of one option set, from a standalone MiningEngine
/// over the same table. Every reference is recounted over the rows once.
class ReferenceAnswers {
 public:
  ReferenceAnswers(const dist::PartitionedTable* table,
                   const storage::Relation* rows,
                   const rules::MinerOptions& options,
                   const std::vector<serve::ServeQuery>& queries,
                   RunResult* result) {
    rules::MiningEngine engine(table, options);
    for (const serve::ServeQuery& q : queries) {
      if (answers_.count(QueryKey(q)) != 0) continue;
      serve::QueryAnswer answer = AnswerStandalone(&engine, q);
      if (!answer.status.ok()) {
        result->Fail("standalone engine failed " + QueryKey(q) + ": " +
                     answer.status.ToString());
      }
      for (const rules::MinedRule& rule : answer.rules) {
        const std::string bad = RecountRule(*rows, rule, q.conditions);
        if (!bad.empty()) result->Fail(bad);
      }
      const std::string bad = RecountAggregate(*rows, answer.aggregate);
      if (!bad.empty()) result->Fail(bad);
      if (q.kind == serve::ServeQuery::Kind::kAllPairs) {
        const std::string planted = CheckPlantedRuleFound(answer.rules);
        if (!planted.empty()) result->Fail(planted);
      }
      answers_.emplace(QueryKey(q), std::move(answer));
    }
  }

  /// True when `reply` answers every query of `request` bit-identically.
  bool Matches(const serve::SessionRequest& request,
               const serve::SessionReply& reply) const {
    if (reply.answers.size() != request.queries.size()) return false;
    for (size_t i = 0; i < request.queries.size(); ++i) {
      const auto it = answers_.find(QueryKey(request.queries[i]));
      if (it == answers_.end() || !SameAnswer(it->second, reply.answers[i])) {
        return false;
      }
    }
    return true;
  }

 private:
  std::map<std::string, serve::QueryAnswer> answers_;
};

/// The served_mix system under test: table, server, client connections.
struct ServedSystem {
  std::string table_dir;
  std::string socket_path;
  std::unique_ptr<dist::PartitionedTable> table;
  std::unique_ptr<serve::MiningServer> server;
  std::vector<serve::MiningClient> clients;

  void Stop() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
  }
};

/// One phase of the open loop over the served system.
struct ServedPhase {
  std::vector<SessionTiming> timings;
  std::vector<double> send_to_done_s;
  int64_t failed = 0;
};

ServedPhase RunServedPhase(ServedSystem* system,
                           const std::vector<ServedSession>& sessions,
                           const std::vector<double>& schedule,
                           const ReferenceAnswers* hot_refs[2],
                           std::vector<std::pair<size_t, serve::SessionReply>>*
                               cold_replies,
                           bool inject_wrong_answer, RunResult* result) {
  ServedPhase phase;
  std::mutex mu;  // guards cold_replies, result and phase.failed
  bool injected = false;
  phase.timings = RunOpenLoop(
      schedule, kParallelism, [&](int connection, size_t index) {
        const ServedSession& s = sessions[index];
        obs::Span span("client.run_session");
        auto reply =
            system->clients[static_cast<size_t>(connection)].RunSession(
                s.request);
        std::lock_guard<std::mutex> lock(mu);
        bool ok = reply.ok();
        if (ok) {
          for (const serve::QueryAnswer& a : reply.value().answers) {
            ok = ok && a.status.ok();
          }
        }
        if (!ok) {
          ++phase.failed;
          return false;
        }
        serve::SessionReply answered = std::move(reply).value();
        if (inject_wrong_answer && !injected) {
          injected = true;
          ++answered.answers[0].rules[0].support_count;
        }
        if (s.cold) {
          cold_replies->emplace_back(index, std::move(answered));
        } else {
          if (!hot_refs[s.hot]->Matches(s.request, answered)) {
            result->Fail("served session " + std::to_string(index) +
                         " differs from a standalone engine");
          }
        }
        return true;
      });
  for (const SessionTiming& t : phase.timings) {
    phase.send_to_done_s.push_back(t.done - t.sent);
  }
  return phase;
}

std::vector<double> Latencies(const ServedPhase& phase) {
  std::vector<double> latencies;
  for (const SessionTiming& t : phase.timings) {
    latencies.push_back(t.latency_s());
  }
  return latencies;
}

/// Per-layer metrics of the traced served phase. The server runs its
/// windows on its own scheduler thread, so the split comes from the serve.*
/// registry instruments and the serve.window span trees rather than from
/// spans nested under the client's.
void AddServedLayerMetrics(const ServedPhase& untraced,
                           const ServedPhase& traced,
                           const std::vector<ServedSession>& all_sessions,
                           const RegistryDelta& delta, const SpanIndex& spans,
                           double cpu_seconds, RunResult* result) {
  auto& m = result->metrics;
  const double sessions = static_cast<double>(traced.timings.size());
  const std::vector<double> latencies = Latencies(traced);
  const double queue_ms =
      1e3 * Ratio(delta.HistogramSum("serve.queue_wait_seconds"),
                  delta.HistogramCount("serve.queue_wait_seconds"));
  const double window_ms =
      1e3 * Ratio(delta.HistogramSum("serve.window_seconds"),
                  delta.HistogramCount("serve.window_seconds"));
  m["serve.queue_wait_ms_mean"] = queue_ms;
  m["serve.window_ms_mean"] = window_ms;
  const double hits = delta.Counter("serve.engine_cache_hits");
  const double misses = delta.Counter("serve.engine_cache_misses");
  m["serve.engine_cache_hit_rate"] = Ratio(hits, hits + misses);
  m["serve.sessions_per_window"] =
      Ratio(delta.Counter("serve.sessions_served"),
            delta.Counter("serve.batches_executed"));
  m["serve.physical_scans"] = delta.Counter("serve.physical_scans");
  m["serve.rejected"] = delta.Counter("serve.sessions_rejected");
  // Sessions of the phase whose options key other sessions share (the
  // hot sets); the traced phase's sessions are the last ones scheduled.
  double reused = 0.0;
  for (size_t i = all_sessions.size() - traced.timings.size();
       i < all_sessions.size(); ++i) {
    reused += all_sessions[i].cold ? 0.0 : 1.0;
  }
  m["serve.key_reuse_share"] = Ratio(reused, sessions);
  // Client-observed time the server's queue and window do not explain:
  // wire transfer and the session codecs. Every session of a window waits
  // for the whole window (replies go out after the last answer), so the
  // window time a session sees is weighted by the window's session count.
  double window_session_seconds = 0.0;
  double window_sessions = 0.0;
  for (const obs::SpanRecord* window : spans.Named("serve.window")) {
    for (const auto& [key, value] : window->attributes) {
      if (key != "sessions") continue;
      window_session_seconds += value * window->duration_seconds;
      window_sessions += value;
    }
  }
  const double unattributed_ms =
      1e3 * (Mean(traced.send_to_done_s) -
             Ratio(window_session_seconds, window_sessions)) -
      queue_ms;
  m["serve.unattributed_ms_mean"] = unattributed_ms;
  m["unattributed_s"] = 1e-3 * unattributed_ms;
  double lag = 0.0;
  for (const SessionTiming& t : traced.timings) lag = std::max(lag, t.lag_s());
  m["loadgen.lag_ms_max"] = 1e3 * lag;

  // A window that scanned built a cold engine: its scan is the dist.scan
  // child; the rest of it is the boundary plan plus that window's mining,
  // which the window span does not split.
  double plan = 0.0;
  double scan = 0.0;
  for (const obs::SpanRecord* window : spans.Named("serve.window")) {
    const double counting = spans.ChildSeconds(*window, "dist.scan");
    if (counting > 0.0) {
      plan += window->duration_seconds - counting;
      scan += counting;
    }
  }
  m["bucketing.plan_s"] = Ratio(plan, sessions);
  m["bucketing.plan_share"] = Ratio(Ratio(plan, sessions), Mean(latencies));
  m["bucketing.scan_s"] = Ratio(scan, sessions);
  m["rules.prepare_s"] = Ratio(plan + scan, sessions);
  // No client-side engine calls: the server's mining is inside its
  // windows (serve.window_ms_mean) and not split further.
  for (const char* name :
       {"storage.open_ms", "rules.mine_allpairs_ms",
        "rules.mine_generalized_ms", "rules.mine_average_ms", "region.mine_ms",
        "rules.hull_contexts_built"}) {
    m[name] = 0.0;
  }
  AddCommonLayerMetrics(delta, spans, sessions, cpu_seconds, result);
  const double untraced_p50 = Median(Latencies(untraced));
  m["obs.trace_overhead_frac"] =
      Ratio(Median(latencies) - untraced_p50, untraced_p50);
}

void StartServedSystem(const fs::path& dir,
                       const storage::Relation& rows, ServedSystem* system) {
  system->table_dir = (dir / "table").string();
  system->socket_path = (dir / "serve.sock").string();
  dist::PartitionOptions options;
  options.num_partitions = kPartitions;
  auto table = dist::PartitionRelation(rows, system->table_dir, options);
  CheckSetup(table.status(), "partitioning " + system->table_dir);
  system->table =
      std::make_unique<dist::PartitionedTable>(std::move(table).value());
  system->server = std::make_unique<serve::MiningServer>();
  CheckSetup(system->server->ListenUnix(system->socket_path),
             "listening on " + system->socket_path);
  CheckSetup(system->server->Start(), "starting the server");
  for (int c = 0; c < kParallelism; ++c) {
    auto client = serve::MiningClient::ConnectUnix(system->socket_path);
    CheckSetup(client.status(), "connecting");
    system->clients.push_back(std::move(client).value());
  }
  // Hot-engine warm-up: each hot option set builds its engine once with
  // every pool channel registered.
  for (int hot = 0; hot < 2; ++hot) {
    auto reply = system->clients[0].RunSession(
        WarmupRequest(system->table_dir, HotOptions(hot)));
    CheckSetup(reply.status(), "warm-up session");
  }
}

RunResult RunServedWorkload(const Args& args) {
  RunResult result;
  const fs::path dir = fs::path(args.work_dir) / args.workload;
  fs::create_directories(dir);
  std::optional<storage::Relation> generated;
  ServedSystem system;
  SetupTimer setup_timer([&] {
    system.Stop();
    generated.emplace(GenerateBenchTable(kPartitionedRows, args.seed));
    StartServedSystem(dir, *generated, &system);
  });
  setup_timer.Run();

  // Reference answers of the hot option sets over their whole query
  // space (untimed: the checks are not part of the system).
  const std::vector<serve::ServeQuery> hot_queries =
      HotQuerySpace(system.table_dir);
  const ReferenceAnswers hot0(system.table.get(), &*generated, HotOptions(0),
                              hot_queries, &result);
  const ReferenceAnswers hot1(system.table.get(), &*generated, HotOptions(1),
                              hot_queries, &result);
  const ReferenceAnswers* hot_refs[2] = {&hot0, &hot1};
  // Regenerated for the cold checks after the timed phase, so the
  // benchmark's copy of the rows does not count in the system's heap.
  generated.reset();

  // Phases: the three offered rates, or (traced) the middle rate untraced
  // then traced.
  struct PhasePlan {
    double rate;
    double seconds;
    bool traced;
  };
  std::vector<PhasePlan> plans;
  if (args.trace) {
    const double rate = kServedRates[kMiddleRate];
    plans = {{rate, 0.5 * args.seconds, false},
             {rate, 0.5 * args.seconds, true}};
  } else {
    for (int i = 0; i < 3; ++i) {
      plans.push_back(
          {kServedRates[i], kServedPhaseShare[i] * args.seconds, false});
    }
  }

  uint64_t cold_ordinal = 0;
  std::vector<std::pair<size_t, serve::SessionReply>> cold_replies;
  std::vector<ServedSession> all_sessions;
  std::vector<ServedPhase> phases;
  RegistryDelta delta;
  double cpu_seconds = 0.0;
  uint64_t dropped = 0;
  std::vector<obs::SpanRecord> records;
  PeakMemorySampler memory;
  for (size_t p = 0; p < plans.size(); ++p) {
    const uint64_t phase_seed = args.seed * 16 + p;
    const std::vector<double> schedule =
        OpenLoopSchedule(phase_seed, plans[p].rate, plans[p].seconds);
    const std::vector<ServedSession> sessions = MakeServedSessions(
        system.table_dir, phase_seed, schedule.size(), &cold_ordinal);
    std::vector<std::pair<size_t, serve::SessionReply>> phase_cold;
    double cpu_before = 0.0;
    if (plans[p].traced) {
      delta.before = obs::MetricsRegistry::Default().Snapshot();
      cpu_before = CpuSeconds();
      StartTrace();
    }
    phases.push_back(RunServedPhase(&system, sessions, schedule, hot_refs,
                                    &phase_cold, args.inject_wrong_answer,
                                    &result));
    if (plans[p].traced) {
      obs::Tracer::Default().set_enabled(false);
      records = DrainTrace(&dropped);
      cpu_seconds = CpuSeconds() - cpu_before;
      delta.after = obs::MetricsRegistry::Default().Snapshot();
    }
    for (auto& [index, reply] : phase_cold) {
      cold_replies.emplace_back(all_sessions.size() + index, std::move(reply));
    }
    all_sessions.insert(all_sessions.end(), sessions.begin(), sessions.end());
  }
  memory.Stop();
  result.metrics["peak_heap_mb"] = memory.peak_heap_mb();
  result.Note("peak_rss_mb", memory.peak_rss_mb(), "MB");

  // Cold sessions: each against its own standalone engine.
  generated.emplace(GenerateBenchTable(kPartitionedRows, args.seed));
  for (const auto& [index, reply] : cold_replies) {
    const serve::SessionRequest& request = all_sessions[index].request;
    const ReferenceAnswers reference(system.table.get(), &*generated,
                                     request.options, request.queries,
                                     &result);
    if (!reference.Matches(request, reply)) {
      result.Fail("cold served session differs from a standalone engine");
    }
  }

  const ServedPhase& middle = phases[args.trace ? 0 : kMiddleRate];
  const double middle_seconds = plans[args.trace ? 0 : kMiddleRate].seconds;
  std::vector<double> latencies;
  int64_t within_limit = 0;
  for (const SessionTiming& t : middle.timings) {
    if (!t.ok) continue;
    latencies.push_back(t.latency_s());
    within_limit += t.latency_s() <= kLatencyLimitS ? 1 : 0;
  }
  AddLatencyMetrics(latencies, &result);
  result.metrics["sessions_per_s"] =
      static_cast<double>(within_limit) / middle_seconds;

  double max_ok_rate = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    result.attempted += static_cast<int64_t>(phases[p].timings.size());
    result.failed += phases[p].failed;
    if (!args.trace && PhaseMeetsLimit(phases[p].timings, kLatencyLimitS)) {
      max_ok_rate = std::max(max_ok_rate, plans[p].rate);
    }
    const std::vector<double> phase_latencies = Latencies(phases[p]);
    const Tail tail = TailPercentile(phase_latencies);
    char name[64];
    std::snprintf(name, sizeof(name), "rate_%g%s", plans[p].rate,
                  plans[p].traced ? "_traced" : "");
    result.Note(std::string(name) + ".session_ms_p50",
                1e3 * Median(phase_latencies), "ms");
    result.Note(std::string(name) + ".session_ms_tail", 1e3 * tail.value,
                "ms");
  }
  if (!args.trace) result.Note("max_ok_rate_per_s", max_ok_rate, "1/s");
  result.Note("latency_limit_ms", 1e3 * kLatencyLimitS, "ms");

  if (args.trace) {
    AddServedLayerMetrics(phases[0], phases[1], all_sessions, delta,
                          SpanIndex(std::move(records)), cpu_seconds,
                          &result);
    RecordDroppedSpans(dropped, &result);
  }

  result.metrics["setup_s"] = setup_timer.Finish();
  system.Stop();
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  return result;
}

// -------------------------------------------------------------- output ----

void PrintResult(const Args& args, const RunResult& result) {
  std::printf("host = %s\n", HostJson().c_str());
  std::printf("workload = %s seed = %llu seconds = %g trace = %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("failed_frac = %.6g ratio\n",
              Ratio(static_cast<double>(result.failed),
                    static_cast<double>(result.attempted)));
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::string metrics;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      std::fprintf(stderr, "session_bench: metric %s was not measured\n",
                   spec.name);
      std::exit(2);
    }
    std::printf("%s = %.6g %s\n", spec.name, it->second, spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " +
               FormatNumber(it->second) + ", \"unit\": " +
               JsonString(spec.unit) + "}";
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      result.check_failures.empty() ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace sessionbench

int main(int argc, char** argv) {
  using namespace sessionbench;
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: session_bench --workload cold_paged|dist_gk|"
                 "served_mix --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--workerd PATH] [--inject wrong-answer]\n");
    return 2;
  }
  std::error_code error;
  fs::create_directories(args->work_dir, error);
  if (error) SetupFailure("creating " + args->work_dir);
  const RunResult result = args->workload == "served_mix"
                               ? RunServedWorkload(*args)
                               : RunBatchWorkload(*args);
  PrintResult(*args, result);
  return result.check_failures.empty() ? 0 : 1;
}
