#include "harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/rng.h"

namespace sessionbench {

namespace rules = optrules::rules;
using optrules::storage::Relation;

// ------------------------------------------------------------- inputs ----

optrules::datagen::PlantedRule BenchPlantedRule() {
  optrules::datagen::PlantedRule rule;
  rule.numeric_attr = 0;
  rule.boolean_attr = 0;
  rule.lo = 300000.0;
  rule.hi = 400000.0;
  rule.prob_inside = 0.9;
  rule.prob_outside = 0.1;
  return rule;
}

optrules::datagen::TableConfig BenchTableConfig(int64_t rows) {
  optrules::datagen::TableConfig config =
      optrules::datagen::PaperSection61Config(rows);
  config.planted_rules.push_back(BenchPlantedRule());
  return config;
}

Relation GenerateBenchTable(int64_t rows, uint64_t seed) {
  optrules::Rng rng(seed);
  return optrules::datagen::GenerateTable(BenchTableConfig(rows), rng);
}

// ---------------------------------------------------------- statistics ----

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail TailPercentile(std::vector<double> samples) {
  Tail tail;
  tail.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const int64_t n = tail.samples;
  for (int p = 99; p >= 50; --p) {
    // Nearest rank: the smallest rank r with r / n >= p / 100.
    const int64_t rank = (static_cast<int64_t>(p) * n + 99) / 100;
    const int64_t beyond = n - rank;
    if (beyond >= kTailBeyond) {
      tail.percentile = p;
      tail.beyond = beyond;
      tail.value = samples[static_cast<size_t>(rank - 1)];
      return tail;
    }
  }
  tail.percentile = 50;
  tail.value = Median(samples);
  tail.beyond = n / 2;
  return tail;
}

// ----------------------------------------------------------- open loop ----

std::vector<double> OpenLoopSchedule(uint64_t seed, double rate_per_s,
                                     double duration_s) {
  const auto count = static_cast<size_t>(std::llround(rate_per_s * duration_s));
  optrules::Rng rng(seed);
  std::vector<double> due(count);
  for (double& t : due) t = rng.NextUniform(0.0, duration_s);
  std::sort(due.begin(), due.end());
  return due;
}

std::vector<SessionTiming> RunOpenLoop(
    const std::vector<double>& schedule, int connections,
    const std::function<bool(int connection, size_t index)>& run) {
  using Clock = std::chrono::steady_clock;
  std::vector<SessionTiming> timings(schedule.size());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  const auto since_start = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= schedule.size()) return;
        SessionTiming& timing = timings[i];
        timing.due = schedule[i];
        timing.picked = since_start();
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i])));
        timing.sent = since_start();
        timing.ok = run(c, i);
        timing.done = since_start();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return timings;
}

bool PhaseMeetsLimit(const std::vector<SessionTiming>& timings,
                     double limit_s) {
  if (timings.empty()) return false;
  std::vector<double> latencies;
  latencies.reserve(timings.size());
  for (const SessionTiming& t : timings) {
    if (!t.ok) return false;
    latencies.push_back(t.latency_s());
  }
  if (TailPercentile(latencies).value > limit_s) return false;
  const size_t quarter = std::max<size_t>(1, timings.size() / 4);
  std::vector<double> first;
  std::vector<double> last;
  for (size_t i = 0; i < quarter; ++i) {
    first.push_back(timings[i].sent - timings[i].due);
    const SessionTiming& t = timings[timings.size() - 1 - i];
    last.push_back(t.sent - t.due);
  }
  return Median(last) - Median(first) <= 0.5 * limit_s;
}

// -------------------------------------------------------------- checks ----

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameRegionRule(const optrules::region::RegionRule& a,
                    const optrules::region::RegionRule& b) {
  return a.found == b.found && a.x1 == b.x1 && a.x2 == b.x2 &&
         a.y1 == b.y1 && a.y2 == b.y2 && a.support_count == b.support_count &&
         a.hit_count == b.hit_count && SameBits(a.support, b.support) &&
         SameBits(a.confidence, b.confidence);
}

std::string Mismatch(const rules::MinedRule& rule, const char* what,
                     int64_t reported, int64_t recounted) {
  return rule.ToString() + ": " + what + " " + std::to_string(reported) +
         " but the rows give " + std::to_string(recounted);
}

}  // namespace

bool SameRule(const rules::MinedRule& a, const rules::MinedRule& b) {
  return a.found == b.found && a.kind == b.kind &&
         a.numeric_attr == b.numeric_attr &&
         a.boolean_attr == b.boolean_attr &&
         a.presumptive_condition == b.presumptive_condition &&
         SameBits(a.range_lo, b.range_lo) && SameBits(a.range_hi, b.range_hi) &&
         a.support_count == b.support_count && a.hit_count == b.hit_count &&
         SameBits(a.support, b.support) && SameBits(a.confidence, b.confidence);
}

bool SameRules(const std::vector<rules::MinedRule>& a,
               const std::vector<rules::MinedRule>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), SameRule);
}

bool SameAggregate(const rules::MinedAggregateRange& a,
                   const rules::MinedAggregateRange& b) {
  return a.found == b.found && a.range_attr == b.range_attr &&
         a.target_attr == b.target_attr && SameBits(a.range_lo, b.range_lo) &&
         SameBits(a.range_hi, b.range_hi) &&
         a.support_count == b.support_count &&
         SameBits(a.support, b.support) && SameBits(a.average, b.average);
}

bool SameRegion(const rules::MinedRegion& a, const rules::MinedRegion& b) {
  return a.found == b.found && a.x_attr == b.x_attr && a.y_attr == b.y_attr &&
         a.target_attr == b.target_attr && a.nx == b.nx && a.ny == b.ny &&
         a.total_tuples == b.total_tuples &&
         SameRegionRule(a.confidence_rectangle, b.confidence_rectangle) &&
         SameRegionRule(a.support_rectangle, b.support_rectangle) &&
         a.xmonotone_gain.found == b.xmonotone_gain.found &&
         a.xmonotone_gain.x_begin == b.xmonotone_gain.x_begin &&
         a.xmonotone_gain.column_ranges == b.xmonotone_gain.column_ranges &&
         a.xmonotone_gain.support_count == b.xmonotone_gain.support_count &&
         a.xmonotone_gain.hit_count == b.xmonotone_gain.hit_count &&
         SameBits(a.xmonotone_gain.support, b.xmonotone_gain.support) &&
         SameBits(a.xmonotone_gain.confidence, b.xmonotone_gain.confidence) &&
         SameBits(a.xmonotone_gain.gain, b.xmonotone_gain.gain);
}

std::string RecountRule(const Relation& rows, const rules::MinedRule& rule,
                        const std::vector<std::string>& condition) {
  if (!rule.found) return "";
  const auto numeric = rows.schema().NumericIndexOf(rule.numeric_attr);
  const auto target = rows.schema().BooleanIndexOf(rule.boolean_attr);
  if (!numeric.ok() || !target.ok()) {
    return rule.ToString() + ": unknown attribute";
  }
  std::vector<const std::vector<uint8_t>*> conjuncts;
  for (const std::string& name : condition) {
    const auto index = rows.schema().BooleanIndexOf(name);
    if (!index.ok()) return rule.ToString() + ": unknown condition " + name;
    conjuncts.push_back(&rows.BooleanColumn(index.value()));
  }
  const std::vector<double>& values = rows.NumericColumn(numeric.value());
  const std::vector<uint8_t>& hits = rows.BooleanColumn(target.value());
  int64_t support = 0;
  int64_t hit = 0;
  for (size_t r = 0; r < values.size(); ++r) {
    if (!(rule.range_lo <= values[r] && values[r] <= rule.range_hi)) continue;
    bool holds = true;
    for (const std::vector<uint8_t>* column : conjuncts) {
      holds = holds && (*column)[r] != 0;
    }
    if (!holds) continue;
    ++support;
    hit += hits[r] != 0 ? 1 : 0;
  }
  if (support != rule.support_count) {
    return Mismatch(rule, "support_count", rule.support_count, support);
  }
  if (hit != rule.hit_count) {
    return Mismatch(rule, "hit_count", rule.hit_count, hit);
  }
  return "";
}

std::string RecountAggregate(const Relation& rows,
                             const rules::MinedAggregateRange& a) {
  if (!a.found) return "";
  const auto range = rows.schema().NumericIndexOf(a.range_attr);
  const auto target = rows.schema().NumericIndexOf(a.target_attr);
  if (!range.ok() || !target.ok()) return a.ToString() + ": unknown attribute";
  const std::vector<double>& values = rows.NumericColumn(range.value());
  const std::vector<double>& targets = rows.NumericColumn(target.value());
  int64_t support = 0;
  double sum = 0.0;
  for (size_t r = 0; r < values.size(); ++r) {
    if (a.range_lo <= values[r] && values[r] <= a.range_hi) {
      ++support;
      sum += targets[r];
    }
  }
  if (support != a.support_count) {
    return a.ToString() + ": support_count " +
           std::to_string(a.support_count) + " but the rows give " +
           std::to_string(support);
  }
  const double average = sum / static_cast<double>(support);
  if (std::fabs(average - a.average) > 1e-9 * std::fabs(average)) {
    return a.ToString() + ": average differs from the rows' " +
           std::to_string(average);
  }
  return "";
}

std::string CheckPlantedRuleFound(const std::vector<rules::MinedRule>& rules) {
  const optrules::datagen::PlantedRule planted = BenchPlantedRule();
  const std::string numeric = "num" + std::to_string(planted.numeric_attr);
  const std::string boolean = "bool" + std::to_string(planted.boolean_attr);
  for (const rules::MinedRule& rule : rules) {
    if (rule.kind != rules::RuleKind::kOptimizedConfidence ||
        rule.numeric_attr != numeric || rule.boolean_attr != boolean) {
      continue;
    }
    // Edge buckets may straddle the planted bounds, so allow a tenth of
    // the planted width on either side.
    const double slack = 0.1 * (planted.hi - planted.lo);
    if (rule.found && planted.lo - slack <= rule.range_lo &&
        rule.range_hi <= planted.hi + slack && rule.confidence >= 0.8) {
      return "";
    }
    return "planted rule not found; mined " + rule.ToString();
  }
  return "planted rule's attribute pair missing from the answer";
}

}  // namespace sessionbench
