// Section 1.3 claim: "the efficiency of our algorithm enables us to
// compute optimized rules for all combinations of hundreds of numeric and
// Boolean attributes in a reasonable time."
//
// Mines both optimized rules for every (numeric, Boolean) attribute pair
// of a synthetic table twice -- once with the test-only per-attribute
// reference miner (tests/reference/, one counting scan per numeric
// attribute) and once with the MiningEngine batch core (ONE shared
// counting scan for everything) -- verifies the outputs are identical, and
// reports both wall times. A
// second stage re-mines every pair at three more threshold sets straight
// from the engine's cached counts (the threshold-sweep API) and runs
// generalized + aggregate queries from the same session, asserting the
// scan count never moves.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/table_generator.h"
#include "reference/miner.h"
#include "rules/miner.h"

namespace {

bool SameRules(const std::vector<optrules::rules::MinedRule>& a,
               const std::vector<optrules::rules::MinedRule>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].found != b[i].found || a[i].kind != b[i].kind ||
        a[i].numeric_attr != b[i].numeric_attr ||
        a[i].boolean_attr != b[i].boolean_attr ||
        a[i].range_lo != b[i].range_lo || a[i].range_hi != b[i].range_hi ||
        a[i].support_count != b[i].support_count ||
        a[i].hit_count != b[i].hit_count) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const int64_t scale = optrules::bench::BenchScale();
  const int kNumeric = static_cast<int>(20 * scale);
  const int kBoolean = static_cast<int>(20 * scale);
  const int64_t kRows = 100000;
  optrules::bench::JsonReporter json("allpairs_mining");

  optrules::datagen::TableConfig config;
  config.num_rows = kRows;
  config.num_numeric = kNumeric;
  config.num_boolean = kBoolean;
  // Plant a handful of real rules so the output is not pure noise.
  for (int r = 0; r < 5; ++r) {
    optrules::datagen::PlantedRule rule;
    rule.numeric_attr = r % kNumeric;
    rule.boolean_attr = (r * 3) % kBoolean;
    rule.lo = 200000.0 + 50000.0 * r;
    rule.hi = rule.lo + 150000.0;
    rule.prob_inside = 0.7;
    rule.prob_outside = 0.1;
    config.planted_rules.push_back(rule);
  }
  optrules::Rng rng(4242);
  optrules::WallTimer generation_timer;
  const optrules::storage::Relation table =
      optrules::datagen::GenerateTable(config, rng);
  const double generation_seconds = generation_timer.ElapsedSeconds();

  optrules::rules::MinerOptions options;
  options.num_buckets = 1000;
  options.min_support = 0.05;
  options.min_confidence = 0.5;

  // Reference path: one counting scan per numeric attribute.
  optrules::rules::Miner miner(&table, options);
  optrules::WallTimer legacy_timer;
  const std::vector<optrules::rules::MinedRule> legacy = miner.MineAll();
  const double legacy_seconds = legacy_timer.ElapsedSeconds();

  // Batch core: one shared counting scan for all pairs, on the pool. The
  // session also registers a generalized condition and an aggregate
  // target so their channels ride along in the same scan.
  optrules::rules::MiningEngine engine(&table, options,
                                       &optrules::DefaultThreadPool());
  engine.RequestGeneralized({"bool0"});
  engine.RequestAverageTarget("num1");
  optrules::WallTimer engine_timer;
  const std::vector<optrules::rules::MinedRule> rules =
      engine.MineAllPairs();
  const double engine_seconds = engine_timer.ElapsedSeconds();
  const bool identical = SameRules(legacy, rules);

  // Threshold sweep: every pair re-mined at three more threshold sets,
  // each costing O(M) per pair on the cached counts -- no rescans.
  const optrules::rules::ThresholdSet sweep[] = {
      {0.01, 0.3}, {0.10, 0.6}, {0.25, 0.9}};
  optrules::WallTimer sweep_timer;
  const std::vector<optrules::rules::MinedRule> swept =
      engine.MineAllPairs(sweep);
  const double sweep_seconds = sweep_timer.ElapsedSeconds();

  // Generalized + aggregate queries from the same session cache.
  optrules::WallTimer extra_timer;
  const auto generalized = engine.MineGeneralized("num0", {"bool0"}, "bool1");
  const auto average = engine.MineMaximumAverageRange("num0", "num1", 0.05);
  const double extra_seconds = extra_timer.ElapsedSeconds();
  const bool extras_ok = generalized.ok() && average.ok();

  int found = 0;
  double best_confidence = 0.0;
  const optrules::rules::MinedRule* best = nullptr;
  for (const optrules::rules::MinedRule& rule : rules) {
    if (!rule.found) continue;
    ++found;
    if (rule.kind == optrules::rules::RuleKind::kOptimizedConfidence &&
        rule.confidence > best_confidence) {
      best_confidence = rule.confidence;
      best = &rule;
    }
  }

  optrules::bench::PrintHeader(
      "All-pairs mining (Section 1.3 'hundreds of attributes' claim)");
  std::printf("table: %lld rows, %d numeric x %d boolean attributes\n",
              static_cast<long long>(kRows), kNumeric, kBoolean);
  std::printf("generation time:   %8.2f s\n", generation_seconds);
  std::printf("legacy miner:      %8.2f s  (%d counting scans)\n",
              legacy_seconds, kNumeric);
  std::printf("batch engine:      %8.2f s  (%lld counting scan)\n",
              engine_seconds,
              static_cast<long long>(engine.counting_scans()));
  std::printf("engine speedup:    %8.2fx\n",
              legacy_seconds / engine_seconds);
  std::printf("per pair (engine): %8.3f ms\n",
              1e3 * engine_seconds / (kNumeric * kBoolean));
  std::printf("threshold sweep:   %8.2f s  (%zu threshold sets, %zu rules, "
              "0 extra scans)\n",
              sweep_seconds, std::size(sweep), swept.size());
  std::printf("generalized + avg: %8.4f s  (same session cache)\n",
              extra_seconds);
  std::printf("rules found:       %d of %zu\n", found, rules.size());
  std::printf("engine == legacy:  %s\n", identical ? "yes" : "NO");
  if (best != nullptr) {
    std::printf("best confidence rule: %s\n", best->ToString().c_str());
  }
  json.Add("rows", kRows);
  json.Add("pairs", static_cast<int64_t>(kNumeric) * kBoolean);
  json.Add("generation_seconds", generation_seconds);
  json.Add("legacy_seconds", legacy_seconds);
  json.Add("engine_seconds", engine_seconds);
  json.Add("engine_counting_scans", engine.counting_scans());
  json.Add("sweep_seconds", sweep_seconds);
  json.Add("sweep_rules", static_cast<int64_t>(swept.size()));
  json.Add("extra_query_seconds", extra_seconds);
  json.Add("rules_found", static_cast<int64_t>(found));
  json.Add("identical", identical);

  // "Reasonable time": the paper's bar is minutes for hundreds of
  // attributes; we require < 60 s per 400 pairs at default scale, one
  // shared scan (sweeps, generalized, and aggregate queries included),
  // and bit-identical output to the reference miner.
  const bool ok = engine_seconds < 60.0 * scale && identical && extras_ok &&
                  engine.counting_scans() == 1;
  std::printf("Shape check (one shared scan, identical rules, reasonable "
              "time): %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
