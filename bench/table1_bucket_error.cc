// Table I: error range of the bucket approximation as a function of the
// number of buckets, for an optimal range with support 30% and confidence
// 70%.
//
// Prints (a) the analytic worst-case band of Section 3.4 and (b) an
// empirical measurement: a rule with those statistics is planted in a
// uniform attribute, mined with M buckets, and the mined support and
// confidence are compared with the planted optimum.

#include <cstdio>

#include "bench/bench_util.h"
#include "bucketing/error_bounds.h"
#include "datagen/table_generator.h"
#include "rules/miner.h"

namespace {

using optrules::bucketing::ApproxErrorBounds;
using optrules::bucketing::BucketApproximationBounds;

constexpr double kSupportOpt = 0.30;
constexpr double kConfidenceOpt = 0.70;

optrules::storage::Relation PlantedTable(int64_t rows) {
  optrules::datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = 1;
  config.num_boolean = 1;
  optrules::datagen::PlantedRule rule;
  rule.numeric_attr = 0;
  rule.boolean_attr = 0;
  // 30% of Uniform(0, 1e6); confidence 70% inside, low outside so the
  // planted band is the unique optimum.
  rule.lo = 350000.0;
  rule.hi = 650000.0;
  rule.prob_inside = kConfidenceOpt;
  rule.prob_outside = 0.05;
  config.planted_rules.push_back(rule);
  optrules::Rng rng(2024);
  return optrules::datagen::GenerateTable(config, rng);
}

}  // namespace

int main() {
  const int64_t rows = 200000 * optrules::bench::BenchScale();
  const optrules::storage::Relation table = PlantedTable(rows);

  optrules::bench::PrintHeader(
      "Table I: approximation error vs number of buckets "
      "(support_opt = 30%, conf_opt = 70%)");
  std::printf("%8s | %23s | %23s | %23s\n", "buckets",
              "support bound (%)", "confidence bound (%)",
              "measured supp/conf (%)");
  optrules::bench::PrintRule(84);

  bool all_inside = true;
  for (const int buckets : {10, 50, 100, 500, 1000}) {
    const ApproxErrorBounds bounds =
        BucketApproximationBounds(kSupportOpt, kConfidenceOpt, buckets);

    optrules::rules::MinerOptions options;
    options.num_buckets = buckets;
    // Mine at exactly the optimum's support so the fine-grained optimal
    // range is the planted band itself; the miner's answer is then the
    // bucket approximation whose error Table I bounds. (The miner always
    // enforces the ampleness constraint, so only the upper support
    // deviation and the lower confidence deviation can be observed.)
    options.min_support = kSupportOpt;
    options.seed = 7;
    optrules::rules::MiningEngine engine(&table, options);
    const optrules::rules::MinedRule mined =
        engine.MinePair("num0", "bool0").value()[0];

    std::printf("%8d | %10.2f ... %8.2f | %10.2f ... %8.2f |", buckets,
                bounds.support_lo * 100.0, bounds.support_hi * 100.0,
                bounds.confidence_lo * 100.0, bounds.confidence_hi * 100.0);
    if (mined.found) {
      std::printf(" %9.2f / %9.2f\n", mined.support * 100.0,
                  mined.confidence * 100.0);
      // Sampling adds noise on top of the bucket-granularity bound; allow
      // one extra bucket of slack per side when checking.
      const double slack = 1.0 / buckets + 0.01;
      if (mined.confidence < bounds.confidence_lo - slack ||
          mined.support < bounds.support_lo - slack ||
          mined.support > bounds.support_hi + slack) {
        all_inside = false;
      }
    } else {
      std::printf("   (no ample range found)\n");
      all_inside = false;
    }
  }
  optrules::bench::PrintRule(84);
  std::printf("All measured values inside the analytic band (with one "
              "bucket of sampling slack): %s\n",
              all_inside ? "yes" : "NO");
  return all_inside ? 0 : 1;
}
