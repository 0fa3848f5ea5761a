// Retail basket analysis: numeric-range rules over transaction data and a
// full all-pairs sweep (the Section 1.3 "complete set of optimized rules"
// usage), plus CSV export of the mined table for downstream tools.

#include <cstdio>

#include "common/rng.h"
#include "datagen/retail.h"
#include "rules/miner.h"
#include "storage/csv.h"

int main() {
  optrules::datagen::RetailConfig config;
  config.num_transactions = 150000;
  optrules::Rng rng(11);
  const optrules::storage::Relation transactions =
      optrules::datagen::GenerateRetail(config, rng);
  std::printf("Retail transactions: %lld tuples\n\n",
              static_cast<long long>(transactions.NumRows()));

  optrules::rules::MinerOptions options;
  options.num_buckets = 500;
  options.min_support = 0.05;
  options.min_confidence = 0.40;
  optrules::rules::MiningEngine engine(&transactions, options);
  // The generalized condition rides along in the one counting scan.
  (void)engine.RequestGeneralized({"Pizza", "Coke"});

  // The planted association: a mid spend band loves Coke.
  const auto spend_coke = engine.MinePair("TotalSpend", "Coke").value();
  std::printf("Spend band that buys Coke (optimized confidence):\n  %s\n\n",
              spend_coke[0].ToString().c_str());

  // Generalized rule in the spirit of (Pizza ^ Coke) => Potato, localized
  // to a spend range.
  const auto snack_rule =
      engine.MineGeneralized("TotalSpend", {"Pizza", "Coke"}, "Potato")
          .value();
  std::printf("Generalized rule (Section 4.3):\n  %s\n\n",
              snack_rule[0].ToString().c_str());

  // Complete sweep over every (numeric, boolean) pair; print the rules
  // that clear 50% confidence with ample support.
  std::printf("All-pairs sweep (%d numeric x %d boolean attributes):\n",
              transactions.schema().num_numeric(),
              transactions.schema().num_boolean());
  int printed = 0;
  for (const optrules::rules::MinedRule& rule : engine.MineAllPairs()) {
    if (!rule.found) continue;
    if (rule.kind != optrules::rules::RuleKind::kOptimizedConfidence) {
      continue;
    }
    if (rule.confidence < 0.5) continue;
    std::printf("  %s\n", rule.ToString().c_str());
    ++printed;
  }
  if (printed == 0) {
    std::printf("  (no rule clears 50%% confidence at 5%% support)\n");
  }

  // Export a sample of the table for spreadsheet inspection.
  optrules::storage::Relation sample(transactions.schema());
  for (int64_t row = 0; row < 1000; ++row) {
    std::vector<double> numeric;
    std::vector<uint8_t> boolean;
    for (int c = 0; c < transactions.schema().num_numeric(); ++c) {
      numeric.push_back(transactions.NumericValue(row, c));
    }
    for (int c = 0; c < transactions.schema().num_boolean(); ++c) {
      boolean.push_back(transactions.BooleanValue(row, c) ? 1 : 0);
    }
    sample.AppendRow(numeric, boolean);
  }
  const std::string csv_path = "/tmp/retail_sample.csv";
  const optrules::Status status =
      optrules::storage::WriteCsv(sample, csv_path);
  std::printf("\nSample of 1000 transactions exported to %s (%s)\n",
              csv_path.c_str(), status.ToString().c_str());
  return 0;
}
