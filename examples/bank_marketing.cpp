// Bank marketing scenario (the paper's running example, Sections 1-5).
//
// A bank wants to promote card loans by direct mail within a fixed budget:
//   1. The optimized-support rule finds the largest customer cluster whose
//      card-loan probability is at least 50% (who to mail at scale).
//   2. The optimized-confidence rule finds the >= 10% cluster with the
//      highest card-loan probability (who to mail first).
//   3. Section 5 aggregates characterize "excellent" savers: the checking
//      balance range with at least 10% of customers maximizing the average
//      saving balance, and the largest range whose average savings clear a
//      target.
//   4. A generalized rule conditions on AutoWithdrawal users only.

#include <cstdio>

#include "common/rng.h"
#include "datagen/bank.h"
#include "rules/miner.h"

int main() {
  optrules::datagen::BankConfig config;
  config.num_customers = 200000;
  optrules::Rng rng(7);
  const optrules::storage::Relation customers =
      optrules::datagen::GenerateBankCustomers(config, rng);
  std::printf("BankCustomers: %lld tuples, %d numeric + %d boolean "
              "attributes\n\n",
              static_cast<long long>(customers.NumRows()),
              customers.schema().num_numeric(),
              customers.schema().num_boolean());

  optrules::rules::MinerOptions options;
  options.num_buckets = 1000;
  options.min_support = 0.10;
  options.min_confidence = 0.50;
  optrules::rules::MiningEngine engine(&customers, options);
  // Registering the aggregate target and the generalized condition up
  // front lets their channels ride along in the one counting scan.
  (void)engine.RequestAverageTarget("SavingAccount");
  (void)engine.RequestGeneralized({"AutoWithdrawal"});

  // --- 1 & 2: the paper's motivating (Balance => CardLoan) rules. -------
  const auto balance_rules = engine.MinePair("Balance", "CardLoan").value();
  std::printf("[1] Largest >=50%%-confident balance cluster (optimized "
              "support):\n    %s\n\n",
              balance_rules[1].ToString().c_str());
  std::printf("[2] Most loan-prone ample cluster (optimized "
              "confidence):\n    %s\n\n",
              balance_rules[0].ToString().c_str());

  // Age is a weaker predictor; the engine quantifies that too.
  const auto age_rules = engine.MinePair("Age", "CardLoan").value();
  std::printf("    For comparison, Age-based rule: %s\n\n",
              age_rules[0].ToString().c_str());

  // --- 3: Section 5 average-operator queries. ---------------------------
  const auto rich_band =
      engine.MineMaximumAverageRange("CheckingAccount", "SavingAccount", 0.10)
          .value();
  std::printf("[3a] Maximum-average range (Example 5.2):\n     %s\n",
              rich_band.ToString().c_str());
  const auto wide_band =
      engine.MineMaximumSupportRange("CheckingAccount", "SavingAccount",
                                    12000.0)
          .value();
  std::printf("[3b] Maximum-support range with avg(SavingAccount) >= "
              "12000 (Example 5.3):\n     %s\n\n",
              wide_band.ToString().c_str());

  // --- 4: generalized rule (Section 4.3). --------------------------------
  const auto generalized =
      engine.MineGeneralized("Balance", {"AutoWithdrawal"}, "CardLoan")
          .value();
  std::printf("[4] Conditioned on AutoWithdrawal users:\n    %s\n",
              generalized[0].ToString().c_str());
  return 0;
}
