// Quickstart: mine both optimized rules from a synthetic bank-customers
// table in ~30 lines of user code.
//
//   $ ./quickstart
//
// Steps: generate data -> construct a MiningEngine -> ask for the
// optimized confidence and optimized support rules of (Balance => CardLoan).

#include <cstdio>

#include "common/rng.h"
#include "datagen/bank.h"
#include "rules/miner.h"

int main() {
  // 1. A table of 100k bank customers with a planted association: balances
  //    in [3000, 10000] strongly predict card-loan usage.
  optrules::datagen::BankConfig bank_config;
  bank_config.num_customers = 100000;
  optrules::Rng rng(1);
  const optrules::storage::Relation customers =
      optrules::datagen::GenerateBankCustomers(bank_config, rng);

  // 2. Configure the miner: 1000 approximate equi-depth buckets
  //    (Algorithm 3.1), 10% minimum support, 50% minimum confidence.
  optrules::rules::MinerOptions options;
  options.num_buckets = 1000;
  options.min_support = 0.10;
  options.min_confidence = 0.50;
  optrules::rules::MiningEngine engine(&customers, options);

  // 3. Mine the two optimized rules for (Balance => CardLoan); the first
  //    query runs the one shared bucket-counting scan.
  const auto rules = engine.MinePair("Balance", "CardLoan");
  if (!rules.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 rules.status().ToString().c_str());
    return 1;
  }

  std::printf("Optimized confidence rule (max confidence, support >= "
              "%.0f%%):\n  %s\n\n",
              options.min_support * 100.0,
              rules.value()[0].ToString().c_str());
  std::printf("Optimized support rule (max support, confidence >= "
              "%.0f%%):\n  %s\n",
              options.min_confidence * 100.0,
              rules.value()[1].ToString().c_str());
  return 0;
}
