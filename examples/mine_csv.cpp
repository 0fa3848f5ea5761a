// Command-line miner: load a CSV relation, mine every (numeric, Boolean)
// attribute pair, rank the rules by lift, and write a Markdown report.
//
//   ./mine_csv [input.csv [report.md]]
//
// Without arguments it generates a demo CSV first so the binary is
// runnable standalone. CSV header cells are `name:numeric` or
// `name:boolean`; boolean cells are 0/1 or yes/no.

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "datagen/bank.h"
#include "report/report.h"
#include "rules/miner.h"
#include "storage/csv.h"

int main(int argc, char** argv) {
  std::string input_path =
      argc > 1 ? argv[1] : "/tmp/optrules_demo_input.csv";
  const std::string report_path =
      argc > 2 ? argv[2] : "/tmp/optrules_report.md";

  if (argc <= 1) {
    // Demo mode: write 50k bank customers to CSV first.
    optrules::datagen::BankConfig config;
    config.num_customers = 50000;
    optrules::Rng rng(5);
    const optrules::storage::Relation demo =
        optrules::datagen::GenerateBankCustomers(config, rng);
    const optrules::Status status =
        optrules::storage::WriteCsv(demo, input_path);
    if (!status.ok()) {
      std::fprintf(stderr, "demo generation failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("(demo mode: wrote %s)\n", input_path.c_str());
  }

  optrules::Result<optrules::storage::Relation> loaded =
      optrules::storage::ReadCsv(input_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", input_path.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  const optrules::storage::Relation& relation = loaded.value();
  std::printf("loaded %s: %lld tuples, %d numeric + %d boolean "
              "attributes\n",
              input_path.c_str(),
              static_cast<long long>(relation.NumRows()),
              relation.schema().num_numeric(),
              relation.schema().num_boolean());

  optrules::rules::MinerOptions options;
  options.num_buckets = 500;
  options.min_support = 0.05;
  options.min_confidence = 0.5;
  optrules::rules::MiningEngine engine(&relation, options);
  const std::vector<optrules::rules::MinedRule> mined = engine.MineAllPairs();

  const std::vector<optrules::report::RankedRule> ranked =
      optrules::report::RankByLift(mined, relation);
  std::printf("mined %zu rules (%zu found) across %d pairs\n\n",
              mined.size(), ranked.size(),
              relation.schema().num_numeric() *
                  relation.schema().num_boolean());

  std::printf("top rules by lift:\n");
  for (size_t i = 0; i < ranked.size() && i < 5; ++i) {
    std::printf("  %zu. %s  (lift %.2f)\n", i + 1,
                ranked[i].rule.ToString().c_str(),
                ranked[i].measures.lift);
  }

  const optrules::Status write_status = optrules::report::WriteTextFile(
      optrules::report::ToMarkdown(ranked), report_path);
  std::printf("\nfull report: %s (%s)\n", report_path.c_str(),
              write_status.ToString().c_str());
  return write_status.ok() ? 0 : 1;
}
