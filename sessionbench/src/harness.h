// Workload-independent pieces of the session benchmark: the seeded table
// generator, the open-loop arrival schedule and runner, the latency
// statistics, and the answer checks. Kept apart from main() so the
// benchmark's own tests can exercise them directly.

#ifndef SESSIONBENCH_HARNESS_H_
#define SESSIONBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "datagen/table_generator.h"
#include "rules/miner.h"
#include "storage/relation.h"

namespace sessionbench {

// ------------------------------------------------------------- inputs ----

/// The planted ground-truth rule every workload's table carries:
/// (num0 in [300000, 400000]) => bool0 at confidence 0.9 inside, 0.1
/// outside, over Uniform(0, 1e6) attributes (10% support).
optrules::datagen::PlantedRule BenchPlantedRule();

/// Paper Section 6.1 table (8 numeric + 8 Boolean attributes, 72 B/row)
/// with BenchPlantedRule() planted.
optrules::datagen::TableConfig BenchTableConfig(int64_t rows);

/// The table for `seed`, in memory: the same seed gives the same rows.
optrules::storage::Relation GenerateBenchTable(int64_t rows, uint64_t seed);

// ---------------------------------------------------------- statistics ----

/// Median (mean of the middle pair for even counts); 0 for no samples.
double Median(std::vector<double> samples);

/// The tail of a latency sample: the highest integer percentile p (at most
/// 99) whose nearest-rank value still has at least kTailBeyond samples
/// strictly above its rank. With fewer than 2 * kTailBeyond samples no
/// percentile at or above the median qualifies; the tail is then the
/// median itself, reported as percentile 50.
struct Tail {
  double value = 0.0;
  int percentile = 0;
  int64_t samples = 0;
  int64_t beyond = 0;  ///< samples ranked above the reported one
};
inline constexpr int64_t kTailBeyond = 10;
Tail TailPercentile(std::vector<double> samples);

// ----------------------------------------------------------- open loop ----

/// Due times (seconds from the phase start) of an open-loop phase: exactly
/// round(rate * duration) arrivals, placed uniformly at random over the
/// phase (a Poisson process conditioned on its count), sorted. The fixed
/// count keeps the offered load identical across seeds.
std::vector<double> OpenLoopSchedule(uint64_t seed, double rate_per_s,
                                     double duration_s);

/// Timing of one open-loop session, in seconds from the phase start.
struct SessionTiming {
  double due = 0.0;
  double picked = 0.0;  ///< a connection became free for it
  double sent = 0.0;    ///< the request left the harness
  double done = 0.0;    ///< the last answer arrived
  bool ok = false;
  /// Latency as the user sees it: from the due time, so time spent
  /// waiting for a free connection (a stall upstream) counts.
  double latency_s() const { return done - due; }
  /// Generator lateness: how long after the session could have been sent
  /// (due, or later when every connection was busy) it actually was.
  double lag_s() const { return sent - (picked > due ? picked : due); }
};

/// Drives `schedule` over `connections` concurrent connections. Each
/// connection thread claims the next unsent session in schedule order,
/// sleeps until its due time, and calls run(connection, index), which
/// returns whether the session succeeded. A session whose due time passes
/// while every connection is busy is sent late, and its lateness counts in
/// its latency. Returns one timing per scheduled session.
std::vector<SessionTiming> RunOpenLoop(
    const std::vector<double>& schedule, int connections,
    const std::function<bool(int connection, size_t index)>& run);

/// Whether an open-loop phase kept up: no failures, its tail latency
/// within `limit_s`, and no growing backlog (the median send delay of the
/// last quarter of sessions exceeds the first quarter's by at most half
/// the limit).
bool PhaseMeetsLimit(const std::vector<SessionTiming>& timings,
                     double limit_s);

// -------------------------------------------------------------- checks ----

/// Bitwise equality of mined answers (doubles compared by bit pattern).
bool SameRule(const optrules::rules::MinedRule& a,
              const optrules::rules::MinedRule& b);
bool SameRules(const std::vector<optrules::rules::MinedRule>& a,
               const std::vector<optrules::rules::MinedRule>& b);
bool SameAggregate(const optrules::rules::MinedAggregateRange& a,
                   const optrules::rules::MinedAggregateRange& b);
bool SameRegion(const optrules::rules::MinedRegion& a,
                const optrules::rules::MinedRegion& b);

/// Recounts a found rule over the generated rows: rows with the numeric
/// attribute in [range_lo, range_hi] (and every presumptive-condition
/// conjunct true) must number support_count, and hit_count of them must
/// satisfy the Boolean attribute. Holds for any bucket boundaries, since
/// a mined range spans whole buckets and its endpoints are observed
/// values. Returns an empty string when the rule checks out, otherwise
/// what differs.
std::string RecountRule(const optrules::storage::Relation& rows,
                        const optrules::rules::MinedRule& rule,
                        const std::vector<std::string>& condition);

/// Recounts an aggregate range's support (and its average, to a relative
/// 1e-9) over the generated rows. Empty string when it checks out.
std::string RecountAggregate(const optrules::storage::Relation& rows,
                             const optrules::rules::MinedAggregateRange& a);

/// Empty string when `rules` (an all-pairs answer) contains the planted
/// rule: the optimized-confidence rule for its attribute pair has its
/// range inside the planted range (give or take a tenth of its width) and
/// confidence of at least 0.8.
std::string CheckPlantedRuleFound(
    const std::vector<optrules::rules::MinedRule>& rules);

}  // namespace sessionbench

#endif  // SESSIONBENCH_HARNESS_H_
