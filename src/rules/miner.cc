#include "rules/miner.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

#include "bucketing/equidepth_sampler.h"
#include "bucketing/gk_sketch.h"
#include "bucketing/parallel_count.h"
#include "common/ratio.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "rules/average_range.h"
#include "rules/optimized_confidence.h"
#include "rules/optimized_support.h"

namespace optrules::rules {

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.4g", value);
  return buffer;
}

}  // namespace

uint64_t AttributeSalt(int numeric_index) {
  return 0x9e37 * static_cast<uint64_t>(numeric_index);
}

std::string ConditionText(const std::vector<std::string>& condition_attrs) {
  std::string text;
  for (const std::string& name : condition_attrs) {
    if (!text.empty()) text += " ^ ";
    text += name + "=yes";
  }
  return text;
}

std::vector<MinedRule> EmitRulesForPair(
    const bucketing::BucketCounts& counts, int target_index,
    const MinerOptions& options, const std::string& numeric_attr,
    const std::string& boolean_attr) {
  RangeRule optimized[2];
  if (!counts.u.empty()) {
    const std::vector<int64_t>& u = counts.u;
    const std::vector<int64_t>& v =
        counts.v[static_cast<size_t>(target_index)];
    optimized[0] = OptimizedConfidenceRule(
        u, v, counts.total_tuples,
        MinSupportCount(counts.total_tuples, options.min_support));
    optimized[1] = OptimizedSupportRule(
        u, v, counts.total_tuples, Ratio::FromDouble(options.min_confidence));
  }

  std::vector<MinedRule> mined;
  const RuleKind kinds[2] = {RuleKind::kOptimizedConfidence,
                             RuleKind::kOptimizedSupport};
  for (int k = 0; k < 2; ++k) {
    const RangeRule& range = optimized[k];
    MinedRule rule;
    rule.kind = kinds[k];
    rule.numeric_attr = numeric_attr;
    rule.boolean_attr = boolean_attr;
    rule.found = range.found;
    if (range.found) {
      rule.range_lo = bucketing::RangeMinValue(counts, range.s, range.t);
      rule.range_hi = bucketing::RangeMaxValue(counts, range.s, range.t);
      rule.support_count = range.support_count;
      rule.hit_count = range.hit_count;
      rule.support = range.support;
      rule.confidence = range.confidence;
    }
    mined.push_back(std::move(rule));
  }
  return mined;
}

MinedAggregateRange ToMinedAggregate(const bucketing::BucketSums& sums,
                                     const RangeAggregate& aggregate,
                                     const std::string& range_attr,
                                     const std::string& target_attr) {
  MinedAggregateRange mined;
  mined.range_attr = range_attr;
  mined.target_attr = target_attr;
  mined.found = aggregate.found;
  if (aggregate.found) {
    mined.range_lo = bucketing::RangeMinValue(sums, aggregate.s, aggregate.t);
    mined.range_hi = bucketing::RangeMaxValue(sums, aggregate.s, aggregate.t);
    mined.support_count = aggregate.support_count;
    mined.support = sums.total_tuples > 0
                        ? static_cast<double>(aggregate.support_count) /
                              static_cast<double>(sums.total_tuples)
                        : 0.0;
    mined.average = aggregate.average;
  }
  return mined;
}

MinedRegion MineRegionFromGrid(const region::GridCounts& grid,
                               const MinerOptions& options,
                               const std::string& x_attr,
                               const std::string& y_attr,
                               const std::string& target_attr) {
  MinedRegion mined;
  mined.x_attr = x_attr;
  mined.y_attr = y_attr;
  mined.target_attr = target_attr;
  mined.nx = grid.nx();
  mined.ny = grid.ny();
  mined.total_tuples = grid.total_tuples();
  mined.confidence_rectangle = region::OptimizedConfidenceRectangle(
      grid, MinSupportCount(grid.total_tuples(), options.min_support));
  mined.support_rectangle = region::OptimizedSupportRectangle(
      grid, Ratio::FromDouble(options.min_confidence));
  mined.xmonotone_gain = region::MaxGainXMonotoneRegion(
      grid, Ratio::FromDouble(options.min_confidence));
  mined.found = mined.confidence_rectangle.found ||
                mined.support_rectangle.found || mined.xmonotone_gain.found;
  return mined;
}

std::string MinedRegion::ToString() const {
  std::string text = "(" + x_attr + ", " + y_attr + ") in R => (" +
                     target_attr + "=yes) on a " + std::to_string(nx) + "x" +
                     std::to_string(ny) + " grid:";
  const auto rectangle_line = [](const char* label,
                                 const region::RegionRule& rule) {
    if (!rule.found) {
      return "\n  " + std::string(label) + ": none";
    }
    return "\n  " + std::string(label) + ": x[" + std::to_string(rule.x1) +
           ", " + std::to_string(rule.x2) + "] y[" + std::to_string(rule.y1) +
           ", " + std::to_string(rule.y2) + "]  [support " +
           FormatDouble(rule.support * 100.0) + "%, confidence " +
           FormatDouble(rule.confidence * 100.0) + "%]";
  };
  text += rectangle_line("confidence rectangle", confidence_rectangle);
  text += rectangle_line("support rectangle", support_rectangle);
  if (!xmonotone_gain.found) {
    text += "\n  x-monotone gain region: none";
  } else {
    text += "\n  x-monotone gain region: columns [" +
            std::to_string(xmonotone_gain.x_begin) + ", " +
            std::to_string(
                xmonotone_gain.x_begin +
                static_cast<int>(xmonotone_gain.column_ranges.size()) - 1) +
            "], gain " + FormatDouble(xmonotone_gain.gain) + "  [support " +
            FormatDouble(xmonotone_gain.support * 100.0) + "%, confidence " +
            FormatDouble(xmonotone_gain.confidence * 100.0) + "%]";
  }
  return text;
}

bucketing::BoundaryPlan ToBoundaryPlan(const MinerOptions& options) {
  bucketing::BoundaryPlan plan;
  plan.bucketizer = options.bucketizer;
  plan.num_buckets = options.num_buckets;
  plan.sample_per_bucket = options.sample_per_bucket;
  plan.seed = options.seed;
  plan.gk_epsilon = options.gk_epsilon;
  return plan;
}

std::string MinedRule::ToString() const {
  if (!found) {
    return "(" + numeric_attr + " => " + boolean_attr + "): no " +
           (kind == RuleKind::kOptimizedConfidence ? "ample" : "confident") +
           " range";
  }
  std::string text = "(" + numeric_attr + " in [" + FormatDouble(range_lo) +
                     ", " + FormatDouble(range_hi) + "])";
  if (!presumptive_condition.empty()) {
    text += " ^ (" + presumptive_condition + ")";
  }
  text += " => (" + boolean_attr + "=yes)";
  text += "  [support " + FormatDouble(support * 100.0) + "%, confidence " +
          FormatDouble(confidence * 100.0) + "%]";
  return text;
}

std::string MinedAggregateRange::ToString() const {
  if (!found) {
    return "avg(" + target_attr + " | " + range_attr + "): no valid range";
  }
  return "avg(" + target_attr + " | " + range_attr + " in [" +
         FormatDouble(range_lo) + ", " + FormatDouble(range_hi) + "]) = " +
         FormatDouble(average) + "  [support " +
         FormatDouble(support * 100.0) + "%]";
}

// ------------------------------------------------------- MiningEngine ----

MiningEngine::MiningEngine(const storage::Relation* relation,
                           MinerOptions options, ThreadPool* pool)
    : schema_(relation != nullptr ? relation->schema() : storage::Schema()),
      options_(options),
      pool_(pool) {
  OPTRULES_CHECK(relation != nullptr);
  owned_source_ = std::make_unique<storage::RelationBatchSource>(relation);
  source_ = owned_source_.get();
}

MiningEngine::MiningEngine(storage::BatchSource* source,
                           storage::Schema schema, MinerOptions options,
                           ThreadPool* pool)
    : source_(source),
      schema_(std::move(schema)),
      options_(options),
      pool_(pool) {
  OPTRULES_CHECK(source != nullptr);
  OPTRULES_CHECK(schema_.num_numeric() == source->num_numeric());
  OPTRULES_CHECK(schema_.num_boolean() == source->num_boolean());
}

MiningEngine::MiningEngine(const dist::PartitionedTable* table,
                           MinerOptions options,
                           dist::DistributedScanOptions dist_options)
    : partitioned_(table),
      dist_options_(std::move(dist_options)),
      options_(options) {
  OPTRULES_CHECK(table != nullptr);
  schema_ = table->schema();
  // The concatenated source feeds boundary planning (one streaming pass in
  // manifest order); counting scans go through the coordinator instead and
  // account their logical scans on this source via NoteScanStarted.
  owned_source_ = std::make_unique<dist::PartitionedTableBatchSource>(
      table, dist_options_.batch_rows);
  source_ = owned_source_.get();
}

MiningEngine::~MiningEngine() = default;

Status MiningEngine::ExecuteCount(bucketing::MultiCountPlan* plan) {
  if (partitioned_ != nullptr) {
    if (coordinator_ == nullptr) {
      coordinator_ = std::make_unique<dist::DistributedScanCoordinator>(
          partitioned_, dist_options_);
    }
    OPTRULES_RETURN_IF_ERROR(coordinator_->Execute(plan));
    // The fan-out read the whole table once: account ONE logical scan, so
    // scans_started() keeps meaning "times the data was read".
    source_->NoteScanStarted();
    return Status::Ok();
  }
  bucketing::ExecuteMultiCount(*source_, plan, pool_);
  return Status::Ok();
}

storage::BatchSourceStats MiningEngine::scan_stats() const {
  storage::BatchSourceStats stats;
  if (source_ != nullptr) stats = source_->SourceStats();
  if (coordinator_ != nullptr) {
    const storage::BatchSourceStats dist = coordinator_->scan_stats();
    stats.cache_hits += dist.cache_hits;
    stats.cache_misses += dist.cache_misses;
    stats.pages_skipped += dist.pages_skipped;
    stats.partitions_skipped += dist.partitions_skipped;
    stats.retries += dist.retries;
    stats.workers_respawned += dist.workers_respawned;
    stats.partitions_stolen += dist.partitions_stolen;
  }
  return stats;
}

void MiningEngine::PlanBoundarySets(
    std::span<const BoundarySetRequest> requests,
    std::span<std::vector<bucketing::BucketBoundaries>* const> out) {
  OPTRULES_CHECK(requests.size() == out.size());
  obs::Span span("engine.plan");
  span.AddAttribute("bucketizer", static_cast<double>(options_.bucketizer));
  span.AddAttribute("boundary_sets", static_cast<double>(requests.size()));
  span.AddAttribute("rows", static_cast<double>(source_->NumTuples()));
  const int num_numeric = schema_.num_numeric();
  const size_t sets = requests.size();
  for (size_t i = 0; i < sets; ++i) {
    OPTRULES_CHECK(requests[i].num_buckets >= 1);
    OPTRULES_CHECK(requests[i].column_mask.empty() ||
                   requests[i].column_mask.size() ==
                       static_cast<size_t>(num_numeric));
    out[i]->clear();
    out[i]->reserve(static_cast<size_t>(num_numeric));
  }
  if (sets == 0) return;

  // Whether set `i` plans attribute `a`; masked-out attributes get empty
  // placeholder boundaries (never consumed by the caller).
  const auto needs = [&requests](size_t i, int a) {
    return requests[i].column_mask.empty() ||
           requests[i].column_mask[static_cast<size_t>(a)] != 0;
  };
  const auto placeholder = [] {
    return bucketing::BucketBoundaries::FromCutPoints({});
  };
  // For the seed-ignoring (deterministic) bucketizers, the earliest set
  // whose boundaries set `i` can simply copy: same bucket count, and the
  // earlier set planned at least the columns `i` needs (unmasked, or the
  // identical mask). Returns `i` itself when set `i` must be planned.
  const auto first_copyable = [&requests](size_t i) {
    for (size_t j = 0; j < i; ++j) {
      if (requests[j].num_buckets == requests[i].num_buckets &&
          (requests[j].column_mask.empty() ||
           requests[j].column_mask == requests[i].column_mask)) {
        return j;
      }
    }
    return i;
  };

  // ONE pass over the source plans every requested set at once.
  switch (options_.bucketizer) {
    case Bucketizer::kSampling:
    case Bucketizer::kExactSort: {
      // Algorithm 3.1 per planned (set, attribute) slot: min(S, N)
      // ascending row indices drawn from the slot's seed -- every row for
      // the exact sort, which ignores seeds, so its sets sharing a bucket
      // count copy the first one's boundaries. One scan overwrites each
      // slot's row indices in place with their values, which are then
      // sorted into boundaries. Draws, gather shards and sorts all run on
      // the pool; masked-out slots stay placeholders and cost nothing.
      const bool exact = options_.bucketizer == Bucketizer::kExactSort;
      const int64_t num_rows = source_->NumTuples();
      std::vector<std::pair<size_t, int>> planned;  // (set, attribute)
      for (size_t i = 0; i < sets; ++i) {
        out[i]->assign(static_cast<size_t>(num_numeric), placeholder());
        if (exact && first_copyable(i) != i) continue;
        for (int a = 0; a < num_numeric; ++a) {
          if (needs(i, a)) planned.emplace_back(i, a);
        }
      }
      const auto for_each_slot = [&](const std::function<void(int)>& fn) {
        const auto count = static_cast<int>(planned.size());
        if (pool_ != nullptr) return pool_->Run(count, fn);
        for (int j = 0; j < count; ++j) fn(j);
      };
      std::vector<std::vector<double>> samples(planned.size());
      for_each_slot([&](int j) {
        const auto [i, a] = planned[static_cast<size_t>(j)];
        bucketing::SamplerOptions sampler;
        sampler.num_buckets = requests[i].num_buckets;
        sampler.sample_per_bucket = options_.sample_per_bucket;
        std::vector<double>& sample = samples[static_cast<size_t>(j)];
        sample.resize(static_cast<size_t>(
            exact ? num_rows : bucketing::SampleRowCount(sampler, num_rows)));
        Rng rng(options_.seed + requests[i].seed_offset + AttributeSalt(a));
        bucketing::DrawSampleRows(num_rows, rng, sample);
      });
      std::vector<bucketing::SampleSlot> slots;
      int64_t sample_rows = 0;
      for (size_t j = 0; j < planned.size(); ++j) {
        slots.push_back({planned[j].second, samples[j]});
        sample_rows += static_cast<int64_t>(samples[j].size());
      }
      const int shards = bucketing::GatherSampleValues(*source_, slots, pool_);
      span.AddAttribute("shards", static_cast<double>(shards));
      span.AddAttribute("sample_rows", static_cast<double>(sample_rows));
      for_each_slot([&](int j) {
        const auto [i, a] = planned[static_cast<size_t>(j)];
        (*out[i])[static_cast<size_t>(a)] = bucketing::BoundariesFromSample(
            samples[static_cast<size_t>(j)], requests[i].num_buckets);
      });
      for (size_t i = 0; exact && i < sets; ++i) {
        if (const size_t same = first_copyable(i); same != i) {
          *out[i] = *out[same];
        }
      }
      return;
    }
    case Bucketizer::kGkSketch: {
      // One deterministic GK sketch per (epsilon, attribute) some set
      // plans, all fed in one scan; identical to the in-memory sketch
      // because insertion order is the row order either way. Seeds are
      // ignored, but the auto epsilon depends on the bucket count, so sets
      // with different bucket counts may need their own sketches.
      std::vector<double> epsilons(sets);
      std::map<std::pair<double, int>, bucketing::GkQuantileSketch> sketches;
      for (size_t i = 0; i < sets; ++i) {
        bucketing::BoundaryPlan plan = ToBoundaryPlan(options_);
        plan.num_buckets = requests[i].num_buckets;
        epsilons[i] = plan.EffectiveGkEpsilon();
        for (int a = 0; a < num_numeric; ++a) {
          if (needs(i, a)) sketches.try_emplace({epsilons[i], a}, epsilons[i]);
        }
      }
      std::unique_ptr<storage::BatchReader> reader = source_->CreateReader();
      storage::ColumnarBatch batch;
      while (reader->Next(&batch)) {
        for (auto& [key, sketch] : sketches) {
          for (const double value : batch.numeric(key.second)) sketch.Add(value);
        }
      }
      for (size_t i = 0; i < sets; ++i) {
        // Same bucket count means same epsilon, hence the same sketches
        // and the same cut points: copy instead of re-extracting.
        if (const size_t same = first_copyable(i); same != i) {
          *out[i] = *out[same];
          continue;
        }
        for (int a = 0; a < num_numeric; ++a) {
          const auto it = sketches.find({epsilons[i], a});
          out[i]->push_back(
              !needs(i, a) || it->second.count() == 0
                  ? placeholder()
                  : bucketing::BoundariesFromGkSketch(
                        it->second, requests[i].num_buckets));
        }
      }
      return;
    }
  }
  OPTRULES_CHECK(false);
}

Status MiningEngine::RunCountingScan() {
  const int num_numeric = schema_.num_numeric();
  const auto num_attrs = static_cast<size_t>(num_numeric);
  const bool base = !prepared_;
  const size_t new_conditions = conditions_.size() - conditions_counted_;
  const size_t new_targets = sum_targets_.size() - sum_targets_counted_;
  const size_t new_pairs = region_pairs_.size() - region_pairs_counted_;

  // One planning pass covers every boundary set the pending channels still
  // miss: the base set on the first scan, the decorrelated generalized /
  // aggregate sets on first use, and each region bucket count whose
  // planned columns do not cover its registered pairs (one request per
  // count, masked to the columns that use it). Until the first scan
  // succeeds every set is re-planned, exactly like the original attempt.
  std::vector<BoundarySetRequest> requests;
  std::vector<std::vector<bucketing::BucketBoundaries>*> outs;
  if (base) {
    requests.push_back({0, options_.num_buckets, {}});
    outs.push_back(&boundaries_);
  }
  if (new_conditions > 0 && (base || generalized_boundaries_.empty())) {
    requests.push_back({kGeneralizedSeedOffset, options_.num_buckets, {}});
    outs.push_back(&generalized_boundaries_);
  }
  if (new_targets > 0 && (base || aggregate_boundaries_.empty())) {
    requests.push_back({kAggregateSeedOffset, options_.num_buckets, {}});
    outs.push_back(&aggregate_boundaries_);
  }
  if (new_pairs > 0) {
    for (const auto& [count, mask] : RegionColumnMasks()) {
      std::vector<uint8_t>& planned = region_planned_[count];
      if (!base && planned == mask) continue;
      planned = mask;
      requests.push_back({kRegionSeedOffset, count, mask});
      outs.push_back(&region_boundaries_[count]);
    }
  }
  if (!requests.empty()) PlanBoundarySets(requests, outs);

  // ONE scan over the base channels (first scan only) plus every pending
  // registration; counted registrations are never scanned again.
  bucketing::MultiCountSpec spec;
  spec.num_targets = schema_.num_boolean();
  spec.conditions.assign(conditions_.begin() + conditions_counted_,
                         conditions_.end());
  // Base channels: every numeric attribute against every Boolean target.
  for (int a = 0; base && a < num_numeric; ++a) {
    bucketing::CountChannel channel;
    channel.column = a;
    channel.boundaries = &boundaries_[static_cast<size_t>(a)];
    spec.channels.push_back(std::move(channel));
  }
  // Conditional channels (Section 4.3): every pending condition times every
  // numeric attribute, over the generalized boundary set.
  const size_t conditional_base = spec.channels.size();
  for (size_t c = 0; c < new_conditions; ++c) {
    for (int a = 0; a < num_numeric; ++a) {
      bucketing::CountChannel channel;
      channel.column = a;
      channel.boundaries = &generalized_boundaries_[static_cast<size_t>(a)];
      channel.condition = static_cast<int>(c);
      spec.channels.push_back(std::move(channel));
    }
  }
  // Sum channels (Section 5): per range attribute, one channel summing
  // every pending target over the aggregate boundary set.
  const size_t aggregate_base = spec.channels.size();
  for (int a = 0; new_targets > 0 && a < num_numeric; ++a) {
    bucketing::CountChannel channel;
    channel.column = a;
    channel.boundaries = &aggregate_boundaries_[static_cast<size_t>(a)];
    channel.count_targets = false;
    channel.sum_targets.assign(sum_targets_.begin() + sum_targets_counted_,
                               sum_targets_.end());
    spec.channels.push_back(std::move(channel));
  }
  // Grid channels (Section 1.4): one per pending region pair, each axis
  // over the region boundary set of that axis' bucket count (nx for x, ny
  // for y -- rectangular pairs are first-class). Pairs sharing an (axis,
  // count) share its locate group inside the plan.
  for (size_t p = region_pairs_counted_; p < region_pairs_.size(); ++p) {
    const RegionPair& pair = region_pairs_[p];
    bucketing::GridChannel channel;
    channel.x_column = pair.x;
    channel.x_boundaries = &RegionBoundary(pair.nx, pair.x);
    channel.y_column = pair.y;
    channel.y_boundaries = &RegionBoundary(pair.ny, pair.y);
    spec.grid_channels.push_back(channel);
  }

  bucketing::MultiCountPlan plan(std::move(spec));
  OPTRULES_RETURN_IF_ERROR(ExecuteCount(&plan));
  ++counting_scans_;

  if (base) {
    counts_.reserve(num_attrs);
    for (int a = 0; a < num_numeric; ++a) {
      counts_.push_back(plan.TakeCounts(a));
      bucketing::CompactEmptyBuckets(&counts_.back());
    }
  }
  for (size_t c = 0; c < new_conditions; ++c) {
    std::vector<bucketing::BucketCounts>& per_attr =
        generalized_counts_.emplace_back();
    per_attr.reserve(num_attrs);
    for (size_t a = 0; a < num_attrs; ++a) {
      per_attr.push_back(plan.TakeCounts(
          static_cast<int>(conditional_base + num_attrs * c + a)));
      bucketing::CompactEmptyBuckets(&per_attr.back());
    }
  }
  if (new_targets > 0) {
    aggregate_sums_.resize(num_attrs);
    for (size_t a = 0; a < num_attrs; ++a) {
      std::vector<bucketing::BucketSums>& per_target = aggregate_sums_[a];
      for (size_t k = 0; k < new_targets; ++k) {
        per_target.push_back(plan.TakeBucketSums(
            static_cast<int>(aggregate_base + a), static_cast<int>(k)));
        bucketing::CompactEmptyBuckets(&per_target.back());
      }
    }
  }
  for (size_t p = 0; p < new_pairs; ++p) {
    region_grids_.push_back(plan.TakeGridCounts(static_cast<int>(p)));
  }
  prepared_ = true;
  conditions_counted_ = conditions_.size();
  sum_targets_counted_ = sum_targets_.size();
  region_pairs_counted_ = region_pairs_.size();
  return Status::Ok();
}

void MiningEngine::Prepare() {
  const Status status = TryPrepare();
  if (!status.ok()) {
    std::fprintf(stderr, "MiningEngine::Prepare failed: %s\n",
                 status.ToString().c_str());
  }
  OPTRULES_CHECK(status.ok());
}

Status MiningEngine::TryPrepare() {
  if (prepared_) return Status::Ok();
  OPTRULES_CHECK(options_.num_buckets >= 1);
  OPTRULES_CHECK(options_.sample_per_bucket >= 1);
  OPTRULES_CHECK(options_.region_grid_buckets >= 1);
  OPTRULES_CHECK(0.0 <= options_.min_support && options_.min_support <= 1.0);
  OPTRULES_CHECK(0.0 <= options_.min_confidence &&
                 options_.min_confidence <= 1.0);
  // Partitions that vanished since the table was opened must fail softly
  // here; the planning stream treats a partition disappearing MID-scan as
  // fatal, so the window is re-validated up front.
  if (partitioned_ != nullptr) {
    OPTRULES_RETURN_IF_ERROR(partitioned_->Validate());
  }
  return RunCountingScan();
}

Result<int> MiningEngine::Counted(size_t index, size_t counted) {
  // A registration after the shared scan costs one supplemental scan at
  // once; registered before, it rides along in the first scan for free.
  if (prepared_ && index >= counted) {
    OPTRULES_RETURN_IF_ERROR(RunCountingScan());
  }
  return static_cast<int>(index);
}

std::map<int, std::vector<uint8_t>> MiningEngine::RegionColumnMasks() const {
  std::map<int, std::vector<uint8_t>> masks;
  const auto mark = [this, &masks](int count, int column) {
    std::vector<uint8_t>& mask = masks[count];
    if (mask.empty()) {
      mask.assign(static_cast<size_t>(schema_.num_numeric()), 0);
    }
    mask[static_cast<size_t>(column)] = 1;
  };
  for (const RegionPair& pair : region_pairs_) {
    mark(pair.nx, pair.x);
    mark(pair.ny, pair.y);
  }
  return masks;
}

const bucketing::BucketBoundaries& MiningEngine::RegionBoundary(
    int num_buckets, int column) const {
  const auto it = region_boundaries_.find(num_buckets);
  OPTRULES_CHECK(it != region_boundaries_.end());
  return it->second[static_cast<size_t>(column)];
}

std::vector<MinedRule> MiningEngine::MineAllPairs() {
  const ThresholdSet thresholds[] = {
      {options_.min_support, options_.min_confidence}};
  return MineAllPairs(thresholds);
}

Result<std::vector<MinedRule>> MiningEngine::MinePair(
    const std::string& numeric_attr, const std::string& boolean_attr) {
  const Result<int> numeric_index = schema_.NumericIndexOf(numeric_attr);
  if (!numeric_index.ok()) return numeric_index.status();
  const Result<int> boolean_index = schema_.BooleanIndexOf(boolean_attr);
  if (!boolean_index.ok()) return boolean_index.status();
  OPTRULES_RETURN_IF_ERROR(TryPrepare());
  return EmitRulesForPair(
      counts_[static_cast<size_t>(numeric_index.value())],
      boolean_index.value(), options_, numeric_attr, boolean_attr);
}

std::vector<MinedRule> MiningEngine::MineAllPairs(
    std::span<const ThresholdSet> sweep) {
  Prepare();
  std::vector<MinedRule> all;
  all.reserve(sweep.size() * static_cast<size_t>(schema_.num_numeric()) *
              static_cast<size_t>(schema_.num_boolean()) * 2);
  for (const ThresholdSet& thresholds : sweep) {
    MinerOptions swept = options_;
    swept.min_support = thresholds.min_support;
    swept.min_confidence = thresholds.min_confidence;
    OPTRULES_CHECK(0.0 <= swept.min_support && swept.min_support <= 1.0);
    OPTRULES_CHECK(0.0 <= swept.min_confidence &&
                   swept.min_confidence <= 1.0);
    for (int a = 0; a < schema_.num_numeric(); ++a) {
      for (int b = 0; b < schema_.num_boolean(); ++b) {
        std::vector<MinedRule> pair =
            EmitRulesForPair(counts_[static_cast<size_t>(a)], b, swept,
                             schema_.NumericName(a), schema_.BooleanName(b));
        for (MinedRule& rule : pair) all.push_back(std::move(rule));
      }
    }
  }
  return all;
}

Result<int> MiningEngine::EnsureCondition(
    const std::vector<std::string>& names) {
  std::vector<int> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) {
    const Result<int> index = schema_.BooleanIndexOf(name);
    if (!index.ok()) return index.status();
    indices.push_back(index.value());
  }
  // Canonicalize the conjunction (order and duplicates don't change the
  // mask) so a permuted spelling of a registered condition never triggers
  // a needless supplemental scan; the rendered presumptive_condition text
  // still follows the caller's per-query attribute order.
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  const auto found = std::find(conditions_.begin(), conditions_.end(), indices);
  const auto c = static_cast<size_t>(found - conditions_.begin());
  if (found == conditions_.end()) conditions_.push_back(std::move(indices));
  return Counted(c, conditions_counted_);
}

Result<int> MiningEngine::EnsureSumTarget(const std::string& name) {
  const Result<int> index = schema_.NumericIndexOf(name);
  if (!index.ok()) return index.status();
  const auto found =
      std::find(sum_targets_.begin(), sum_targets_.end(), index.value());
  const auto k = static_cast<size_t>(found - sum_targets_.begin());
  if (found == sum_targets_.end()) sum_targets_.push_back(index.value());
  return Counted(k, sum_targets_counted_);
}

Result<int> MiningEngine::EnsureRegionPair(const std::string& x_attr,
                                           const std::string& y_attr,
                                           int nx, int ny) {
  if (nx < 1 || ny < 1) {
    return Status::InvalidArgument("region grid shape must be >= 1x1");
  }
  const Result<int> x = schema_.NumericIndexOf(x_attr);
  if (!x.ok()) return x.status();
  const Result<int> y = schema_.NumericIndexOf(y_attr);
  if (!y.ok()) return y.status();
  const RegionPair pair{x.value(), y.value(), nx, ny};
  const auto found =
      std::find(region_pairs_.begin(), region_pairs_.end(), pair);
  const auto p = static_cast<size_t>(found - region_pairs_.begin());
  if (found == region_pairs_.end()) region_pairs_.push_back(pair);
  return Counted(p, region_pairs_counted_);
}

int MiningEngine::FindRegionPair(int x, int y) const {
  for (size_t p = 0; p < region_pairs_.size(); ++p) {
    if (region_pairs_[p].x == x && region_pairs_[p].y == y) {
      return static_cast<int>(p);
    }
  }
  return -1;
}

Status MiningEngine::RequestGeneralized(
    const std::vector<std::string>& condition_attrs) {
  const Result<int> condition = EnsureCondition(condition_attrs);
  return condition.ok() ? Status::Ok() : condition.status();
}

Status MiningEngine::RequestAverageTarget(const std::string& target_attr) {
  const Result<int> target = EnsureSumTarget(target_attr);
  return target.ok() ? Status::Ok() : target.status();
}

Status MiningEngine::RequestRegionPair(const std::string& x_attr,
                                       const std::string& y_attr) {
  return RequestRegionPair(x_attr, y_attr, options_.region_grid_buckets,
                           options_.region_grid_buckets);
}

Status MiningEngine::RequestRegionPair(const std::string& x_attr,
                                       const std::string& y_attr, int nx,
                                       int ny) {
  const Result<int> pair = EnsureRegionPair(x_attr, y_attr, nx, ny);
  return pair.ok() ? Status::Ok() : pair.status();
}

Result<MinedRegion> MiningEngine::MineOptimizedRegion(
    const std::string& x_attr, const std::string& y_attr,
    const std::string& target_attr) {
  const Result<int> target = schema_.BooleanIndexOf(target_attr);
  if (!target.ok()) return target.status();
  // An already-registered pair over (x, y) answers at its registered grid
  // shape (rectangular included); otherwise auto-register the square
  // default, at the documented supplemental-scan price when late.
  Result<int> pair = [&]() -> Result<int> {
    const Result<int> x = schema_.NumericIndexOf(x_attr);
    if (!x.ok()) return x.status();
    const Result<int> y = schema_.NumericIndexOf(y_attr);
    if (!y.ok()) return y.status();
    const int found = FindRegionPair(x.value(), y.value());
    if (found >= 0) {
      return Counted(static_cast<size_t>(found), region_pairs_counted_);
    }
    return EnsureRegionPair(x_attr, y_attr, options_.region_grid_buckets,
                            options_.region_grid_buckets);
  }();
  if (!pair.ok()) return pair.status();
  OPTRULES_RETURN_IF_ERROR(TryPrepare());
  const region::GridCounts grid = region::FromGridBucketCounts(
      region_grids_[static_cast<size_t>(pair.value())], target.value());
  return MineRegionFromGrid(grid, options_, x_attr, y_attr, target_attr);
}

Result<std::vector<MinedRule>> MiningEngine::MineGeneralized(
    const std::string& numeric_attr,
    const std::vector<std::string>& condition_attrs,
    const std::string& objective_attr) {
  const Result<int> numeric_index = schema_.NumericIndexOf(numeric_attr);
  if (!numeric_index.ok()) return numeric_index.status();
  const Result<int> objective_index = schema_.BooleanIndexOf(objective_attr);
  if (!objective_index.ok()) return objective_index.status();
  const Result<int> condition = EnsureCondition(condition_attrs);
  if (!condition.ok()) return condition.status();
  OPTRULES_RETURN_IF_ERROR(TryPrepare());
  const bucketing::BucketCounts& counts =
      generalized_counts_[static_cast<size_t>(condition.value())]
                         [static_cast<size_t>(numeric_index.value())];
  std::vector<MinedRule> mined = EmitRulesForPair(
      counts, objective_index.value(), options_, numeric_attr,
      objective_attr);
  const std::string condition_text = ConditionText(condition_attrs);
  for (MinedRule& rule : mined) rule.presumptive_condition = condition_text;
  return mined;
}

const SlopePairContext& MiningEngine::HullContextFor(int range_attr,
                                                     int k) {
  const auto a = static_cast<size_t>(range_attr);
  const auto ki = static_cast<size_t>(k);
  if (hull_contexts_.size() < aggregate_sums_.size()) {
    hull_contexts_.resize(aggregate_sums_.size());
  }
  if (hull_contexts_[a].size() < aggregate_sums_[a].size()) {
    hull_contexts_[a].resize(aggregate_sums_[a].size());
  }
  std::unique_ptr<SlopePairContext>& slot = hull_contexts_[a][ki];
  if (slot == nullptr) {
    const bucketing::BucketSums& sums = SumsFor(range_attr, k);
    slot = std::make_unique<SlopePairContext>(sums.u, sums.sum);
    ++hull_contexts_built_;
  }
  return *slot;
}

Result<MinedAggregateRange> MiningEngine::MineMaximumAverageRange(
    const std::string& range_attr, const std::string& target_attr,
    double min_support) {
  const Result<int> range_index = schema_.NumericIndexOf(range_attr);
  if (!range_index.ok()) return range_index.status();
  const Result<int> target = EnsureSumTarget(target_attr);
  if (!target.ok()) return target.status();
  OPTRULES_RETURN_IF_ERROR(TryPrepare());
  const bucketing::BucketSums& sums =
      SumsFor(range_index.value(), target.value());
  RangeAggregate aggregate;
  if (!sums.u.empty()) {
    // Identical to MaximumAverageRange(sums.u, sums.sum, ...) but the
    // threshold-independent hull context is built once per (range,
    // target) pair and reused by every later threshold.
    const SlopePairContext& context =
        HullContextFor(range_index.value(), target.value());
    const SlopePair pair = context.Solve(
        MinSupportCount(sums.total_tuples, min_support));
    if (pair.found) {
      aggregate = MakeRangeAggregate(sums.u, sums.sum, pair.m, pair.n - 1);
    }
  }
  return ToMinedAggregate(sums, aggregate, range_attr, target_attr);
}

Result<MinedAggregateRange> MiningEngine::MineMaximumSupportRange(
    const std::string& range_attr, const std::string& target_attr,
    double min_average) {
  const Result<int> range_index = schema_.NumericIndexOf(range_attr);
  if (!range_index.ok()) return range_index.status();
  const Result<int> target = EnsureSumTarget(target_attr);
  if (!target.ok()) return target.status();
  OPTRULES_RETURN_IF_ERROR(TryPrepare());
  const bucketing::BucketSums& sums =
      SumsFor(range_index.value(), target.value());
  RangeAggregate aggregate;
  if (!sums.u.empty()) {
    aggregate = MaximumSupportRange(sums.u, sums.sum, min_average);
  }
  return ToMinedAggregate(sums, aggregate, range_attr, target_attr);
}

}  // namespace optrules::rules
