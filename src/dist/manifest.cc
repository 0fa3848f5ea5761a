#include "dist/manifest.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "common/bytes.h"

namespace optrules::dist {

namespace {

constexpr const char* kMagicLine = "optrules-manifest 1";

/// Doubles round-trip through the text manifest as 16-hex-digit bit
/// patterns, so stats survive bit-exactly (NaN payloads and signed zeros
/// included) without locale- or precision-dependent decimal formatting.
uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + kManifestFileName;
}

/// Splits `text` into lines ('\n'-terminated; a missing trailing newline
/// still yields the last line).
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

}  // namespace

int64_t PartitionManifest::total_rows() const {
  int64_t total = 0;
  for (const PartitionInfo& partition : partitions) {
    total += partition.num_rows;
  }
  return total;
}

uint64_t SchemaHash(const storage::Schema& schema) {
  // FNV-1a over "<kind byte><name bytes><0>" per attribute, in declaration
  // order; the separator byte keeps ("ab", "c") distinct from ("a", "bc").
  bytes::Fnv1a hash;
  for (const storage::Attribute& attribute : schema.attributes()) {
    hash.Mix(static_cast<uint8_t>(attribute.kind));
    for (const char c : attribute.name) hash.Mix(static_cast<uint8_t>(c));
    hash.Mix(0);
  }
  return hash.digest();
}

Status WriteManifest(const PartitionManifest& manifest,
                     const std::string& dir) {
  if (manifest.partition_numeric_stats.size() !=
          manifest.partitions.size() *
              static_cast<size_t>(manifest.schema.num_numeric()) ||
      manifest.partition_boolean_stats.size() !=
          manifest.partitions.size() *
              static_cast<size_t>(manifest.schema.num_boolean())) {
    return Status::InvalidArgument(
        "partition stats sized inconsistently with schema");
  }
  const std::string path = ManifestPath(dir);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create manifest: " + path);
  }
  std::string text = std::string(kMagicLine) + "\n";
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "schema_hash %016" PRIx64 "\n",
                SchemaHash(manifest.schema));
  text += buffer;
  std::snprintf(buffer, sizeof(buffer), "attributes %d\n",
                manifest.schema.num_attributes());
  text += buffer;
  for (const storage::Attribute& attribute :
       manifest.schema.attributes()) {
    text += std::string("attr ") + storage::AttrKindName(attribute.kind) +
            " " + attribute.name + "\n";
  }
  std::snprintf(buffer, sizeof(buffer), "partitions %d\n",
                manifest.num_partitions());
  text += buffer;
  for (const PartitionInfo& partition : manifest.partitions) {
    std::snprintf(buffer, sizeof(buffer), "part %lld ",
                  static_cast<long long>(partition.num_rows));
    text += buffer;
    text += partition.file + "\n";
  }
  std::snprintf(buffer, sizeof(buffer), "stats %d\n",
                static_cast<int>(manifest.numeric_stats.size()));
  text += buffer;
  for (const AttributeStats& stats : manifest.numeric_stats) {
    std::snprintf(buffer, sizeof(buffer),
                  "stat %016" PRIx64 " %016" PRIx64 "\n",
                  DoubleBits(stats.min_value), DoubleBits(stats.max_value));
    text += buffer;
  }
  // Per-partition sections (partition-major), sized by the schema so the
  // reader can validate the counts like the sections above.
  std::snprintf(buffer, sizeof(buffer), "pnstat %d\n",
                static_cast<int>(manifest.partition_numeric_stats.size()));
  text += buffer;
  for (const AttributeStats& stats : manifest.partition_numeric_stats) {
    std::snprintf(buffer, sizeof(buffer),
                  "pn %016" PRIx64 " %016" PRIx64 "\n",
                  DoubleBits(stats.min_value),
                  DoubleBits(stats.max_value));
    text += buffer;
  }
  std::snprintf(buffer, sizeof(buffer), "pbstat %d\n",
                static_cast<int>(manifest.partition_boolean_stats.size()));
  text += buffer;
  for (const BooleanStats& stats : manifest.partition_boolean_stats) {
    std::snprintf(buffer, sizeof(buffer), "pb %d %d\n",
                  static_cast<int>(stats.min_value),
                  static_cast<int>(stats.max_value));
    text += buffer;
  }
  text += "end\n";
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  const int rc = std::fclose(file);
  if (!ok || rc != 0) {
    return Status::IoError("manifest write failed: " + path);
  }
  return Status::Ok();
}

Result<PartitionManifest> ReadManifest(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open manifest: " + path);
  }
  std::string text;
  char chunk[4096];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    text.append(chunk, got);
  }
  // A transient read failure must surface as IoError, not parse as a
  // truncated (seemingly corrupt) manifest.
  const bool read_failed = std::ferror(file) != 0;
  std::fclose(file);
  if (read_failed) {
    return Status::IoError("manifest read failed: " + path);
  }

  const std::vector<std::string> lines = SplitLines(text);
  size_t next = 0;
  const auto take_line = [&]() -> const std::string* {
    return next < lines.size() ? &lines[next++] : nullptr;
  };
  const auto corrupt = [&path](const std::string& what) {
    return Status::Corruption("manifest " + path + ": " + what);
  };

  const std::string* line = take_line();
  if (line == nullptr || *line != kMagicLine) {
    return corrupt("bad magic line");
  }
  uint64_t declared_hash = 0;
  line = take_line();
  if (line == nullptr ||
      std::sscanf(line->c_str(), "schema_hash %" SCNx64, &declared_hash) !=
          1) {
    return corrupt("bad schema_hash line");
  }
  int num_attributes = 0;
  line = take_line();
  // Every section entry occupies one line of the file, so a count beyond
  // the line count is corruption -- reject it before reserving storage
  // sized by an untrusted number (same for partitions and stats below).
  if (line == nullptr ||
      std::sscanf(line->c_str(), "attributes %d", &num_attributes) != 1 ||
      num_attributes < 1 ||
      static_cast<size_t>(num_attributes) > lines.size()) {
    return corrupt("bad attributes line");
  }
  std::vector<storage::Attribute> attributes;
  attributes.reserve(static_cast<size_t>(num_attributes));
  for (int i = 0; i < num_attributes; ++i) {
    line = take_line();
    storage::Attribute attribute;
    // "attr <kind> <name>"; the name is the rest of the line and may
    // contain spaces (CSV headers do).
    const char* prefixes[] = {"attr numeric ", "attr boolean "};
    const storage::AttrKind kinds[] = {storage::AttrKind::kNumeric,
                                       storage::AttrKind::kBoolean};
    bool matched = false;
    if (line != nullptr) {
      for (int k = 0; k < 2; ++k) {
        const size_t len = std::strlen(prefixes[k]);
        if (line->compare(0, len, prefixes[k]) == 0 && line->size() > len) {
          attribute.kind = kinds[k];
          attribute.name = line->substr(len);
          matched = true;
          break;
        }
      }
    }
    if (!matched) return corrupt("bad attr line");
    attributes.push_back(std::move(attribute));
  }
  Result<storage::Schema> schema = storage::Schema::Create(attributes);
  if (!schema.ok()) return corrupt("invalid schema: " +
                                   schema.status().message());
  if (SchemaHash(schema.value()) != declared_hash) {
    return corrupt("schema hash mismatch");
  }

  PartitionManifest manifest;
  manifest.schema = std::move(schema).value();
  manifest.schema_hash = declared_hash;

  int num_partitions = 0;
  line = take_line();
  if (line == nullptr ||
      std::sscanf(line->c_str(), "partitions %d", &num_partitions) != 1 ||
      num_partitions < 1 ||
      static_cast<size_t>(num_partitions) > lines.size()) {
    return corrupt("bad partitions line");
  }
  manifest.partitions.reserve(static_cast<size_t>(num_partitions));
  for (int p = 0; p < num_partitions; ++p) {
    line = take_line();
    long long rows = -1;
    int name_offset = -1;
    if (line == nullptr ||
        std::sscanf(line->c_str(), "part %lld %n", &rows, &name_offset) !=
            1 ||
        rows < 0 || name_offset < 0 ||
        static_cast<size_t>(name_offset) >= line->size()) {
      return corrupt("bad part line");
    }
    PartitionInfo partition;
    partition.num_rows = rows;
    partition.file = line->substr(static_cast<size_t>(name_offset));
    manifest.partitions.push_back(std::move(partition));
  }

  int num_stats = 0;
  line = take_line();
  if (line == nullptr ||
      std::sscanf(line->c_str(), "stats %d", &num_stats) != 1 ||
      num_stats != manifest.schema.num_numeric()) {
    return corrupt("bad stats line");
  }
  manifest.numeric_stats.reserve(static_cast<size_t>(num_stats));
  for (int i = 0; i < num_stats; ++i) {
    line = take_line();
    uint64_t min_bits = 0;
    uint64_t max_bits = 0;
    if (line == nullptr ||
        std::sscanf(line->c_str(), "stat %" SCNx64 " %" SCNx64, &min_bits,
                    &max_bits) != 2) {
      return corrupt("bad stat line");
    }
    AttributeStats stats;
    stats.min_value = DoubleFromBits(min_bits);
    stats.max_value = DoubleFromBits(max_bits);
    manifest.numeric_stats.push_back(stats);
  }

  // Per-partition stats sections, partition-major. Every entry is one line,
  // so a declared count beyond the line count is corruption, rejected
  // before any storage is reserved.
  const int64_t lines_total = static_cast<int64_t>(lines.size());
  int num_pn = 0;
  const int64_t want_pn =
      int64_t{num_partitions} * manifest.schema.num_numeric();
  line = take_line();
  if (line == nullptr ||
      std::sscanf(line->c_str(), "pnstat %d", &num_pn) != 1 ||
      num_pn != want_pn || num_pn > lines_total) {
    return corrupt("bad pnstat line");
  }
  manifest.partition_numeric_stats.reserve(static_cast<size_t>(num_pn));
  for (int i = 0; i < num_pn; ++i) {
    line = take_line();
    uint64_t min_bits = 0;
    uint64_t max_bits = 0;
    if (line == nullptr ||
        std::sscanf(line->c_str(), "pn %" SCNx64 " %" SCNx64, &min_bits,
                    &max_bits) != 2) {
      return corrupt("bad pn line");
    }
    AttributeStats stats;
    stats.min_value = DoubleFromBits(min_bits);
    stats.max_value = DoubleFromBits(max_bits);
    // Pruning decisions ride on these, so a stat that could mis-prune
    // (NaN endpoint, inverted non-sentinel range) is corruption, exactly
    // as in the zone-map trailer.
    const bool sentinel =
        stats.min_value == std::numeric_limits<double>::infinity() &&
        stats.max_value == -std::numeric_limits<double>::infinity();
    if (std::isnan(stats.min_value) || std::isnan(stats.max_value) ||
        (!sentinel && stats.min_value > stats.max_value)) {
      return corrupt("invalid pn bounds");
    }
    manifest.partition_numeric_stats.push_back(stats);
  }
  int num_pb = 0;
  const int64_t want_pb =
      int64_t{num_partitions} * manifest.schema.num_boolean();
  line = take_line();
  if (line == nullptr ||
      std::sscanf(line->c_str(), "pbstat %d", &num_pb) != 1 ||
      num_pb != want_pb || num_pb > lines_total) {
    return corrupt("bad pbstat line");
  }
  manifest.partition_boolean_stats.reserve(static_cast<size_t>(num_pb));
  for (int i = 0; i < num_pb; ++i) {
    line = take_line();
    int min_value = 0;
    int max_value = 0;
    if (line == nullptr ||
        std::sscanf(line->c_str(), "pb %d %d", &min_value, &max_value) !=
            2 ||
        min_value < 0 || min_value > 1 || max_value < 0 || max_value > 1 ||
        (min_value > max_value && !(min_value == 1 && max_value == 0))) {
      return corrupt("bad pb line");
    }
    BooleanStats stats;
    stats.min_value = static_cast<uint8_t>(min_value);
    stats.max_value = static_cast<uint8_t>(max_value);
    manifest.partition_boolean_stats.push_back(stats);
  }
  line = take_line();
  if (line == nullptr || *line != "end") return corrupt("missing end line");
  return manifest;
}

}  // namespace optrules::dist
