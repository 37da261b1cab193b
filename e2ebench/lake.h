#ifndef VALENTINE_E2EBENCH_LAKE_H_
#define VALENTINE_E2EBENCH_LAKE_H_

// The seeded data lake behind the `query` and `ingest` workloads, built
// the way bench/bench_repository.cpp builds its lake: families of shards
// that share a family-private core value pool and a family-unique
// column-name token, so LSH nominates exactly one family per query.
//
// Unlike bench_repository, row counts are mixed: exactly half of the
// families (chosen by the seed) are "medium" (3x the rows of a "small"
// family). The split is exact rather than sampled so that every seed
// asks the engine for the same amount of work and run-to-run spread
// measures the system, not the draw.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/table.h"

namespace e2ebench {

class Lake {
 public:
  static constexpr size_t kShardsPerFamily = 10;
  static constexpr size_t kSmallCore = 32;  // pool values in every shard
  static constexpr size_t kSmallTail = 16;  // shard-private values
  static constexpr size_t kMediumScale = 3;

  Lake(uint64_t seed, size_t families) : salt_(Mix(seed ^ 0x1a4e)) {
    Rng rng(seed);
    std::vector<size_t> order(families);
    for (size_t i = 0; i < families; ++i) order[i] = i;
    Shuffle(order, rng);
    medium_.assign(families, false);
    for (size_t i = 0; i < families / 2; ++i) medium_[order[i]] = true;
    // Consecutive indices keep family words distinct; the seeded base
    // moves the whole vocabulary between seeds.
    word_base_ = rng.Below(26ULL * 26 * 26 * 26 * 26 - families);
  }

  size_t families() const { return medium_.size(); }
  bool medium(size_t family) const { return medium_[family]; }

  std::string ShardName(size_t family, size_t shard) const {
    return Word(family) + "_shard_" + std::to_string(shard);
  }

  // Shard `shard` of `family`. Shards below kShardsPerFamily are the
  // registered ones; higher indices are fresh shards (same core pool,
  // new private tail) used as queries and as ingest registrations.
  valentine::Table Shard(size_t family, size_t shard) const {
    const size_t scale = medium_[family] ? kMediumScale : 1;
    const size_t core = kSmallCore * scale, tail = kSmallTail * scale;
    valentine::Table t(ShardName(family, shard));
    for (size_t col = 0; col < 2; ++col) {
      valentine::Column c(Word(family) + (col == 0 ? "key" : "val"),
                          valentine::DataType::kString);
      const uint64_t region = col * 5000000ULL;
      for (size_t i = 0; i < core; ++i) {
        c.Append(valentine::Value::String(PoolValue(family, region + i)));
      }
      for (size_t i = 0; i < tail; ++i) {
        c.Append(valentine::Value::String(
            PoolValue(family, region + 10000 + shard * tail + i)));
      }
      // Two distinct column names and non-empty columns: cannot fail.
      (void)t.AddColumn(std::move(c));
    }
    return t;
  }

 private:
  static std::string AlphaWord(uint64_t v, size_t len) {
    std::string out(len, 'a');
    for (size_t i = 0; i < len; ++i) {
      out[len - 1 - i] = static_cast<char>('a' + v % 26);
      v /= 26;
    }
    return out;
  }
  std::string Word(size_t family) const {
    return AlphaWord(word_base_ + family, 5);
  }
  std::string PoolValue(size_t family, uint64_t slot) const {
    return AlphaWord(Mix(salt_ ^ (family * 1000003ULL + slot)), 12);
  }

  uint64_t salt_;
  uint64_t word_base_ = 0;
  std::vector<bool> medium_;
};

}  // namespace e2ebench

#endif  // VALENTINE_E2EBENCH_LAKE_H_
