// Unit tests for src/common: checks, units, RNG, statistics, the JSON
// reader and writer, and the id map.
#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/id_map.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "obs/json_lint.h"

namespace ncdrf {
namespace {

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(NCDRF_CHECK(1 + 1 == 2, "math"));
}

TEST(Check, FailingConditionThrowsWithContext) {
  try {
    NCDRF_CHECK(false, "custom context");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context"), std::string::npos);
    EXPECT_NE(what.find("common_test.cc"), std::string::npos);
  }
}

TEST(Units, ConversionsAreConsistent) {
  EXPECT_DOUBLE_EQ(megabits(100.0), 1e8);
  EXPECT_DOUBLE_EQ(gbps(1.0), 1e9);
  EXPECT_DOUBLE_EQ(megabytes(5.0), 4e7);
  EXPECT_DOUBLE_EQ(to_megabytes(megabytes(5.0)), 5.0);
  EXPECT_DOUBLE_EQ(to_gbps(gbps(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(milliseconds(250.0), 0.25);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(3, 8));
  EXPECT_EQ(seen, (std::set<std::int64_t>{3, 4, 5, 6, 7, 8}));
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(29);
  std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.weighted_index(weights)] += 1;
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<int> s = rng.sample_without_replacement(20, 8);
    std::set<int> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 8u);
    for (const int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(Rng, SampleWithoutReplacementRejectsBadArgs) {
  Rng rng(37);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), CheckError);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Stats, SummaryOnKnownSample) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Stats, SummaryEmptyIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(WeightedCdfTest, QuantilesRespectWeights) {
  WeightedCdf cdf;
  cdf.add(1.0, 9.0);
  cdf.add(10.0, 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.9), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.95), 10.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 10.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 1.9);
}

TEST(WeightedCdfTest, CdfAtAccumulates) {
  WeightedCdf cdf;
  cdf.add(1.0, 1.0);
  cdf.add(2.0, 1.0);
  cdf.add(3.0, 2.0);
  EXPECT_DOUBLE_EQ(cdf.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.cdf_at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.cdf_at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.cdf_at(3.0), 1.0);
}

TEST(WeightedCdfTest, ZeroWeightIgnoredNegativeThrows) {
  WeightedCdf cdf;
  cdf.add(5.0, 0.0);
  EXPECT_TRUE(cdf.empty());
  EXPECT_THROW(cdf.add(1.0, -1.0), CheckError);
}

TEST(WeightedCdfTest, CurveIsMonotone) {
  WeightedCdf cdf;
  for (int i = 0; i < 50; ++i) cdf.add((i * 37) % 11, 1.0 + i % 3);
  const auto curve = cdf.curve();
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve[i - 1].first, curve[i].first);
    EXPECT_LE(curve[i - 1].second, curve[i].second);
  }
  EXPECT_NEAR(curve.back().second, 1.0, 1e-12);
}

TEST(AsciiTableTest, RendersAlignedRows) {
  AsciiTable table({"Policy", "Mean"});
  table.add_row({"NC-DRF", AsciiTable::fmt(5.75)});
  table.add_row({"DRF", AsciiTable::fmt(3.36)});
  const std::string out = table.render();
  EXPECT_NE(out.find("| Policy | Mean |"), std::string::npos);
  EXPECT_NE(out.find("| NC-DRF | 5.75 |"), std::string::npos);
  EXPECT_NE(out.find("| DRF    | 3.36 |"), std::string::npos);
}

TEST(AsciiTableTest, RowWidthMismatchThrows) {
  AsciiTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), CheckError);
}

// --- common/json ------------------------------------------------------------

TEST(Json, AcceptsAndRejectsPerRfc8259) {
  struct Case {
    const char* text;
    bool ok;
  };
  const Case cases[] = {
      // Numbers.
      {"0", true},
      {"-0", true},
      {"-12.5e-3", true},
      {"1E+2", true},
      {"4.9406564584124654e-324", true},
      {"18446744073709551616", true},
      {"+1", false},
      {".5", false},
      {"01", false},
      {"007", false},
      {"1.", false},
      {"-", false},
      {"1e", false},
      {"1e+", false},
      {"0x10", false},
      {"1e999", false},
      {"Infinity", false},
      {"NaN", false},
      // Whitespace: the four RFC bytes only.
      {" \t\n\r[ 1 ,\t2 ]\r\n", true},
      {"\v1", false},
      {"\f1", false},
      {"[1,\v2]", false},
      {"\xc2\xa0[]", false},
      // Escapes.
      {R"("\" \\ \/ \b \f \n \r \t \u00e9")", true},
      {R"("\a")", false},
      {R"("\x41")", false},
      {R"("\u00G1")", false},
      {R"("\u004")", false},
      {R"("\)", false},
      {"\"a\nb\"", false},
      {"\"\x01\"", false},
      {"\"\x7f\xff\"", true},
      // Surrogates: paired decode, lone ones are errors.
      {"\"\\ud83d\\ude00\"", true},
      {"\"\\uD83D\\uDE00\"", true},
      {R"("\ud83d")", false},
      {R"("\ud83dx")", false},
      {"\"\\ud83d\\u0041\"", false},
      {R"("\ude00")", false},
      // Duplicate keys, at any depth; equal keys in sibling objects are fine.
      {R"({"a":1,"b":2})", true},
      {R"({"a":1,"a":2})", false},
      {R"({"a":1,"b":{"c":1,"c":1}})", false},
      {R"([{"a":1},{"a":1}])", true},
      {R"({"ab":1,"ab":2})", false},
      // Structure and trailing text.
      {"true", true},
      {"null", true},
      {"", false},
      {"tru", false},
      {"nul", false},
      {"[1,]", false},
      {R"({"a":1,})", false},
      {"{1:2}", false},
      {"[1]]", false},
      {"{} x", false},
      {"1 2", false},
  };
  for (const Case& c : cases) {
    JsonValue value;
    EXPECT_EQ(parse_json(c.text, &value).empty(), c.ok) << c.text;
    EXPECT_EQ(obs::validate_json(c.text).empty(), c.ok) << c.text;
  }
}

TEST(Json, DecodesStringsAndKeepsNumberTokens) {
  JsonValue v;
  ASSERT_EQ(parse_json(R"(["a\nb", "\u0041", "\u00e9\u20ac\ud83d\ude00",)"
                       R"( "\"\\\/\b\f\r\t\u0000", 18446744073709551615,)"
                       R"( 4.9406564584124654e-324, -0, true, null])",
                       &v),
            "");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.items.size(), 9u);
  EXPECT_EQ(v.items[0].text, "a\nb");
  EXPECT_EQ(v.items[1].text, "A");
  EXPECT_EQ(v.items[2].text, "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  EXPECT_EQ(v.items[3].text, std::string("\"\\/\b\f\r\t\0", 8));
  EXPECT_EQ(v.items[4].text, "18446744073709551615");
  EXPECT_EQ(v.items[5].number, std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(std::signbit(v.items[6].number));
  EXPECT_TRUE(v.items[7].boolean);
  EXPECT_EQ(v.items[8].type, JsonValue::Type::kNull);
}

TEST(Json, ObjectsKeepDocumentOrder) {
  JsonValue v;
  ASSERT_EQ(parse_json(R"({"b": 1, "a": [2], "c": {}})", &v), "");
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "b");
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_EQ(v.members[2].first, "c");
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->items[0].number, 2.0);
  EXPECT_EQ(v.find("d"), nullptr);
  EXPECT_EQ(v.find("a")->find("b"), nullptr);  // not an object
}

TEST(Json, WriterRoundTripsEveryByte) {
  std::string bytes;
  for (int b = 0; b < 256; ++b) bytes.push_back(static_cast<char>(b));
  std::string out;
  append_json_string(out, bytes);
  EXPECT_EQ(out.find('\n'), std::string::npos);
  JsonValue v;
  ASSERT_EQ(parse_json(out, &v), "");
  EXPECT_EQ(v.text, bytes);
  out.clear();
  append_json_string(out, "a\"b\\c\n\x01");
  EXPECT_EQ(out, R"("a\"b\\c\n\u0001")");
}

// Nesting past the bound is an error, never a stack overflow.
TEST(Json, DeepNestingIsAnError) {
  const std::string deep(1'000'000, '[');
  JsonValue v;
  EXPECT_NE(parse_json(deep, &v), "");
  EXPECT_NE(obs::validate_json(deep), "");
  obs::SnapshotRow row;
  EXPECT_NE(obs::parse_timeseries_line(deep, &row), "");

  const std::string at_bound =
      std::string(kJsonMaxDepth, '[') + std::string(kJsonMaxDepth, ']');
  EXPECT_EQ(parse_json(at_bound, &v), "");
  EXPECT_NE(parse_json("[" + at_bound + "]", &v), "");
}

// Repeated keys are found without a scan per key: 50,000 keys would take
// seconds with one.
TEST(Json, WideObjectParsesFast) {
  std::string text = "{";
  for (int i = 0; i < 50000; ++i) {
    if (i > 0) text += ',';
    text += "\"key" + std::to_string(i) + "\":" + std::to_string(i);
  }
  const auto start = std::chrono::steady_clock::now();
  JsonValue v;
  ASSERT_EQ(parse_json(text + "}", &v), "");
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(v.members.size(), 50000u);
  EXPECT_LT(elapsed.count(), 1.0);
  EXPECT_NE(parse_json(text + ",\"key0\":0}", &v), "");
}

// Every key of `keys` reads the same from the map as from the reference,
// and the table stays a power of two at most half full.
void expect_same(const IdMap<std::int64_t>& map,
                 const std::unordered_map<int, std::int64_t>& ref,
                 const std::vector<int>& keys) {
  ASSERT_EQ(map.size(), ref.size());
  const std::size_t cap = map.capacity();
  EXPECT_TRUE(cap == 0 || (cap & (cap - 1)) == 0) << cap;
  EXPECT_LE(2 * map.size(), cap);
  for (const int key : keys) {
    const auto it = ref.find(key);
    const std::int64_t* got = map.find(key);
    ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << key;
    if (got != nullptr) {
      EXPECT_EQ(*got, it->second) << "key " << key;
    }
  }
}

// Seeded differential test against std::unordered_map: random mixes of
// inserts, assigns, finds, erases and clears over dense, strided and
// colliding key sets.
TEST(IdMapTest, MatchesUnorderedMapUnderRandomOperations) {
  // Ids whose home is the last cell of the 16-cell table: they share one
  // probe run that wraps past the table's end, and each doubling keeps
  // them in the top cells, so erases land inside long wrapped runs.
  std::vector<int> colliding = {0, INT_MAX};
  for (int id = 1; colliding.size() < 40; ++id) {
    if ((IdMap<std::int64_t>::mix(id) >> 60) == 15) colliding.push_back(id);
  }
  std::vector<int> dense;
  std::vector<int> strided;
  for (int i = 0; i < 300; ++i) {
    dense.push_back(i);
    strided.push_back(i * (1 << 21));
  }
  dense.push_back(INT_MAX);
  const std::vector<std::pair<const char*, std::vector<int>>> key_sets = {
      {"dense", dense}, {"strided", strided}, {"colliding", colliding}};
  for (const auto& [name, keys] : key_sets) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      Rng rng(seed);
      IdMap<std::int64_t> map;
      std::unordered_map<int, std::int64_t> ref;
      for (int op = 0; op < 20000; ++op) {
        const int key = keys[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(keys.size()) - 1))];
        const auto value = static_cast<std::int64_t>(rng.next_u64() >> 1);
        const std::int64_t kind = rng.uniform_int(0, 999);
        if (kind < 450) {
          const auto [stored, inserted] = map.insert(key, value);
          const auto [it, ref_inserted] = ref.try_emplace(key, value);
          ASSERT_EQ(inserted, ref_inserted);
          ASSERT_EQ(*stored, it->second);
        } else if (kind < 500) {
          map.assign(key, value);
          ref[key] = value;
        } else if (kind < 700) {
          ASSERT_EQ(map.contains(key), ref.contains(key));
        } else if (kind < 998) {
          ASSERT_EQ(map.erase(key), ref.erase(key) == 1);
        } else {
          map.clear();
          ref.clear();
        }
        if (op % 500 == 0) expect_same(map, ref, keys);
      }
      expect_same(map, ref, keys);
      // Drain in a random order: every erase shifts a run back.
      std::vector<int> order = keys;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(i) - 1))]);
      }
      for (const int key : order) {
        ASSERT_EQ(map.erase(key), ref.erase(key) == 1);
        if (ref.size() % 8 == 0) expect_same(map, ref, keys);
      }
      EXPECT_TRUE(map.empty());
    }
  }
}

TEST(IdMapTest, GrowsAcrossRehashesAndKeepsItsTableOnClear) {
  IdMap<std::int64_t> map;
  std::unordered_map<int, std::int64_t> ref;
  std::vector<int> keys;
  std::size_t last_capacity = 0;
  int rehashes = 0;
  for (int i = 0; i < 5000; ++i) {
    const int key = i % 2 == 0 ? i : INT_MAX - i;
    keys.push_back(key);
    ASSERT_TRUE(map.insert(key, 3 * i).second);
    ref[key] = 3 * i;
    if (map.capacity() != last_capacity) {
      ++rehashes;
      last_capacity = map.capacity();
      expect_same(map, ref, keys);
    }
  }
  EXPECT_GE(rehashes, 9);  // 16 cells up to 16384
  expect_same(map, ref, keys);
  const std::size_t capacity = map.capacity();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), capacity);
  for (const int key : keys) EXPECT_FALSE(map.contains(key));
  map.reserve(10000);
  EXPECT_GE(map.capacity(), 20000u);
}

TEST(IdMapTest, NegativeIdsAreNeverStored) {
  IdMap<std::int64_t> map;
  EXPECT_EQ(map.find(-1), nullptr);
  EXPECT_FALSE(map.erase(-1));
  EXPECT_THROW(map.insert(-1, 0), CheckError);
  EXPECT_THROW(map.insert(INT_MIN, 0), CheckError);
  EXPECT_TRUE(map.insert(0, 7).second);
  EXPECT_EQ(map.find(-1), nullptr);
  EXPECT_EQ(*map.find(0), 7);
  EXPECT_EQ(map.size(), 1u);
}

}  // namespace
}  // namespace ncdrf
