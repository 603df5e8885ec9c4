// Seeded mutation fuzzing of every parser that reads outside input: the
// JSON reader (common/json.h), the seven artifact validators and
// parse_timeseries_line (obs/json_lint.h), parse_scenario
// (scenario/spec.h) and the Coflow-Benchmark reader
// (trace/benchmark_format.h).
//
// Each case mutates files of the checked-in corpus (tests/corpus/) with
// ncdrf::Rng from a fixed seed, so a failure replays bit for bit from the
// seed and iteration it prints. The contract:
//   * parse_json and the validators return an error string, never throw;
//   * parse_scenario and parse_benchmark_trace_string throw only
//     CheckError;
//   * an accepted spec's to_json is valid JSON and parses back to the same
//     bytes;
//   * an accepted trace has finite, positive flow sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "obs/json_lint.h"
#include "scenario/spec.h"
#include "trace/benchmark_format.h"

namespace ncdrf {
namespace {

// Mutated inputs per seed. Each iteration sends one mutated JSON file and
// one mutated trace through every entry point.
constexpr int kIterations = 5000;
// Inputs are cut back to this size, which also bounds the flows a mutated
// trace can declare.
constexpr std::size_t kMaxInput = std::size_t{1} << 16;
// Bytes that steer an insert toward the grammars' edges.
constexpr std::string_view kGrammarBytes = "{}[]\",:-+.0123456789eE\\u \t\n\r\v";

struct Corpus {
  std::vector<std::string> json;    // *.json, *.ndjson
  std::vector<std::string> traces;  // *.txt: Coflow-Benchmark traces
  std::vector<std::string> all;
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

const Corpus& corpus() {
  static const Corpus files = [] {
    std::vector<std::filesystem::path> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(NCDRF_CORPUS_DIR)) {
      paths.push_back(entry.path());
    }
    // Directory order is unspecified; a seed must replay the same inputs.
    std::sort(paths.begin(), paths.end());
    Corpus c;
    for (const auto& path : paths) {
      const std::string ext = path.extension().string();
      if (ext == ".txt") {
        c.traces.push_back(read_file(path));
      } else if (ext == ".json" || ext == ".ndjson") {
        c.json.push_back(read_file(path));
      } else {
        continue;
      }
      c.all.push_back(read_file(path));
    }
    return c;
  }();
  return files;
}

// Uniform in [0, n].
std::size_t upto(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n)));
}

const std::string& pick(Rng& rng, const std::vector<std::string>& files) {
  return files[upto(rng, files.size() - 1)];
}

// One to four edits: bit flips, truncations, span deletes and duplicates,
// byte inserts, and splices with another corpus file.
std::string mutate(Rng& rng, std::string s) {
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t n = s.size();
    switch (rng.uniform_int(0, 5)) {
      case 0:
        if (n > 0) {
          char& c = s[upto(rng, n - 1)];
          c = static_cast<char>(static_cast<unsigned char>(c) ^
                                (1u << rng.uniform_int(0, 7)));
        }
        break;
      case 1:
        s.resize(upto(rng, n));
        break;
      case 2: {
        const std::size_t from = upto(rng, n);
        s.erase(from, upto(rng, std::min<std::size_t>(n - from, 64)));
        break;
      }
      case 3: {
        const std::size_t from = upto(rng, n);
        const std::string span =
            s.substr(from, upto(rng, std::min<std::size_t>(n - from, 256)));
        s.insert(upto(rng, n), span);
        break;
      }
      case 4: {
        const char byte =
            rng.bernoulli(0.5)
                ? kGrammarBytes[upto(rng, kGrammarBytes.size() - 1)]
                : static_cast<char>(
                      static_cast<unsigned char>(rng.uniform_int(0, 255)));
        s.insert(upto(rng, n), 1, byte);
        break;
      }
      default: {
        const std::string& other = pick(rng, corpus().all);
        s = s.substr(0, upto(rng, n)) + other.substr(upto(rng, other.size()));
      }
    }
    if (s.size() > kMaxInput) s.resize(kMaxInput);
  }
  return s;
}

// Runs every entry point on `input` and records each broken contract
// with `where` and the input's head, escaped.
void feed(const std::string& input, const std::string& where) {
  const auto shown = [&] {
    std::string out = where + " on input ";
    append_json_string(out, std::string_view(input).substr(0, 300));
    return out;
  };
  using Validator = std::string (*)(const std::string&);
  for (const Validator validate :
       {obs::validate_json, obs::validate_chrome_trace_json,
        obs::validate_metrics_json, obs::validate_ndjson,
        obs::validate_timeseries_ndjson, obs::validate_flight_bundle_json,
        obs::validate_gaming_json}) {
    try {
      validate(input);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "a validator threw " << e.what() << ", " << shown();
    }
  }
  try {
    JsonValue value;
    parse_json(input, &value);
    obs::SnapshotRow row;
    obs::parse_timeseries_line(input, &row);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "a reader threw " << e.what() << ", " << shown();
  }

  std::optional<scenario::ScenarioSpec> spec;
  try {
    spec = scenario::parse_scenario(input);
  } catch (const CheckError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "parse_scenario threw " << e.what() << ", " << shown();
  }
  if (spec) {
    const std::string json = scenario::to_json(*spec);
    EXPECT_EQ(obs::validate_json(json), "") << shown();
    try {
      EXPECT_EQ(scenario::to_json(scenario::parse_scenario(json)), json)
          << shown();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "to_json output rejected: " << e.what() << ", "
                    << shown();
    }
  }

  try {
    const Trace trace = parse_benchmark_trace_string(input);
    for (const Coflow& coflow : trace.coflows) {
      for (const Flow& flow : coflow.flows()) {
        if (!(std::isfinite(flow.size_bits) && flow.size_bits > 0.0)) {
          ADD_FAILURE() << "flow size " << flow.size_bits << ", " << shown();
          return;
        }
      }
    }
  } catch (const CheckError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "parse_benchmark_trace_string threw " << e.what()
                  << ", " << shown();
  }
}

// The seed files parse, so mutation reaches past the syntax errors.
TEST(FuzzCorpus, SeedFilesAreAccepted) {
  const auto file = [](const char* name) {
    return read_file(std::filesystem::path(NCDRF_CORPUS_DIR) / name);
  };
  const std::string spec = file("seed-spec.json");
  EXPECT_EQ(scenario::to_json(scenario::parse_scenario(spec)), spec);
  EXPECT_EQ(obs::validate_chrome_trace_json(file("seed-chrome-trace.json")),
            "");
  EXPECT_EQ(obs::validate_metrics_json(file("seed-metrics.json")), "");
  EXPECT_EQ(obs::validate_flight_bundle_json(file("seed-flight.json")), "");
  EXPECT_EQ(obs::validate_timeseries_ndjson(file("seed-timeseries.ndjson")),
            "");
  EXPECT_EQ(obs::validate_gaming_json(file("seed-gaming.json")), "");
  EXPECT_EQ(
      parse_benchmark_trace_string(file("seed-benchmark-trace.txt")).coflows.size(),
      4u);
}

TEST(FuzzCorpus, EveryFileKeepsTheContract) {
  ASSERT_FALSE(corpus().json.empty());
  ASSERT_FALSE(corpus().traces.empty());
  for (std::size_t i = 0; i < corpus().all.size(); ++i) {
    feed(corpus().all[i], "corpus file " + std::to_string(i));
  }
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, MutatedCorpusKeepsTheContract) {
  ASSERT_FALSE(corpus().json.empty());
  ASSERT_FALSE(corpus().traces.empty());
  Rng rng(GetParam());
  for (int i = 0; i < kIterations && !HasFailure(); ++i) {
    const std::string where = "seed " + std::to_string(GetParam()) +
                              " iteration " + std::to_string(i);
    feed(mutate(rng, pick(rng, corpus().json)), where);
    feed(mutate(rng, pick(rng, corpus().traces)), where);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ncdrf
