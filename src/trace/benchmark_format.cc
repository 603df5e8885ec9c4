#include "trace/benchmark_format.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <system_error>

#include "common/check.h"
#include "common/units.h"

namespace ncdrf {
namespace {

struct RawCoflow {
  long long id = 0;
  double arrival_ms = 0.0;
  std::vector<int> mappers;
  std::vector<std::pair<int, double>> reducers;  // (rack, total MB)
};

// The whole text of `token` in decimal: std::stoi stops at the first
// non-digit ("2x" reads as 2) and std::stod parses hex ("0x10" reads as 16).
template <typename T>
bool parse_whole(std::string_view token, T& value) {
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc() && stop == end;
}

}  // namespace

Trace parse_benchmark_trace(std::istream& in) {
  int num_racks = 0;
  int num_coflows = 0;
  NCDRF_CHECK(static_cast<bool>(in >> num_racks >> num_coflows),
              "trace header must be '<numRacks> <numCoflows>'");
  NCDRF_CHECK(num_racks >= 1, "trace must have at least one rack");
  NCDRF_CHECK(num_coflows >= 1, "trace must have at least one coflow");

  // No reserve: the header's count is unchecked until the lines arrive.
  std::vector<RawCoflow> raw;
  bool zero_based = false;
  const auto check_rack = [&](int rack) {
    NCDRF_CHECK(rack >= 0, "negative rack id in trace");
    zero_based = zero_based || rack == 0;
  };
  for (int c = 0; c < num_coflows; ++c) {
    RawCoflow rc;
    int num_mappers = 0;
    NCDRF_CHECK(static_cast<bool>(in >> rc.id >> rc.arrival_ms >> num_mappers),
                "malformed coflow line (id/arrival/mapper count)");
    NCDRF_CHECK(rc.arrival_ms >= 0.0, "negative arrival time in trace");
    NCDRF_CHECK(num_mappers >= 1, "coflow must have at least one mapper");
    for (int m = 0; m < num_mappers; ++m) {
      int rack = 0;
      NCDRF_CHECK(static_cast<bool>(in >> rack), "missing mapper rack");
      check_rack(rack);
      rc.mappers.push_back(rack);
    }
    int num_reducers = 0;
    NCDRF_CHECK(static_cast<bool>(in >> num_reducers),
                "missing reducer count");
    NCDRF_CHECK(num_reducers >= 1, "coflow must have at least one reducer");
    for (int r = 0; r < num_reducers; ++r) {
      std::string token;
      NCDRF_CHECK(static_cast<bool>(in >> token), "missing reducer entry");
      const std::size_t colon = token.find(':');
      NCDRF_CHECK(colon != std::string::npos,
                  "reducer entry must be 'rack:sizeMB', got '" + token + "'");
      const std::string_view entry = token;
      int rack = 0;
      double size_mb = 0.0;
      NCDRF_CHECK(parse_whole(entry.substr(0, colon), rack) &&
                      parse_whole(entry.substr(colon + 1), size_mb),
                  "unparsable reducer entry '" + token + "'");
      NCDRF_CHECK(size_mb > 0.0, "reducer shuffle size must be positive");
      NCDRF_CHECK(std::isfinite(megabytes(size_mb)),
                  "reducer shuffle size overflows bits: '" + token + "'");
      check_rack(rack);
      rc.reducers.emplace_back(rack, size_mb);
    }
    raw.push_back(std::move(rc));
  }

  // Published benchmark traces are 1-based; synthetic/test inputs may be
  // 0-based. A rack id of 0 anywhere means the whole file is 0-based.
  const int base = zero_based ? 0 : 1;

  TraceBuilder builder(num_racks);
  for (const RawCoflow& rc : raw) {
    builder.begin_coflow(milliseconds(rc.arrival_ms));
    for (const auto& [reducer_rack, total_mb] : rc.reducers) {
      const double per_mapper_mb =
          total_mb / static_cast<double>(rc.mappers.size());
      for (const int mapper_rack : rc.mappers) {
        const int src = mapper_rack - base;
        const int dst = reducer_rack - base;
        NCDRF_CHECK(src >= 0 && src < num_racks,
                    "mapper rack out of range in trace");
        NCDRF_CHECK(dst >= 0 && dst < num_racks,
                    "reducer rack out of range in trace");
        builder.add_flow(src, dst, megabytes(per_mapper_mb));
      }
    }
  }
  return builder.build();
}

Trace parse_benchmark_trace_string(const std::string& text) {
  std::istringstream in(text);
  return parse_benchmark_trace(in);
}

Trace load_benchmark_trace(const std::string& path) {
  std::ifstream in(path);
  NCDRF_CHECK(in.good(), "cannot open trace file: " + path);
  return parse_benchmark_trace(in);
}

std::string serialize_benchmark_trace(const Trace& trace) {
  std::ostringstream os;
  // Full double precision: serialized sizes must round-trip exactly.
  os.precision(17);
  os << trace.num_machines << ' ' << trace.coflows.size() << '\n';
  for (const Coflow& coflow : trace.coflows) {
    // Recover mapper set and per-reducer totals from the flows.
    std::vector<int> mappers;
    std::map<int, double> reducer_bits;
    for (const Flow& f : coflow.flows()) {
      if (std::find(mappers.begin(), mappers.end(), f.src) == mappers.end()) {
        mappers.push_back(f.src);
      }
      reducer_bits[f.dst] += f.size_bits;
    }
    std::sort(mappers.begin(), mappers.end());

    os << coflow.id() << ' '
       << static_cast<long long>(coflow.arrival_time() * 1000.0) << ' '
       << mappers.size();
    for (const int m : mappers) os << ' ' << (m + 1);
    os << ' ' << reducer_bits.size();
    for (const auto& [rack, bits_total] : reducer_bits) {
      os << ' ' << (rack + 1) << ':' << to_megabytes(bits_total);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace ncdrf
