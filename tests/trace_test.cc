// Unit tests for the trace module: builder invariants, Coflow-Benchmark
// format round-trips, the synthetic FB generator's statistical contract,
// and the Table III micro-benchmark workload.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/check.h"
#include "common/units.h"
#include "trace/benchmark_format.h"
#include "trace/microbench.h"
#include "trace/synthetic_fb.h"
#include "trace/trace.h"

namespace ncdrf {
namespace {

TEST(TraceBuilder, AssignsDenseIdsSortedByArrival) {
  TraceBuilder builder(4);
  builder.begin_coflow(5.0);
  builder.add_flow(0, 1, 100.0);
  builder.begin_coflow(1.0);
  builder.add_flow(2, 3, 200.0);
  builder.add_flow(3, 2, 300.0);
  const Trace trace = builder.build();

  ASSERT_EQ(trace.coflows.size(), 2u);
  EXPECT_EQ(trace.total_flows, 3);
  // Sorted by arrival; ids reassigned densely.
  EXPECT_DOUBLE_EQ(trace.coflows[0].arrival_time(), 1.0);
  EXPECT_EQ(trace.coflows[0].id(), 0);
  EXPECT_EQ(trace.coflows[1].id(), 1);
  for (std::size_t k = 0; k < trace.coflows.size(); ++k) {
    for (const Flow& f : trace.coflows[k].flows()) {
      EXPECT_EQ(f.coflow, trace.coflows[k].id());
    }
  }
  EXPECT_DOUBLE_EQ(trace.total_bits(), 600.0);
}

TEST(TraceBuilder, FlowIdsAreGloballyUnique) {
  TraceBuilder builder(3);
  std::set<FlowId> ids;
  for (int c = 0; c < 5; ++c) {
    builder.begin_coflow(c);
    for (int f = 0; f <= c; ++f) builder.add_flow(0, 1, 1.0);
  }
  const Trace trace = builder.build();
  for (const Coflow& coflow : trace.coflows) {
    for (const Flow& f : coflow.flows()) {
      EXPECT_TRUE(ids.insert(f.id).second) << "duplicate flow id " << f.id;
      EXPECT_GE(f.id, 0);
      EXPECT_LT(f.id, trace.total_flows);
    }
  }
}

TEST(TraceBuilder, Validates) {
  EXPECT_THROW(TraceBuilder(0), CheckError);
  TraceBuilder builder(2);
  EXPECT_THROW(builder.add_flow(0, 1, 1.0), CheckError);  // no open coflow
  builder.begin_coflow(0.0);
  EXPECT_THROW(builder.add_flow(2, 0, 1.0), CheckError);  // src range
  EXPECT_THROW(builder.add_flow(0, -1, 1.0), CheckError);  // dst range
  EXPECT_THROW(builder.add_flow(0, 1, 0.0), CheckError);   // size
  EXPECT_THROW(builder.build(), CheckError);  // empty coflow
}

TEST(BenchmarkFormat, ParsesTheDocumentedFormat) {
  // 2 coflows on 4 racks (1-based racks as in the published trace).
  const std::string text =
      "4 2\n"
      "1 0 2 1 2 1 4:100\n"
      "2 5000 1 3 2 1:30 2:60\n";
  const Trace trace = parse_benchmark_trace_string(text);
  EXPECT_EQ(trace.num_machines, 4);
  ASSERT_EQ(trace.coflows.size(), 2u);

  // Coflow 0: mappers at racks {0,1}, one reducer at rack 3 with 100 MB →
  // two flows of 50 MB each.
  const Coflow& c0 = trace.coflows[0];
  EXPECT_DOUBLE_EQ(c0.arrival_time(), 0.0);
  ASSERT_EQ(c0.width(), 2);
  EXPECT_DOUBLE_EQ(c0.flows()[0].size_bits, megabytes(50.0));
  EXPECT_EQ(c0.flows()[0].src, 0);
  EXPECT_EQ(c0.flows()[0].dst, 3);
  EXPECT_EQ(c0.flows()[1].src, 1);

  // Coflow 1: arrival 5 s, one mapper at rack 2, reducers at racks 0, 1.
  const Coflow& c1 = trace.coflows[1];
  EXPECT_DOUBLE_EQ(c1.arrival_time(), 5.0);
  ASSERT_EQ(c1.width(), 2);
  EXPECT_EQ(c1.flows()[0].src, 2);
  EXPECT_EQ(c1.flows()[0].dst, 0);
  EXPECT_DOUBLE_EQ(c1.flows()[0].size_bits, megabytes(30.0));
  EXPECT_DOUBLE_EQ(c1.flows()[1].size_bits, megabytes(60.0));
}

TEST(BenchmarkFormat, DetectsZeroBasedRacks) {
  const std::string text =
      "3 1\n"
      "1 0 2 0 1 1 2:10\n";
  const Trace trace = parse_benchmark_trace_string(text);
  EXPECT_EQ(trace.coflows[0].flows()[0].src, 0);
  EXPECT_EQ(trace.coflows[0].flows()[0].dst, 2);
  // The rack count takes no arithmetic, so the largest int still works.
  const Trace widest =
      parse_benchmark_trace_string("2147483647 1\n1 0 1 0 1 1:10\n");
  EXPECT_EQ(widest.num_machines, 2147483647);
  EXPECT_EQ(widest.coflows[0].flows()[0].src, 0);
}

TEST(BenchmarkFormat, RoundTripsThroughSerialize) {
  const std::string text =
      "5 2\n"
      "1 100 2 1 3 2 2:40 5:10\n"
      "2 2500 3 1 2 4 1 3:90\n";
  const Trace original = parse_benchmark_trace_string(text);
  const Trace reparsed =
      parse_benchmark_trace_string(serialize_benchmark_trace(original));
  ASSERT_EQ(reparsed.coflows.size(), original.coflows.size());
  for (std::size_t k = 0; k < original.coflows.size(); ++k) {
    const Coflow& a = original.coflows[k];
    const Coflow& b = reparsed.coflows[k];
    EXPECT_DOUBLE_EQ(a.arrival_time(), b.arrival_time());
    ASSERT_EQ(a.width(), b.width());
    EXPECT_NEAR(a.total_bits(), b.total_bits(), 1.0);
  }
}

TEST(BenchmarkFormat, RoundTripIsFlowExact) {
  // parse → serialize → parse must reproduce every flow identically —
  // same src, dst and size, in the same order — not just aggregate
  // totals. Mapper-uniform sizes (as in published traces) survive the
  // per-reducer re-aggregation exactly.
  const std::string text =
      "6 3\n"
      "1 0 2 1 4 2 2:40 6:10\n"
      "2 1500 3 1 2 4 1 3:90\n"
      "3 60000 1 5 3 1:12 2:24 4:36\n";
  const Trace original = parse_benchmark_trace_string(text);
  const Trace reparsed =
      parse_benchmark_trace_string(serialize_benchmark_trace(original));
  ASSERT_EQ(reparsed.coflows.size(), original.coflows.size());
  EXPECT_EQ(reparsed.num_machines, original.num_machines);
  EXPECT_EQ(reparsed.total_flows, original.total_flows);
  for (std::size_t k = 0; k < original.coflows.size(); ++k) {
    const Coflow& a = original.coflows[k];
    const Coflow& b = reparsed.coflows[k];
    EXPECT_DOUBLE_EQ(a.arrival_time(), b.arrival_time());
    ASSERT_EQ(a.width(), b.width());
    for (int i = 0; i < a.width(); ++i) {
      const Flow& fa = a.flows()[static_cast<std::size_t>(i)];
      const Flow& fb = b.flows()[static_cast<std::size_t>(i)];
      EXPECT_EQ(fa.src, fb.src) << "coflow " << k << " flow " << i;
      EXPECT_EQ(fa.dst, fb.dst) << "coflow " << k << " flow " << i;
      EXPECT_DOUBLE_EQ(fa.size_bits, fb.size_bits)
          << "coflow " << k << " flow " << i;
    }
  }
}

TEST(BenchmarkFormat, SerializeIsAFixedPoint) {
  // serialize(parse(serialize(t))) == serialize(t): one round trip lands
  // on a canonical form that further round trips preserve byte-for-byte.
  const std::string text =
      "5 2\n"
      "1 100 2 1 3 2 2:40 5:10\n"
      "2 2500 3 1 2 4 1 3:90\n";
  const Trace once = parse_benchmark_trace_string(text);
  const std::string canon = serialize_benchmark_trace(once);
  const Trace twice = parse_benchmark_trace_string(canon);
  EXPECT_EQ(serialize_benchmark_trace(twice), canon);
}

TEST(BenchmarkFormat, ZeroBasedInputRoundTrips) {
  // 0-based input is written back 1-based; the reparse must see the same
  // racks (the detection heuristic normalizes, not shifts, the data).
  const std::string text =
      "3 1\n"
      "1 0 2 0 1 1 2:10\n";
  const Trace original = parse_benchmark_trace_string(text);
  const Trace reparsed =
      parse_benchmark_trace_string(serialize_benchmark_trace(original));
  ASSERT_EQ(reparsed.coflows[0].width(), original.coflows[0].width());
  for (int i = 0; i < original.coflows[0].width(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(reparsed.coflows[0].flows()[idx].src,
              original.coflows[0].flows()[idx].src);
    EXPECT_EQ(reparsed.coflows[0].flows()[idx].dst,
              original.coflows[0].flows()[idx].dst);
  }
}

TEST(BenchmarkFormat, RejectsMalformedInput) {
  EXPECT_THROW(parse_benchmark_trace_string(""), CheckError);
  EXPECT_THROW(parse_benchmark_trace_string("4"), CheckError);
  // Reducer entry without the colon.
  EXPECT_THROW(parse_benchmark_trace_string("4 1\n1 0 1 1 1 3\n"),
               CheckError);
  // Rack out of range.
  EXPECT_THROW(parse_benchmark_trace_string("4 1\n1 0 1 9 1 1:10\n"),
               CheckError);
  // Negative size.
  EXPECT_THROW(parse_benchmark_trace_string("4 1\n1 0 1 1 1 2:-5\n"),
               CheckError);
  // Fewer coflows than the header promises.
  EXPECT_THROW(parse_benchmark_trace_string("4 2\n1 0 1 1 1 2:10\n"),
               CheckError);
  // Zero racks / zero coflows in the header.
  EXPECT_THROW(parse_benchmark_trace_string("0 1\n1 0 1 1 1 1:10\n"),
               CheckError);
  // Mapper count promises more racks than the line carries.
  EXPECT_THROW(parse_benchmark_trace_string("4 1\n1 0 3 1 2 1 2:10\n"),
               CheckError);
  // Reducer count promises more entries than the line carries.
  EXPECT_THROW(parse_benchmark_trace_string("4 1\n1 0 1 1 2 2:10\n"),
               CheckError);
  // Non-numeric size after the colon.
  EXPECT_THROW(parse_benchmark_trace_string("4 1\n1 0 1 1 1 2:abc\n"),
               CheckError);
  // Negative arrival time.
  EXPECT_THROW(parse_benchmark_trace_string("4 1\n1 -5 1 1 1 2:10\n"),
               CheckError);
  // A header count with no lines behind it is not reserved up front.
  EXPECT_THROW(parse_benchmark_trace_string("1 2000000000\n"), CheckError);
  // Sizes whose bits overflow a double.
  EXPECT_THROW(parse_benchmark_trace_string("4 1\n1 0 1 1 1 2:inf\n"),
               CheckError);
  EXPECT_THROW(parse_benchmark_trace_string("4 1\n1 0 1 1 1 2:1e308\n"),
               CheckError);
  // Reducer fields convert whole and in decimal: no hex, no stray suffix.
  EXPECT_THROW(parse_benchmark_trace_string("4 1\n1 0 1 1 1 2:0x10\n"),
               CheckError);
  EXPECT_THROW(parse_benchmark_trace_string("4 1\n1 0 1 1 1 2x:5\n"),
               CheckError);
  // A negative rack id, at the bottom of int.
  EXPECT_THROW(
      parse_benchmark_trace_string("4 1\n1 0 1 -2147483648 1 2:10\n"),
      CheckError);
}

TEST(SyntheticFb, MatchesTableIBinMix) {
  SyntheticFbOptions options;
  const Trace trace = generate_synthetic_fb(options);
  EXPECT_EQ(trace.num_machines, 150);
  ASSERT_EQ(trace.coflows.size(), 526u);

  std::map<CoflowBin, int> counts;
  for (const Coflow& c : trace.coflows) counts[classify_bin(c)] += 1;
  const double n = static_cast<double>(trace.coflows.size());
  // Bin mix is enforced by construction; rounding gives ±1 coflow.
  EXPECT_NEAR(counts[CoflowBin::kShortNarrow] / n, 0.60, 0.01);
  EXPECT_NEAR(counts[CoflowBin::kLongNarrow] / n, 0.16, 0.01);
  EXPECT_NEAR(counts[CoflowBin::kShortWide] / n, 0.12, 0.01);
  EXPECT_NEAR(counts[CoflowBin::kLongWide] / n, 0.12, 0.01);
}

TEST(SyntheticFb, ArrivalsSpanTheHourAndAreSorted) {
  const Trace trace = generate_synthetic_fb({});
  double prev = 0.0;
  for (const Coflow& c : trace.coflows) {
    EXPECT_GE(c.arrival_time(), prev);
    EXPECT_LT(c.arrival_time(), 3600.0);
    prev = c.arrival_time();
  }
  EXPECT_GT(trace.coflows.back().arrival_time(), 3000.0);  // spans the hour
}

TEST(SyntheticFb, DeterministicPerSeedAndSeedSensitive) {
  SyntheticFbOptions options;
  options.num_coflows = 40;
  const Trace a = generate_synthetic_fb(options);
  const Trace b = generate_synthetic_fb(options);
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t k = 0; k < a.coflows.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.coflows[k].arrival_time(), b.coflows[k].arrival_time());
    EXPECT_DOUBLE_EQ(a.coflows[k].total_bits(), b.coflows[k].total_bits());
  }
  options.seed += 1;
  const Trace c = generate_synthetic_fb(options);
  bool any_diff = false;
  for (std::size_t k = 0; k < a.coflows.size(); ++k) {
    any_diff = any_diff ||
               a.coflows[k].total_bits() != c.coflows[k].total_bits();
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticFb, RespectsFlowCap) {
  SyntheticFbOptions options;
  options.max_flows_per_coflow = 200;
  const Trace trace = generate_synthetic_fb(options);
  for (const Coflow& c : trace.coflows) {
    EXPECT_LE(c.width(), 200);
  }
}

TEST(SyntheticFb, MapperSideFlowSizesAreLoadBalanced) {
  // The load-balancing property NC-DRF's analysis (and Theorem 1's second
  // assumption) relies on: flows *into the same reducer* are near-equal.
  // The generator draws them as reducer_total × U[0.7, 1.4], so their
  // max/min ratio within one (coflow, reducer) group is ≤ 2. Across
  // reducers, partition skew may make sizes differ much more.
  const Trace trace = generate_synthetic_fb({});
  for (const Coflow& c : trace.coflows) {
    std::map<MachineId, std::pair<double, double>> per_reducer;  // (min,max)
    for (const Flow& f : c.flows()) {
      auto [it, inserted] = per_reducer.try_emplace(
          f.dst, std::make_pair(f.size_bits, f.size_bits));
      if (!inserted) {
        it->second.first = std::min(it->second.first, f.size_bits);
        it->second.second = std::max(it->second.second, f.size_bits);
      }
    }
    for (const auto& [reducer, range] : per_reducer) {
      EXPECT_LE(range.second / range.first, 2.0 + 1e-9)
          << "coflow " << c.id() << " reducer " << reducer;
    }
  }
}

TEST(Microbench, TableIIIShape) {
  const Trace trace = build_testbed_trace({});
  ASSERT_EQ(trace.coflows.size(), 3u);
  EXPECT_EQ(trace.num_machines, 60);

  const Coflow& a = trace.coflows[0];
  const Coflow& b = trace.coflows[1];
  const Coflow& c = trace.coflows[2];
  EXPECT_EQ(a.width(), 360);
  EXPECT_EQ(b.width(), 60);
  EXPECT_EQ(c.width(), 60);
  EXPECT_EQ(trace.total_flows, 480);  // "In total, we have 480 flows"
  EXPECT_DOUBLE_EQ(a.arrival_time(), 0.0);
  EXPECT_DOUBLE_EQ(b.arrival_time(), 10.0);
  EXPECT_DOUBLE_EQ(c.arrival_time(), 20.0);

  // Flow sizes within [30, 100] MB.
  for (const Coflow& coflow : trace.coflows) {
    for (const Flow& f : coflow.flows()) {
      EXPECT_GE(f.size_bits, megabytes(30.0) - 1.0);
      EXPECT_LE(f.size_bits, megabytes(100.0) + 1.0);
    }
  }

  // Coflow A stays within its 6-machine groups.
  for (const Flow& f : a.flows()) {
    EXPECT_EQ(f.src / 6, f.dst / 6);
  }
  // Coflow B pairs i with i+30.
  for (const Flow& f : b.flows()) {
    EXPECT_EQ(std::abs(f.src - f.dst), 30);
  }
  // Coflow C pairs j with j+15 within each half.
  for (const Flow& f : c.flows()) {
    EXPECT_EQ(std::abs(f.src - f.dst), 15);
    EXPECT_EQ(f.src / 30, f.dst / 30);
  }
}

}  // namespace
}  // namespace ncdrf
