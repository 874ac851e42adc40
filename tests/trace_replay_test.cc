// Tests for the external-trace workload path: CSV parsing with line-numbered
// rejection of malformed rows, and the trace-replay experiment end to end.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/flow_fidelity.h"
#include "exp/trace_replay.h"
#include "workload/trace.h"

namespace numfabric {
namespace {

using workload::TraceFlow;

std::vector<TraceFlow> parse(const std::string& text) {
  std::istringstream in(text);
  return workload::parse_trace_csv(in, "test.csv");
}

std::string parse_error(const std::string& text) {
  try {
    parse(text);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(TraceCsvTest, ParsesRowsHeaderAndComments) {
  const auto flows = parse(
      "# a comment\n"
      "arrival_s,size_bytes,src,dst\n"
      "0.001,20000,0,3\n"
      "\n"
      "0.002,500,2,1   # inline comment\n");
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_DOUBLE_EQ(flows[0].arrival_seconds, 0.001);
  EXPECT_EQ(flows[0].size_bytes, 20000u);
  EXPECT_EQ(flows[0].src, 0);
  EXPECT_EQ(flows[0].dst, 3);
  EXPECT_EQ(flows[1].src, 2);
}

TEST(TraceCsvTest, HeaderlessTracesParseToo) {
  const auto flows = parse("0,1000,0,1\n0.5,2000,1,0\n");
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[1].size_bytes, 2000u);
}

TEST(TraceCsvTest, MalformedRowsFailWithLineNumbers) {
  // Line 3: wrong field count.
  EXPECT_NE(parse_error("header,x,y,z\n0,100,0,1\n0.1,200,3\n")
                .find("test.csv:3"),
            std::string::npos);
  // Line 1: non-numeric size.
  EXPECT_NE(parse_error("0,big,0,1\n").find("test.csv:1"), std::string::npos);
  // Line 2: src == dst.
  EXPECT_NE(parse_error("0,100,0,1\n0,100,2,2\n").find("test.csv:2"),
            std::string::npos);
  EXPECT_NE(parse_error("0,100,2,2\n").find("src == dst"), std::string::npos);
  // Negative arrival, zero size, out-of-range hosts (negative or wider than
  // int — a wrap would silently replay the wrong hosts).
  EXPECT_NE(parse_error("-1,100,0,1\n").find("negative arrival"),
            std::string::npos);
  EXPECT_NE(parse_error("0,0,0,1\n").find("positive"), std::string::npos);
  EXPECT_NE(parse_error("0,100,-2,1\n").find("host-index range"),
            std::string::npos);
  EXPECT_NE(parse_error("0,100,4294967296,1\n").find("host-index range"),
            std::string::npos);
  // A second header-looking row is data, so it fails loudly.
  EXPECT_NE(parse_error("0,100,0,1\narrival_s,size_bytes,src,dst\n")
                .find("test.csv:2"),
            std::string::npos);
}

TEST(TraceCsvTest, MissingFileThrowsRuntimeError) {
  EXPECT_THROW(workload::load_trace_csv("/definitely/not/here.csv"),
               std::runtime_error);
}

TEST(TraceCsvTest, BuiltinExampleTraceIsValid) {
  const auto& trace = workload::example_trace();
  ASSERT_GE(trace.size(), 10u);
  for (const TraceFlow& flow : trace) {
    EXPECT_GE(flow.src, 0);
    EXPECT_LT(flow.src, 4);  // fits the smallest smoke topology (4 hosts)
    EXPECT_LT(flow.dst, 4);
    EXPECT_GT(flow.size_bytes, 0u);
  }
}

TEST(TraceReplayTest, ReplaysBuiltinTraceToCompletion) {
  exp::TraceReplayOptions options;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 1;
  options.trace = workload::example_trace();
  options.horizon = sim::millis(500);
  const exp::TraceReplayResult result = exp::run_trace_replay(options);

  ASSERT_EQ(result.flows.size(), options.trace.size());
  EXPECT_EQ(result.completed + result.incomplete,
            static_cast<int>(options.trace.size()));
  EXPECT_GT(result.completed, 0);
  EXPECT_GT(result.sim_events, 0u);
  for (const auto& flow : result.flows) {
    if (!flow.completed) continue;
    EXPECT_GT(flow.fct_seconds, 0);
    EXPECT_LT(flow.fct_seconds, 0.5);
  }
}

// Traces built in code skip the CSV parser's checks, so both runners must
// reject any host index outside [0, hosts) themselves.
TEST(TraceReplayTest, RejectsOutOfRangeHosts) {
  exp::TraceReplayOptions options;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 1;  // 2 hosts: indices 0 and 1
  for (const TraceFlow& bad :
       {TraceFlow{0.0, 1000, 0, 5}, TraceFlow{0.0, 1000, -1, 1}}) {
    options.trace = {bad};
    EXPECT_THROW(exp::run_trace_replay(options), std::invalid_argument)
        << bad.src << "->" << bad.dst;
    EXPECT_THROW(exp::run_trace_replay_flow(options, 0.0, 1),
                 std::invalid_argument)
        << bad.src << "->" << bad.dst;
  }
}

}  // namespace
}  // namespace numfabric
