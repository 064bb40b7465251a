#include "pas/sim/trace.hpp"

#include <gtest/gtest.h>

#include "pas/mpi/runtime.hpp"
#include "test_scratch.hpp"

namespace pas::sim {
namespace {

TEST(Tracer, DisabledByDefaultAndNoOp) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.record(0, 0.0, 1.0, Activity::kCpu, "x");
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, RecordsWhenEnabled) {
  Tracer t;
  t.enable();
  t.record(1, 0.5, 0.25, Activity::kNetwork, "send->2");
  ASSERT_EQ(t.size(), 1u);
  const auto events = t.events();
  EXPECT_EQ(events[0].node, 1);
  EXPECT_DOUBLE_EQ(events[0].start_s, 0.5);
  EXPECT_EQ(events[0].label, "send->2");
}

TEST(Tracer, ClearEmpties) {
  Tracer t;
  t.enable();
  t.record(0, 0.0, 1.0, Activity::kCpu, "x");
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, ChromeJsonWellFormed) {
  Tracer t;
  t.enable();
  t.record(0, 0.0, 1e-3, Activity::kCpu, "compute");
  t.record(1, 5e-4, 2e-3, Activity::kNetwork, "recv<-0 \"q\"");
  const std::string json = t.to_chrome_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"network\""), std::string::npos);
  EXPECT_NE(json.find("\\\"q\\\""), std::string::npos);  // escaping
  // Timestamps are microseconds.
  EXPECT_NE(json.find("\"ts\":500.000"), std::string::npos);
}

TEST(Tracer, WriteToFile) {
  Tracer t;
  t.enable();
  t.record(0, 0.0, 1.0, Activity::kCpu, "x");
  const std::string path = pas::test::scratch_path("pas_trace.json");
  const obs::WriteResult ok = t.write_chrome_json(path);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.path, path);
  EXPECT_GT(ok.bytes, 0u);
  const obs::WriteResult bad = t.write_chrome_json("/no-such-dir/zz/trace.json");
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.error.empty());
}

TEST(Tracer, RuntimeIntegrationCapturesKernelStructure) {
  mpi::Runtime rt(ClusterConfig::paper_testbed(2));
  rt.tracer().enable();
  rt.run(2, 1000, [](mpi::Comm& comm) {
    comm.compute(InstructionMix{.reg_ops = 1e5});
    if (comm.rank() == 0) {
      comm.send(1, 3, mpi::Payload(128, 0.0));
    } else {
      comm.recv(0, 3);
    }
  });
  const auto events = rt.tracer().events();
  int computes = 0;
  int sends = 0;
  int recvs = 0;
  for (const TraceEvent& e : events) {
    if (e.label == "compute") ++computes;
    if (e.label.rfind("send->", 0) == 0) ++sends;
    if (e.label.rfind("recv<-", 0) == 0) ++recvs;
    EXPECT_GE(e.duration_s, 0.0);
  }
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
}

TEST(Tracer, DisabledRuntimeRecordsNothing) {
  mpi::Runtime rt(ClusterConfig::paper_testbed(2));
  rt.run(2, 1000, [](mpi::Comm& comm) {
    comm.compute(InstructionMix{.reg_ops = 1e5});
    comm.barrier();
  });
  EXPECT_EQ(rt.tracer().size(), 0u);
}

TEST(Tracer, CollectivesShowUpAsMessageEvents) {
  mpi::Runtime rt(ClusterConfig::paper_testbed(4));
  rt.tracer().enable();
  rt.run(4, 1000, [](mpi::Comm& comm) { comm.allreduce_sum(1.0); });
  // Recursive doubling on 4 ranks: every rank sends and receives twice.
  int sends = 0;
  for (const TraceEvent& e : rt.tracer().events()) {
    if (e.label.rfind("send->", 0) == 0) ++sends;
  }
  EXPECT_EQ(sends, 8);
}

}  // namespace
}  // namespace pas::sim
