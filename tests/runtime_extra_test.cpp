// Runtime hardening tests: channel concurrency, worker-thread exception
// propagation, and engine misuse.
#include <gtest/gtest.h>

#include <thread>

#include "cost/analytical_model.h"
#include "cost/table_model.h"
#include "models/examples.h"
#include "runtime/channel.h"
#include "runtime/engine.h"
#include "sched/scheduler.h"

namespace hios::runtime {
namespace {

TEST(Channel, FifoOrderSingleThread) {
  Channel<int> ch;
  EXPECT_TRUE(ch.empty());
  ch.send(1);
  ch.send(2);
  ch.send(3);
  EXPECT_FALSE(ch.empty());
  EXPECT_EQ(ch.recv(), 1);
  EXPECT_EQ(ch.recv(), 2);
  EXPECT_EQ(ch.recv(), 3);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, BlockingRecvWakesOnSend) {
  Channel<int> ch;
  int got = 0;
  std::thread consumer([&] { got = ch.recv().value_or(-1); });
  // The consumer blocks until this send.
  ch.send(42);
  consumer.join();
  EXPECT_EQ(got, 42);
}

TEST(Channel, ManyMessagesAcrossThreads) {
  Channel<int> ch;
  constexpr int kCount = 2000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) ch.send(i);
  });
  long long sum = 0;
  int last = -1;
  for (int i = 0; i < kCount; ++i) {
    const int v = ch.recv().value();
    EXPECT_EQ(v, last + 1);  // order preserved (single producer/consumer)
    last = v;
    sum += v;
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

TEST(Channel, MoveOnlyPayload) {
  Channel<std::unique_ptr<int>> ch;
  ch.send(std::make_unique<int>(7));
  const auto p = ch.recv();
  ASSERT_TRUE(p.has_value() && *p != nullptr);
  EXPECT_EQ(**p, 7);
}

TEST(Channel, CloseUnblocksWaitingReceiver) {
  Channel<int> ch;
  RecvStatus st = RecvStatus::kOk;
  std::thread consumer([&] {
    int v = 0;
    st = ch.recv(v);
  });
  // The consumer is (about to be) blocked with nothing buffered; close must
  // wake it with kClosed rather than leave it waiting forever.
  ch.close();
  consumer.join();
  EXPECT_EQ(st, RecvStatus::kClosed);
  EXPECT_TRUE(ch.closed());
}

TEST(Channel, CloseDrainsBufferedMessagesFirst) {
  Channel<int> ch;
  ch.send(1);
  ch.send(2);
  ch.close();
  int v = 0;
  EXPECT_EQ(ch.recv(v), RecvStatus::kOk);
  EXPECT_EQ(v, 1);
  EXPECT_EQ(ch.recv(v), RecvStatus::kOk);
  EXPECT_EQ(v, 2);
  EXPECT_EQ(ch.recv(v), RecvStatus::kClosed);
  EXPECT_EQ(ch.recv(v), RecvStatus::kClosed);  // stays closed
}

TEST(Channel, SendAfterCloseIsDropped) {
  Channel<int> ch;
  ch.close();
  ch.close();  // idempotent
  ch.send(5);
  int v = 0;
  EXPECT_EQ(ch.recv(v), RecvStatus::kClosed);
}

TEST(Channel, RecvUntilTimesOut) {
  Channel<int> ch;
  int v = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  EXPECT_EQ(ch.recv_until(v, deadline), RecvStatus::kTimeout);
  ch.send(9);
  EXPECT_EQ(ch.recv_until(v, deadline), RecvStatus::kOk);  // past deadline but buffered
  EXPECT_EQ(v, 9);
}

TEST(Engine, WorkerExceptionPropagatesToCaller) {
  // A graph node tagged with an *input* op id makes the worker's kernel
  // call throw; the engine must join all threads and rethrow.
  ops::Model model("bad");
  const ops::OpId in = model.add_input("x", ops::TensorShape{1, 1, 2, 2});
  model.add_op(ops::Op(ops::OpKind::kActivation, "r"), {in});

  graph::Graph g("bad-graph");
  g.add_node("r", 1.0, /*tag=*/0);  // tag 0 is the input placeholder: invalid
  sched::Schedule schedule(1);
  schedule.push_op(0, 0);
  const cost::TableCostModel cost;
  EXPECT_THROW(execute_schedule(model, g, schedule, cost), Error);
}

TEST(Engine, RejectsTagOutOfRange) {
  ops::Model model("tiny");
  const ops::OpId in = model.add_input("x", ops::TensorShape{1, 1, 2, 2});
  model.add_op(ops::Op(ops::OpKind::kActivation, "r"), {in});
  graph::Graph g("tagless");
  g.add_node("r", 1.0, /*tag=*/99);
  sched::Schedule schedule(1);
  schedule.push_op(0, 0);
  const cost::TableCostModel cost;
  EXPECT_THROW(execute_schedule(model, g, schedule, cost), Error);
}

TEST(Engine, ManyGpusFewOps) {
  // More vGPU threads than operators: idle workers must terminate cleanly.
  const ops::Model m = models::make_single_conv_model(16, 4);
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(6));
  sched::SchedulerConfig config;
  config.num_gpus = 6;
  const auto r = sched::make_scheduler("hios-lp")->schedule(pm.graph, *pm.cost, config);
  const auto run = execute_schedule(m, pm.graph, r.schedule, *pm.cost);
  EXPECT_EQ(run.outputs.size(), 1u);
  EXPECT_GT(run.latency_ms, 0.0);
}

TEST(Engine, RepeatedExecutionsStable) {
  // Exercise the channel/thread machinery repeatedly to shake out races
  // (the virtual clock must make every run identical).
  const ops::Model m = [] {
    ops::Model model("fan");
    const ops::OpId in = model.add_input("x", ops::TensorShape{1, 4, 8, 8});
    std::vector<ops::OpId> branches;
    for (int i = 0; i < 6; ++i) {
      branches.push_back(model.add_op(
          ops::Op(ops::OpKind::kConv2d, std::string("b").append(std::to_string(i)),
                  ops::Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}),
          {in}));
    }
    model.add_op(ops::Op(ops::OpKind::kConcat, "cat"), branches);
    return model;
  }();
  const cost::ProfiledModel pm = cost::profile_model(m, cost::make_a40_server(3));
  sched::SchedulerConfig config;
  config.num_gpus = 3;
  const auto r = sched::make_scheduler("hios-mr")->schedule(pm.graph, *pm.cost, config);
  double first = -1.0;
  for (int run_idx = 0; run_idx < 10; ++run_idx) {
    const auto run = execute_schedule(m, pm.graph, r.schedule, *pm.cost);
    if (first < 0) first = run.latency_ms;
    ASSERT_DOUBLE_EQ(run.latency_ms, first) << run_idx;
  }
}

}  // namespace
}  // namespace hios::runtime
