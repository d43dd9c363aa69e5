// Tests for the declarative process-network layer (automatic placement +
// channel binding) and its use by the autofocus pipeline.
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "epiphany/graph.hpp"

namespace esarp::ep {
namespace {

Task noop(CoreCtx& ctx) { co_await ctx.idle(1); }

TEST(ProcessNetwork, PlacesConnectedNodesAdjacently) {
  Machine m;
  ProcessNetwork net(m);
  auto& c01 = net.channel<int>("a->b");
  auto& c12 = net.channel<int>("b->c");
  const int a = net.node("a", noop);
  const int b = net.node("b", noop);
  const int c = net.node("c", noop);
  net.connect(a, b, c01);
  net.connect(b, c, c12);
  const auto& pl = net.place();
  EXPECT_EQ(hop_distance(pl[a], pl[b]), 1);
  EXPECT_EQ(hop_distance(pl[b], pl[c]), 1);
  EXPECT_DOUBLE_EQ(net.weighted_hops(), 2.0);
}

TEST(ProcessNetwork, HeavyEdgesGetShorterThanLightOnes) {
  // A star: hub with 5 spokes, one of them 100x heavier. Only 4 cores
  // neighbour the hub, so at least one spoke is 2 hops away — and it must
  // not be the heavy one.
  Machine m;
  ProcessNetwork net(m);
  const int hub = net.node("hub", noop);
  int heavy = -1;
  std::vector<int> spokes;
  for (int i = 0; i < 5; ++i) {
    const int s = net.node(std::string("spoke") + std::to_string(i), noop);
    auto& ch = net.channel<int>(std::string("e") + std::to_string(i));
    const double w = i == 2 ? 100.0 : 1.0;
    if (i == 2) heavy = s;
    net.connect(hub, s, ch, w);
    spokes.push_back(s);
  }
  const auto& pl = net.place();
  EXPECT_EQ(hop_distance(pl[hub], pl[heavy]), 1);
}

TEST(ProcessNetwork, PinningIsRespected) {
  Machine m;
  ProcessNetwork net(m);
  const int a = net.node("a", noop);
  const int b = net.node("b", noop);
  auto& ch = net.channel<int>("ab");
  net.connect(a, b, ch);
  net.pin(a, {3, 3});
  const auto& pl = net.place();
  EXPECT_EQ(pl[a].row, 3);
  EXPECT_EQ(pl[a].col, 3);
  EXPECT_EQ(hop_distance(pl[a], pl[b]), 1); // b follows its neighbour
}

TEST(ProcessNetwork, DistinctCoresForAllNodes) {
  Machine m;
  ProcessNetwork net(m);
  for (int i = 0; i < 16; ++i)
    net.node(std::string("n") + std::to_string(i), noop);
  const auto& pl = net.place();
  for (std::size_t i = 0; i < pl.size(); ++i)
    for (std::size_t j = i + 1; j < pl.size(); ++j)
      EXPECT_FALSE(pl[i] == pl[j]);
}

TEST(ProcessNetwork, RejectsTooManyNodes) {
  Machine m;
  ProcessNetwork net(m);
  for (int i = 0; i < 16; ++i)
    net.node(std::string("n") + std::to_string(i), noop);
  EXPECT_THROW(net.node("overflow", noop), ContractViolation);
}

TEST(ProcessNetwork, RejectsDoublePin) {
  Machine m;
  ProcessNetwork net(m);
  const int a = net.node("a", noop);
  const int b = net.node("b", noop);
  net.pin(a, {0, 0});
  net.pin(b, {0, 0});
  EXPECT_THROW(net.place(), ContractViolation);
}

TEST(ProcessNetwork, ChannelUnusableBeforePlacement) {
  Machine m;
  ProcessNetwork net(m);
  auto& ch = net.channel<int>("c");
  EXPECT_FALSE(ch.bound());
}

TEST(ProcessNetwork, RunsAPipelineEndToEnd) {
  Machine m;
  ProcessNetwork net(m);
  auto& ch1 = net.channel<int>("gen->dbl", 4);
  auto& ch2 = net.channel<int>("dbl->sum", 4);
  int total = 0;

  const int gen = net.node("gen", [&ch1](CoreCtx& ctx) -> Task {
    for (int i = 1; i <= 10; ++i) {
      co_await ctx.compute({.ialu = 4});
      co_await ch1.send(ctx, i);
    }
  });
  const int dbl = net.node("dbl", [&ch1, &ch2](CoreCtx& ctx) -> Task {
    for (int i = 0; i < 10; ++i) {
      const int v = co_await ch1.recv(ctx);
      co_await ctx.compute({.ialu = 1});
      co_await ch2.send(ctx, 2 * v);
    }
  });
  const int sum = net.node("sum", [&ch2, &total](CoreCtx& ctx) -> Task {
    for (int i = 0; i < 10; ++i) total += co_await ch2.recv(ctx);
  });
  net.connect(gen, dbl, ch1);
  net.connect(dbl, sum, ch2);

  const Cycles end = net.run();
  EXPECT_GT(end, 0u);
  EXPECT_EQ(total, 110); // 2 * (1 + ... + 10)
  EXPECT_EQ(ch1.stats().messages, 10u);
  EXPECT_FALSE(net.describe().empty());
}

TEST(ProcessNetwork, ChannelSingleConsumerEnforced) {
  Machine m;
  ProcessNetwork net(m);
  auto& ch = net.channel<int>("c");
  const int a = net.node("a", noop);
  const int b = net.node("b", noop);
  const int c = net.node("c", noop);
  net.connect(a, b, ch);
  EXPECT_THROW(net.connect(b, c, ch), ContractViolation);
}

} // namespace
} // namespace esarp::ep
