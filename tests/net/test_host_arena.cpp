// SoA host arena: mailbox FIFO properties, the per-cell buffers an MSS
// holds for a host, and the MobileHost view over the arena's columns.
#include <gtest/gtest.h>

#include "des/rng.hpp"
#include "net/host_arena.hpp"
#include "net/mobile_host.hpp"

namespace mobichk::net {
namespace {

// ---------------------------------------------------------------------------
// Mailbox
// ---------------------------------------------------------------------------

AppMessage make_msg(u64 id) {
  AppMessage m;
  m.id = id;
  return m;
}

TEST(Mailbox, FifoOrderAndSizes) {
  Mailbox box;
  EXPECT_TRUE(box.empty());
  for (u64 i = 1; i <= 5; ++i) box.push(make_msg(i));
  EXPECT_EQ(box.size(), 5u);
  for (u64 i = 1; i <= 5; ++i) EXPECT_EQ(box.pop().id, i);
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, RewindsAndReusesCapacityWhenDrained) {
  Mailbox box;
  // Steady-state cycles: after each full drain the head rewinds, so the
  // vector never grows past the high-water mark of one burst.
  for (int round = 0; round < 100; ++round) {
    for (u64 i = 0; i < 4; ++i) box.push(make_msg(i));
    for (u64 i = 0; i < 4; ++i) EXPECT_EQ(box.pop().id, i);
    EXPECT_TRUE(box.empty());
  }
}

TEST(Mailbox, InterleavedPushPopKeepsFifo) {
  Mailbox box;
  u64 next_in = 0, next_out = 0;
  des::RngStream rng(3, "mailbox-fuzz");
  for (int step = 0; step < 2000; ++step) {
    if (box.empty() || rng.uniform01() < 0.55) {
      box.push(make_msg(next_in++));
    } else {
      ASSERT_EQ(box.pop().id, next_out++);
    }
    ASSERT_EQ(box.size(), next_in - next_out);
  }
  while (!box.empty()) ASSERT_EQ(box.pop().id, next_out++);
}

TEST(Mailbox, DrainVisitsInOrderAndEmpties) {
  Mailbox box;
  for (u64 i = 0; i < 6; ++i) box.push(make_msg(i));
  ASSERT_EQ(box.pop().id, 0u);  // a consumed head must not be re-drained
  std::vector<u64> seen;
  box.drain([&seen](AppMessage&& m) { seen.push_back(m.id); });
  EXPECT_EQ(seen, (std::vector<u64>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(box.empty());
}

// ---------------------------------------------------------------------------
// MSS-held buffers
// ---------------------------------------------------------------------------

HostArena arena_for(u32 n_hosts) {
  HostArena a;
  a.init(n_hosts);
  return a;
}

TEST(HostArena, BuffersPerHostFifo) {
  HostArena a = arena_for(8);
  a.buffer_at(0, 1, make_msg(10));
  a.buffer_at(0, 1, make_msg(11));
  a.buffer_at(0, 2, make_msg(20));
  EXPECT_EQ(a.buffered_count(0, 1), 2u);
  EXPECT_EQ(a.buffered_count(0, 2), 1u);
  const auto drained = a.drain_buffered(0, 1);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].id, 10u);  // FIFO order preserved
  EXPECT_EQ(drained[1].id, 11u);
  EXPECT_EQ(a.buffered_count(0, 1), 0u);
  EXPECT_EQ(a.buffered_count(0, 2), 1u);  // other hosts untouched
}

TEST(HostArena, DrainEmptyIsEmpty) {
  HostArena a = arena_for(8);
  EXPECT_TRUE(a.drain_buffered(3, 7).empty());
  EXPECT_EQ(a.buffered_count(3, 7), 0u);
}

TEST(HostArena, RebufferingAfterDrainWorks) {
  HostArena a = arena_for(8);
  a.buffer_at(0, 5, make_msg(1));
  a.drain_buffered(0, 5);
  a.buffer_at(0, 5, make_msg(2));
  const auto drained = a.drain_buffered(0, 5);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].id, 2u);
}

TEST(HostArena, ViewsReadArenaState) {
  HostArena arena;
  arena.init(3);
  MobileHost view(&arena, 2);
  EXPECT_EQ(view.id(), 2u);
  EXPECT_TRUE(view.connected());
  arena.connected[2] = 0;
  arena.mss[2] = 7;
  arena.event_pos[2] = 42;
  arena.mailbox[2].push(make_msg(1));
  arena.buffer_at(7, 2, make_msg(2));
  EXPECT_FALSE(view.connected());
  EXPECT_EQ(view.mss(), 7u);
  EXPECT_EQ(view.event_pos(), 42u);
  EXPECT_EQ(view.mailbox_size(), 1u);
  EXPECT_EQ(view.buffered_at(7), 1u);
  EXPECT_EQ(view.buffered_at(6), 0u);
}

}  // namespace
}  // namespace mobichk::net
