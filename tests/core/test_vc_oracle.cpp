#include "vc_oracle.hpp"

#include <gtest/gtest.h>

namespace mobichk::core {
namespace {

GlobalCheckpoint cut_at(std::vector<u64> pos) {
  GlobalCheckpoint cut;
  cut.members.assign(pos.size(), nullptr);
  cut.pos = std::move(pos);
  return cut;
}

TEST(VcOracle, NoMessagesMeansLocalKnowledgeOnly) {
  MessageLog messages;
  VcOracle oracle(3, messages);
  const auto vc = oracle.vc_at(1, 7);
  EXPECT_EQ(vc, (std::vector<u64>{0, 7, 0}));
  EXPECT_TRUE(oracle.consistent(cut_at({0, 0, 0})));
  EXPECT_TRUE(oracle.consistent(cut_at({5, 9, 100})));
}

TEST(VcOracle, DirectMessagePropagatesKnowledge) {
  MessageLog messages;
  messages.note_delivery({1, 0, 1, 5, 3, 0});
  VcOracle oracle(2, messages);
  EXPECT_EQ(oracle.vc_at(1, 2), (std::vector<u64>{0, 2}));  // before the receive
  EXPECT_EQ(oracle.vc_at(1, 3), (std::vector<u64>{5, 3}));  // after it
  EXPECT_TRUE(oracle.happened_before(0, 5, 1, 3));
  EXPECT_FALSE(oracle.happened_before(0, 6, 1, 3));
  EXPECT_FALSE(oracle.happened_before(1, 3, 0, 5));
}

TEST(VcOracle, TransitiveKnowledgeThroughAChain) {
  MessageLog messages;
  messages.note_delivery({1, 0, 1, 4, 2, 0});  // 1 learns of 0@4
  messages.note_delivery({2, 1, 2, 6, 3, 0});  // 2 learns of 1@6 and of 0@4 transitively
  VcOracle oracle(3, messages);
  const auto vc = oracle.vc_at(2, 3);
  EXPECT_EQ(vc[0], 4u);
  EXPECT_EQ(vc[1], 6u);
  EXPECT_EQ(vc[2], 3u);
  EXPECT_TRUE(oracle.happened_before(0, 4, 2, 3));
}

TEST(VcOracle, SendBeforeLearningDoesNotLeak) {
  // Host 1 sends m2 at position 1, *before* receiving m1 at position 5:
  // m2 must not carry knowledge of host 0.
  MessageLog messages;
  messages.note_delivery({1, 0, 1, 9, 5, 0});
  messages.note_delivery({2, 1, 2, 1, 4, 0});
  VcOracle oracle(3, messages);
  EXPECT_EQ(oracle.vc_at(2, 4)[0], 0u);
  EXPECT_EQ(oracle.vc_at(2, 4)[1], 1u);
}

TEST(VcOracle, DetectsInconsistentCut) {
  MessageLog messages;
  messages.note_delivery({1, 0, 1, 10, 4, 0});
  VcOracle oracle(2, messages);
  // Cut includes the receive (pos 4) but not the send (pos 10): orphan.
  EXPECT_FALSE(oracle.consistent(cut_at({5, 4})));
  // Cut includes both: fine. Cut includes neither: fine.
  EXPECT_TRUE(oracle.consistent(cut_at({10, 4})));
  EXPECT_TRUE(oracle.consistent(cut_at({5, 3})));
}

TEST(VcOracle, OutOfOrderDeliveriesReplayCorrectly) {
  // Two messages 0 -> 1 received out of send order (possible with
  // chasing): the replay must still terminate and merge correctly.
  MessageLog messages;
  messages.note_delivery({2, 0, 1, 6, 3, 0});  // the later send arrives first
  messages.note_delivery({1, 0, 1, 2, 5, 0});
  VcOracle oracle(2, messages);
  EXPECT_EQ(oracle.vc_at(1, 3)[0], 6u);
  EXPECT_EQ(oracle.vc_at(1, 5)[0], 6u);  // max survives
}

TEST(VcOracle, CutSizeMismatchThrows) {
  MessageLog messages;
  VcOracle oracle(3, messages);
  EXPECT_THROW(oracle.consistent(cut_at({1, 2})), std::invalid_argument);
}

}  // namespace
}  // namespace mobichk::core
