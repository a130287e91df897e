#include "net/message.hpp"

#include <gtest/gtest.h>

namespace mobichk::net {
namespace {

TEST(Piggyback, EmptyHasZeroWireBytes) {
  const Piggyback pb;
  EXPECT_EQ(pb.wire_bytes(), 0u);
}

TEST(Piggyback, SequenceNumberCostsEightBytes) {
  Piggyback pb;
  pb.sn = 42;
  pb.has_sn = true;
  EXPECT_EQ(pb.wire_bytes(), sizeof(u64));
}

TEST(Piggyback, SnWithoutFlagIsFree) {
  // An sn value left over in the struct does not ride the wire unless
  // the protocol claims it.
  Piggyback pb;
  pb.sn = 42;
  EXPECT_EQ(pb.wire_bytes(), 0u);
}

TEST(Piggyback, VarintBytesMatchesLeb128Widths) {
  EXPECT_EQ(varint_bytes(0), 1u);
  EXPECT_EQ(varint_bytes(127), 1u);
  EXPECT_EQ(varint_bytes(128), 2u);
  EXPECT_EQ(varint_bytes(16'383), 2u);
  EXPECT_EQ(varint_bytes(16'384), 3u);
  EXPECT_EQ(varint_bytes(~0ull), 10u);
}

TEST(Piggyback, DeltaEncodedBytesArePinned) {
  // Regression pin for the sparse layout: seq + count + per-entry
  // (gap-coded idx, ckpt, loc), all varints. Two small entries with
  // single-byte fields cost exactly 1 + 1 + 3 + 3 = 8 bytes.
  Piggyback pb;
  pb.has_delta = true;
  pb.dense_rank = 2000;  // n = 1000 hosts: dense cap far away
  pb.delta_seq = 3;
  pb.deltas = {{5, 2, 1}, {9, 1, 0}};
  EXPECT_EQ(pb.delta_encoded_bytes(), 8u);
  EXPECT_EQ(pb.wire_bytes(), 8u);
  // The dense-equivalent counter tracks the paper-literal 2n u32 cost.
  EXPECT_EQ(pb.dense_bytes(), 2000u * sizeof(u32));
}

TEST(Piggyback, DeltaGapCodingChargesIndexGapsNotAbsolutes) {
  // Indices 1000 and 1001: absolute coding would need 2 bytes each, but
  // the second entry's gap of 1 costs a single byte.
  Piggyback pb;
  pb.has_delta = true;
  pb.dense_rank = 4000;
  pb.deltas = {{1000, 1, 1}, {1001, 1, 1}};
  // seq(1) + count(1) + [gap 1000 (2) + 1 + 1] + [gap 1 (1) + 1 + 1] = 9.
  EXPECT_EQ(pb.delta_encoded_bytes(), 9u);
}

TEST(Piggyback, DeltaEncodingIsCappedAtDenseCost) {
  // First contact at tiny n: the delta list describes every host and the
  // varint overhead would exceed the dense layout. The modelled encoder
  // falls back, so encoded <= dense holds unconditionally.
  Piggyback pb;
  pb.has_delta = true;
  pb.dense_rank = 2;  // n = 1: dense cost is 8 bytes
  pb.delta_seq = 1'000'000;
  pb.deltas = {{0, 300, 400}};
  EXPECT_EQ(pb.delta_encoded_bytes(), 2u * sizeof(u32));
  EXPECT_EQ(pb.wire_bytes(), pb.dense_bytes());
}

TEST(AppMessage, WireBytesIsPayloadPlusPiggyback) {
  AppMessage msg;
  msg.payload_bytes = 256;
  Piggyback pb;
  pb.has_sn = true;
  msg.pb_bytes = pb.wire_bytes();
  EXPECT_EQ(msg.wire_bytes(), 256 + sizeof(u64));
}

TEST(AppMessage, StaysWithinItsSizeBudget) {
  // Every in-flight message parks one Piggyback per protocol slot and
  // sits in event payloads and mailboxes as an AppMessage, so both sizes
  // show in peak RSS. 48 B is a Piggyback with one delta list; 88 B is a
  // message carrying slot 0's `sn` and wire sizes, not its piggyback.
  if constexpr (sizeof(void*) == 8) {
    EXPECT_LE(sizeof(Piggyback), 48u);
    EXPECT_LE(sizeof(AppMessage), 88u);
  }
}

TEST(AppMessage, DefaultsAreEmpty) {
  const AppMessage msg;
  EXPECT_EQ(msg.id, 0u);
  EXPECT_EQ(msg.send_pos, 0u);
  EXPECT_EQ(msg.wire_bytes(), 0u);
}

}  // namespace
}  // namespace mobichk::net
