#include "net/message.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "des/rng.hpp"

namespace mobichk::net {
namespace {

/// A TP-shaped piggyback whose delta the writer encodes from `entries`.
Piggyback with_delta(const std::vector<DepEntry>& entries, u32 dense_rank, u32 seq = 0) {
  std::vector<u8> buf(entries.size() * kDepEntryMaxBytes);
  DepWriter w(buf.data());
  for (const DepEntry& e : entries) w.put(e.host, e.ckpt, e.loc);
  Piggyback pb;
  pb.has_delta = true;
  pb.dense_rank = dense_rank;
  pb.delta_seq = seq;
  pb.delta.assign(w.data(), w.data() + w.size());
  pb.delta_count = w.count();
  return pb;
}

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
  // single-byte fields cost exactly 1 + 1 + 3 + 3 = 8 bytes, and the
  // stored bytes are the charged ones.
  const Piggyback pb = with_delta({{5, 2, 1}, {9, 1, 0}}, 2000, 3);  // n = 1000: cap far away
  EXPECT_EQ(pb.delta, (std::vector<u8>{5, 2, 1, 4, 1, 0}));
  EXPECT_EQ(pb.delta_encoded_bytes(), 8u);
  EXPECT_EQ(pb.wire_bytes(), 8u);
  // The dense-equivalent counter tracks the paper-literal 2n u32 cost.
  EXPECT_EQ(pb.dense_bytes(), 2000u * sizeof(u32));
}

TEST(Piggyback, DeltaGapCodingChargesIndexGapsNotAbsolutes) {
  // Indices 1000 and 1001: absolute coding would need 2 bytes each, but
  // the second entry's gap of 1 costs a single byte.
  const Piggyback pb = with_delta({{1000, 1, 1}, {1001, 1, 1}}, 4000);
  // seq(1) + count(1) + [gap 1000 (2) + 1 + 1] + [gap 1 (1) + 1 + 1] = 9.
  EXPECT_EQ(pb.delta_encoded_bytes(), 9u);
}

TEST(Piggyback, DeltaEncodingIsCappedAtDenseCost) {
  // First contact at tiny n: the delta list describes every host and the
  // varint overhead would exceed the dense layout. The modelled encoder
  // falls back, so encoded <= dense holds unconditionally.
  const Piggyback pb = with_delta({{0, 300, 400}}, 2, 1'000'000);  // n = 1: dense is 8 bytes
  EXPECT_EQ(pb.delta_encoded_bytes(), 2u * sizeof(u32));
  EXPECT_EQ(pb.wire_bytes(), pb.dense_bytes());
}

TEST(Piggyback, DepCodecRoundTripsAndPricesEveryEntry) {
  // Random strictly ascending lists reaching 3- and 4-byte gaps (host ids
  // up to 2^21 + 1), ckpt values of 0 and >= 2^14, and loc >= 128: the
  // stored length is the per-entry varint sum the wire is charged, the
  // reader returns the list, and the dense cap still binds.
  des::RngStream rng(19, "dep-codec");
  constexpr u32 kMaxHost = (1u << 21) + 1;
  for (int round = 0; round < 200; ++round) {
    std::vector<DepEntry> list;
    const u64 stride = 1 + rng.next_u64() % (round % 2 == 0 ? 64 : 200'000);
    const u64 first = round % 5 == 0 ? rng.next_u64() % (kMaxHost + 1) : rng.next_u64() % stride;
    for (u64 host = first; host <= kMaxHost && list.size() < 300;
         host += 1 + rng.next_u64() % stride) {
      DepEntry e;
      e.host = static_cast<u32>(host);
      switch (rng.next_u64() % 3) {
        case 0: e.ckpt = 0; break;
        case 1: e.ckpt = static_cast<u32>(rng.next_u64() % 128); break;
        default: e.ckpt = static_cast<u32>((1u << 14) + rng.next_u64() % (1u << 24));
      }
      e.loc = static_cast<u32>(rng.next_u64() % 2 == 0 ? rng.next_u64() % 128
                                                       : 128 + rng.next_u64() % 100'000);
      list.push_back(e);
    }
    if (list.back().host < kMaxHost && rng.next_u64() % 4 == 0) {
      list.push_back({kMaxHost, 1u << 20, 1u << 9});
    }
    usize want = 0;
    u32 prev = 0;
    for (const DepEntry& e : list) {
      want += varint_bytes(e.host - prev) + varint_bytes(e.ckpt) + varint_bytes(e.loc);
      prev = e.host;
    }
    const u32 seq = static_cast<u32>(rng.next_u64() % 300);
    const Piggyback pb = with_delta(list, 2 * (kMaxHost + 2), seq);
    ASSERT_EQ(pb.delta.size(), want) << "round " << round;
    const usize uncapped = varint_bytes(seq) + varint_bytes(list.size()) + want;
    EXPECT_EQ(pb.delta_encoded_bytes(), uncapped);
    std::vector<DepEntry> back;
    for (DepReader in = pb.delta_reader(); !in.done();) back.push_back(in.next());
    ASSERT_EQ(back.size(), list.size()) << "round " << round;
    for (usize i = 0; i < list.size(); ++i) {
      EXPECT_EQ(back[i].host, list[i].host) << "round " << round << " entry " << i;
      EXPECT_EQ(back[i].ckpt, list[i].ckpt) << "round " << round << " entry " << i;
      EXPECT_EQ(back[i].loc, list[i].loc) << "round " << round << " entry " << i;
    }
    EXPECT_EQ(encode_deps(list), pb.delta);
    // A rank whose dense cost is below the encoding caps it.
    const auto small_rank = static_cast<u32>((uncapped - 1) / sizeof(u32));
    const Piggyback capped = with_delta(list, small_rank, seq);
    EXPECT_EQ(capped.delta_encoded_bytes(), static_cast<usize>(small_rank) * sizeof(u32));
    EXPECT_EQ(capped.wire_bytes(), capped.dense_bytes());
  }
}

TEST(AppMessage, WireBytesIsPayloadPlusPiggyback) {
  AppMessage msg;
  msg.payload_bytes = 256;
  Piggyback pb;
  pb.has_sn = true;
  msg.pbs.assign(1, pb);
  EXPECT_EQ(msg.wire_bytes(), 256 + sizeof(u64));
}

TEST(AppMessage, StaysWithinItsSizeBudget) {
  // Every in-flight message parks one Piggyback per protocol slot and
  // sits in event payloads and mailboxes as an AppMessage, so both sizes
  // show in peak RSS. 48 B is a Piggyback with one delta list; 64 B is a
  // message that reads slot 0's `sn` and wire sizes off `pbs`.
  if constexpr (sizeof(void*) == 8) {
    EXPECT_LE(sizeof(Piggyback), 48u);
    EXPECT_LE(sizeof(AppMessage), 64u);
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
