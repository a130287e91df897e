// Differential suite: TpProtocol's delta-encoded piggybacks against the
// paper-literal DenseTpOracle, run side by side as paired observers over
// the same event stream.
//
// The oracle is the specification (full CKPT[] and LOC[] vectors on every
// message); TpProtocol is the city-scale implementation under test. Since
// the piggyback content never feeds back into the trace (the phase rule
// reads only phase bits), both see identical upcalls, so at every point of
// every scenario TpProtocol's decoded view must equal the oracle's — and
// its encoded wire bytes must never exceed the dense cost. Scenarios cover
// direct exchanges, fan-in/fan-out, and the mobility interleavings
// (handoff mid-flight, disconnect buffering, crash/restore) where per-pair
// FIFO is most at risk; full-run differentials compare views and
// checkpoint counts on all three event-queue implementations and through
// chase-forwarded deliveries on a contended channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/harness.hpp"
#include "core/protocols/tp.hpp"
#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"
#include "sim/config.hpp"
#include "sim/mobility.hpp"
#include "sim/workload.hpp"
#include "dense_tp_oracle.hpp"

namespace mobichk::core {
namespace {

/// The entries `pb`'s delta carries, decoded.
std::vector<net::DepEntry> entries_of(const net::Piggyback& pb) {
  std::vector<net::DepEntry> out;
  for (net::DepReader in = pb.delta_reader(); !in.done();) out.push_back(in.next());
  return out;
}

/// A TP-shaped piggyback carrying `entries` (strictly ascending by host).
net::Piggyback piggyback_of(const std::vector<net::DepEntry>& entries, u32 n_hosts) {
  net::Piggyback pb;
  pb.has_delta = true;
  pb.dense_rank = 2 * n_hosts;
  pb.delta = net::encode_deps(entries);
  pb.delta_count = static_cast<u32>(entries.size());
  return pb;
}

/// Five hosts over three MSSs; slot 0 = dense oracle, slot 1 = TP.
class SparseDiffFixture : public ::testing::Test {
 protected:
  static constexpr u32 kHosts = 5;

  SparseDiffFixture() : net_(sim_, config(), 1), harness_(net_) {
    dense_slot_ = harness_.add_protocol(std::make_unique<DenseTpOracle>());
    sparse_slot_ = harness_.add_protocol(std::make_unique<TpProtocol>());
    net_.start({0, 1, 2, 0, 1});
  }

  static net::NetworkConfig config() {
    net::NetworkConfig cfg;
    cfg.n_hosts = kHosts;
    cfg.n_mss = 3;
    return cfg;
  }

  DenseTpOracle& dense() {
    return static_cast<DenseTpOracle&>(harness_.protocol(dense_slot_));
  }
  TpProtocol& sparse() { return static_cast<TpProtocol&>(harness_.protocol(sparse_slot_)); }

  /// The differential invariant: for every host, the sparse instance's
  /// decoded CKPT[] and LOC[] views equal the dense oracle's.
  void expect_views_equal(const char* where) {
    for (net::HostId h = 0; h < kHosts; ++h) {
      EXPECT_EQ(sparse().requirement_vector(h), dense().requirement_vector(h))
          << where << ": CKPT[] diverged at host " << h;
      EXPECT_EQ(sparse().location_vector(h), dense().location_vector(h))
          << where << ": LOC[] diverged at host " << h;
    }
    // Same upcalls => same checkpoint decisions, interval by interval.
    EXPECT_EQ(harness_.log(sparse_slot_).total(), harness_.log(dense_slot_).total()) << where;
    EXPECT_EQ(harness_.log(sparse_slot_).forced(), harness_.log(dense_slot_).forced()) << where;
  }

  /// Encoded-size invariant: what TP would put on the wire right now
  /// never exceeds the dense encoding, on any (src, dst), and its
  /// dense-equivalent cost is the oracle's.
  void expect_encoded_bounded() {
    for (net::HostId src = 0; src < kHosts; ++src) {
      if (!net_.host(src).connected()) continue;
      for (net::HostId dst = 0; dst < kHosts; ++dst) {
        if (dst == src) continue;
        net::Piggyback dense_pb = dense().make_piggyback(net_.host(src), dst);
        net::Piggyback sparse_pb = sparse().make_piggyback(net_.host(src), dst);
        EXPECT_LE(sparse_pb.wire_bytes(), sparse_pb.dense_bytes())
            << "pair " << src << "->" << dst;
        EXPECT_EQ(sparse_pb.dense_bytes(), dense_pb.dense_bytes());
      }
    }
  }

  /// Sends src -> dst, runs the network to quiescence, consumes at dst,
  /// and checks the differential invariant.
  void transfer(net::HostId src, net::HostId dst) {
    net_.send_app_message(src, dst, 64);
    sim_.run();
    ASSERT_TRUE(net_.consume_one(dst));
    expect_views_equal("after transfer");
  }

  des::Simulator sim_;
  net::Network net_;
  ProtocolHarness harness_;
  usize dense_slot_ = 0;
  usize sparse_slot_ = 0;
};

TEST_F(SparseDiffFixture, FreshProtocolsAgree) {
  expect_views_equal("initial");
  expect_encoded_bounded();
}

TEST_F(SparseDiffFixture, ChainedTransfersPropagateIdentically) {
  // 0 -> 1 -> 2 -> 3 -> 4: transitive dependency growth, checked at
  // every delivery.
  transfer(0, 1);
  transfer(1, 2);
  transfer(2, 3);
  transfer(3, 4);
  expect_encoded_bounded();
  EXPECT_EQ(sparse().delta_reorders(), 0u);
}

TEST_F(SparseDiffFixture, FanInFanOutAgree) {
  // Everyone sends to 0 (fan-in), then 0 sends to everyone (fan-out):
  // the hub's vectors touch every host.
  for (net::HostId h = 1; h < kHosts; ++h) transfer(h, 0);
  for (net::HostId h = 1; h < kHosts; ++h) transfer(0, h);
  expect_encoded_bounded();
  EXPECT_EQ(sparse().delta_reorders(), 0u);
}

TEST_F(SparseDiffFixture, RepeatedPairReusesDeltas) {
  // Same pair over and over: after the first exchange the sparse deltas
  // carry only the sender's own movement, and the views keep agreeing.
  for (int i = 0; i < 6; ++i) transfer(0, 1);
  net::Piggyback pb = sparse().make_piggyback(net_.host(0), 1);
  EXPECT_EQ(pb.delta_count, 1u);  // own entry only: nothing else changed
  expect_encoded_bounded();
}

TEST_F(SparseDiffFixture, HandoffInterleavingAgrees) {
  // LOC[] changes ride the deltas: move hosts between transfers and mid
  // conversation; the views must track the moves identically.
  transfer(0, 1);
  net_.switch_cell(0, 2);  // basic checkpoint + LOC change at the oracle
  expect_views_equal("after handoff");
  transfer(0, 2);
  net_.switch_cell(2, 1);
  transfer(2, 0);
  expect_encoded_bounded();
  EXPECT_EQ(sparse().delta_reorders(), 0u);
}

TEST_F(SparseDiffFixture, HandoffMidFlightChasesAndAgrees) {
  // The destination moves while the message is on the wire: the chase
  // forward re-routes it, delivery happens in the new cell, and both
  // encodings decode the same views from it.
  net_.send_app_message(0, 1, 64);
  sim_.run_until(sim_.now() + 0.015);  // uplink done, wired leg pending
  net_.switch_cell(1, 2);
  sim_.run();
  ASSERT_TRUE(net_.consume_one(1));
  EXPECT_GT(net_.stats().chase_forwards, 0u);
  expect_views_equal("after chased delivery");
  expect_encoded_bounded();
}

TEST_F(SparseDiffFixture, DisconnectBufferingAgrees) {
  // Message sent to a disconnected host waits at its last MSS; the
  // piggyback decoded after reconnection must still match the oracle.
  net_.send_app_message(1, 0, 64);  // 1 enters SEND phase; in flight to 0
  net_.disconnect(0);               // basic checkpoints at both instances
  sim_.run();                       // message buffered at 0's last MSS
  EXPECT_EQ(net_.host(0).mailbox_size(), 0u);
  expect_views_equal("while buffered");
  net_.reconnect(0, 2);
  sim_.run();
  ASSERT_TRUE(net_.consume_one(0));
  expect_views_equal("after buffered delivery");
  expect_encoded_bounded();
  EXPECT_EQ(sparse().delta_reorders(), 0u);
}

TEST_F(SparseDiffFixture, CrashRestoreInterleavingAgrees) {
  // A crash re-buffers the victim's mailbox at its MSS; restore drains
  // it. The piggybacks decoded across the outage must agree.
  transfer(0, 1);
  net_.send_app_message(0, 1, 64);
  sim_.run();  // delivered into 1's mailbox but not consumed
  net_.crash(1);
  expect_views_equal("after crash");
  net_.restore(1, 1);
  sim_.run();
  ASSERT_TRUE(net_.consume_one(1));
  expect_views_equal("after restored delivery");
  expect_encoded_bounded();
}

TEST_F(SparseDiffFixture, CheckpointRecordsCarryEqualDependencies) {
  // TP records only the entries depended on, the oracle all n of them;
  // the accessor views must be indistinguishable.
  transfer(0, 1);
  transfer(1, 2);
  net_.switch_cell(2, 0);  // basic checkpoint snapshots the deps
  const CheckpointRecord& dense_rec = harness_.log(dense_slot_).of(2).back();
  const CheckpointRecord& sparse_rec = harness_.log(sparse_slot_).of(2).back();
  ASSERT_TRUE(dense_rec.has_deps());
  ASSERT_TRUE(sparse_rec.has_deps());
  ASSERT_EQ(sparse_rec.deps_rank(), dense_rec.deps_rank());
  for (u32 j = 0; j < dense_rec.deps_rank(); ++j) {
    EXPECT_EQ(sparse_rec.dep_ckpt_at(j), dense_rec.dep_ckpt_at(j)) << "dep " << j;
    EXPECT_EQ(sparse_rec.dep_loc_at(j), dense_rec.dep_loc_at(j)) << "loc " << j;
  }
}

TEST_F(SparseDiffFixture, SeededScriptedExchangeAgreesEverywhere) {
  // A deterministic pseudo-random script of transfers, handoffs,
  // disconnects and reconnects; the differential invariant is checked
  // after every delivery (inside transfer()).
  u64 x = 0x9e3779b97f4a7c15ULL;  // splitmix-style scramble, fixed seed
  auto next = [&x](u64 mod) {
    x += 0x9e3779b97f4a7c15ULL;
    u64 z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) % mod;
  };
  std::vector<bool> down(kHosts, false);
  for (int step = 0; step < 120; ++step) {
    const auto op = next(8);
    const auto a = static_cast<net::HostId>(next(kHosts));
    if (op < 5) {
      auto b = static_cast<net::HostId>(next(kHosts));
      if (b == a) b = (b + 1) % kHosts;
      if (!down[a] && !down[b]) transfer(a, b);
    } else if (op == 5) {
      if (!down[a]) {
        const auto target = static_cast<net::MssId>(next(3));
        if (target != net_.host(a).mss()) net_.switch_cell(a, target);
      }
    } else if (op == 6) {
      if (!down[a]) {
        net_.disconnect(a);
        down[a] = true;
      }
    } else {
      if (down[a]) {
        net_.reconnect(a, static_cast<net::MssId>(next(3)));
        sim_.run();  // drain buffered deliveries
        while (net_.consume_one(a)) {
        }
        down[a] = false;
      }
    }
  }
  expect_views_equal("after script");
  expect_encoded_bounded();
  // Every scenario here preserves per-pair FIFO, so the deltas were
  // exact: no reorder was ever observed and equality (not just the
  // monotone sparse <= dense bound) held throughout.
  EXPECT_EQ(sparse().delta_reorders(), 0u);
}

// ---------------------------------------------------------------------------
// Merge differential: hand-built deltas into receivers that already hold
// many entries, against the dense oracle and a per-entry reference model
// ---------------------------------------------------------------------------

/// The sparse rule applied one shipped entry at a time, over std::maps: a
/// receive raises the held entry when the shipped ckpt is above it (a host
/// new to the receiver starts as the zero entry, the receiver's own id is
/// skipped), and every raise takes the host's next version; a send ships
/// the entries whose version is above the pair's cursor. Versions here are
/// assigned in delta order, so agreement with TpProtocol shows that the
/// order in which one receive hands out versions cannot be observed.
class TpReferenceModel {
 public:
  struct Ref {
    u32 ckpt = 0;
    u32 loc = 0;
    u64 ver = 0;
  };

  void receive(net::HostId me, const std::vector<net::DepEntry>& deltas) {
    for (const net::DepEntry& d : deltas) {
      if (d.host == me) continue;
      Ref& e = entries_[me][d.host];
      if (d.ckpt > e.ckpt) {
        e.ckpt = d.ckpt;
        e.loc = d.loc;
        e.ver = ++version_[me];
      }
    }
  }

  /// What a send from `me` to `dst` ships, the sender's own entry aside.
  std::vector<net::DepEntry> send(net::HostId me, net::HostId dst) {
    u64& last = last_ver_[{me, dst}];
    std::vector<net::DepEntry> out;
    for (const auto& [idx, e] : entries_[me]) {
      if (e.ver > last) out.push_back({idx, e.ckpt, e.loc});
    }
    last = version_[me];
    return out;
  }

  /// CKPT[] and LOC[] of `me` with its own slots zeroed.
  std::pair<std::vector<u32>, std::vector<u32>> views(net::HostId me, u32 n) const {
    std::vector<u32> req(n, 0);
    std::vector<u32> loc(n, 0);
    if (const auto it = entries_.find(me); it != entries_.end()) {
      for (const auto& [idx, e] : it->second) {
        req[idx] = e.ckpt;
        loc[idx] = e.loc;
      }
    }
    return {req, loc};
  }

  /// The entry `me` holds for `idx`, or nullptr.
  const Ref* held(net::HostId me, u32 idx) const {
    const auto it = entries_.find(me);
    if (it == entries_.end()) return nullptr;
    const auto e = it->second.find(idx);
    return e == it->second.end() ? nullptr : &e->second;
  }

 private:
  std::map<net::HostId, std::map<u32, Ref>> entries_;
  std::map<net::HostId, u64> version_;
  std::map<std::pair<net::HostId, net::HostId>, u64> last_ver_;
};

/// TP and the dense oracle over `n` hosts on four MSSs; slot 0 = dense
/// oracle, slot 1 = TP. The protocols receive hand-built piggybacks
/// directly, so a delta can carry any mix of held and new hosts and any
/// values.
class HandBuiltDeltaFixture : public ::testing::Test {
 protected:
  static constexpr u32 kMss = 4;

  explicit HandBuiltDeltaFixture(u32 n_hosts)
      : n_hosts_(n_hosts), net_(sim_, config(n_hosts), 1), harness_(net_) {
    dense_slot_ = harness_.add_protocol(std::make_unique<DenseTpOracle>());
    sparse_slot_ = harness_.add_protocol(std::make_unique<TpProtocol>());
    std::vector<net::MssId> placement(n_hosts);
    for (u32 h = 0; h < n_hosts; ++h) placement[h] = h % kMss;
    net_.start(placement);
  }

  static net::NetworkConfig config(u32 n_hosts) {
    net::NetworkConfig cfg;
    cfg.n_hosts = n_hosts;
    cfg.n_mss = kMss;
    return cfg;
  }

  DenseTpOracle& dense() {
    return static_cast<DenseTpOracle&>(harness_.protocol(dense_slot_));
  }
  TpProtocol& sparse() { return static_cast<TpProtocol&>(harness_.protocol(sparse_slot_)); }

  /// Delivers the same control information to `dst` in both encodings,
  /// then checks their views and checkpoint counts agree. The oracle gets
  /// all n entries, zero where the delta has none.
  void deliver(net::HostId src, net::HostId dst, const std::vector<net::DepEntry>& deltas) {
    net::AppMessage msg;
    msg.id = ++next_id_;
    msg.src = src;
    msg.dst = dst;
    std::vector<net::DepEntry> all(n_hosts_);
    for (u32 idx = 0; idx < n_hosts_; ++idx) all[idx].host = idx;
    for (const net::DepEntry& d : deltas) all[d.host] = d;
    const net::Piggyback dense_pb = piggyback_of(all, n_hosts_);
    net::Piggyback sparse_pb = piggyback_of(deltas, n_hosts_);
    sparse_pb.delta_seq = seq_[{src, dst}]++;
    dense().handle_receive(net_.host(dst), msg, dense_pb);
    sparse().handle_receive(net_.host(dst), msg, sparse_pb);

    EXPECT_EQ(sparse().requirement_vector(dst), dense().requirement_vector(dst))
        << "CKPT[] diverged at host " << dst << " after message " << msg.id;
    EXPECT_EQ(sparse().location_vector(dst), dense().location_vector(dst))
        << "LOC[] diverged at host " << dst << " after message " << msg.id;
    EXPECT_EQ(harness_.log(sparse_slot_).total(), harness_.log(dense_slot_).total());
    EXPECT_EQ(harness_.log(sparse_slot_).forced(), harness_.log(dense_slot_).forced());
  }

  const u32 n_hosts_;
  des::Simulator sim_;
  net::Network net_;
  ProtocolHarness harness_;
  std::map<std::pair<net::HostId, net::HostId>, u32> seq_;
  u64 next_id_ = 0;
  usize dense_slot_ = 0;
  usize sparse_slot_ = 0;
};

/// 96 hosts, with a per-entry reference model beside the oracle.
class SparseMergeDiff : public HandBuiltDeltaFixture, public ::testing::WithParamInterface<u64> {
 protected:
  static constexpr u32 kHosts = 96;

  SparseMergeDiff() : HandBuiltDeltaFixture(kHosts), rng_(GetParam(), "tp-merge") {}

  u64 draw(u64 mod) { return rng_.next_u64() % mod; }

  /// Delivers as the fixture does, and also checks TP's views against
  /// the reference model.
  void deliver(net::HostId src, net::HostId dst, const std::vector<net::DepEntry>& deltas) {
    HandBuiltDeltaFixture::deliver(src, dst, deltas);
    ref_.receive(dst, deltas);
    auto [req, loc] = ref_.views(dst, kHosts);
    req[dst] = sparse().requirement_vector(dst)[dst];
    loc[dst] = sparse().location_vector(dst)[dst];
    EXPECT_EQ(sparse().requirement_vector(dst), req) << "reference CKPT[] at host " << dst;
    EXPECT_EQ(sparse().location_vector(dst), loc) << "reference LOC[] at host " << dst;
  }

  /// Sends from `src` to `dst` in both encodings and checks the sparse
  /// delta against the reference model, and its own entry against the
  /// dense vectors.
  void expect_send_matches(net::HostId src, net::HostId dst) {
    const net::Piggyback dense_pb = dense().make_piggyback(net_.host(src), dst);
    const net::Piggyback sparse_pb = sparse().make_piggyback(net_.host(src), dst);
    const std::vector<net::DepEntry> want = ref_.send(src, dst);
    const std::vector<net::DepEntry> dense_entries = entries_of(dense_pb);
    std::vector<net::DepEntry> got;
    usize own = 0;
    for (const net::DepEntry& d : entries_of(sparse_pb)) {
      if (d.host == src) {
        ++own;
        EXPECT_EQ(d.ckpt, dense_entries[src].ckpt);
        EXPECT_EQ(d.loc, dense_entries[src].loc);
      } else {
        got.push_back(d);
      }
    }
    EXPECT_EQ(own, 1u) << "the sender's own entry rides every delta";
    ASSERT_EQ(got.size(), want.size()) << "send " << src << "->" << dst;
    for (usize i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].host, want[i].host) << "send " << src << "->" << dst << " entry " << i;
      EXPECT_EQ(got[i].ckpt, want[i].ckpt) << "send " << src << "->" << dst << " entry " << i;
      EXPECT_EQ(got[i].loc, want[i].loc) << "send " << src << "->" << dst << " entry " << i;
    }
    EXPECT_LE(sparse_pb.wire_bytes(), sparse_pb.dense_bytes());
    EXPECT_EQ(sparse_pb.dense_bytes(), dense_pb.dense_bytes());
  }

  des::RngStream rng_;
  TpReferenceModel ref_;
};

TEST_P(SparseMergeDiff, MergeIntoHeldEntriesMatchesDenseAndReference) {
  constexpr u32 kReceivers = 6;
  constexpr int kDeliveries = 60;
  std::vector<net::HostId> receivers;
  for (u32 i = 0; i < kReceivers; ++i) receivers.push_back(1 + i * (kHosts / kReceivers));

  // Every receiver first holds every third host of the middle band, so
  // later deltas put new hosts before, between and after held ones.
  for (const net::HostId r : receivers) {
    std::vector<net::DepEntry> held;
    for (u32 idx = 16; idx < 80; idx += 3) {
      held.push_back({idx, 1 + static_cast<u32>(draw(4)), static_cast<u32>(draw(kMss))});
    }
    deliver((r + 1) % kHosts, r, held);
  }

  std::map<net::HostId, std::vector<net::HostId>> sent_to;
  for (int step = 0; step < kDeliveries; ++step) {
    const net::HostId r = receivers[draw(kReceivers)];
    auto src = static_cast<net::HostId>(draw(kHosts));
    if (src == r) src = (src + 1) % kHosts;
    std::vector<net::DepEntry> deltas;
    for (u32 idx = 0; idx < kHosts; ++idx) {
      if (idx != r && draw(10) >= 4) continue;  // about 40% of hosts, r every time
      const auto loc = static_cast<u32>(draw(kMss));
      if (const TpReferenceModel::Ref* e = ref_.held(r, idx); e != nullptr) {
        // Below, equal to or above what the receiver holds.
        switch (draw(3)) {
          case 0:
            deltas.push_back({idx, e->ckpt > 0 ? e->ckpt - 1 : 0, loc});
            break;
          case 1:
            deltas.push_back({idx, e->ckpt, loc});
            break;
          default:
            deltas.push_back({idx, e->ckpt + 1 + static_cast<u32>(draw(3)), loc});
        }
      } else {
        // New to the receiver (or the receiver itself): a zero ckpt must
        // leave the zero entry, whatever location rides with it.
        deltas.push_back({idx, draw(3) == 0 ? 0 : 1 + static_cast<u32>(draw(6)), loc});
      }
    }
    deliver(src, r, deltas);

    // A fresh destination gets every changed entry; a repeat one only
    // those raised since the previous send on that pair.
    std::vector<net::HostId>& dsts = sent_to[r];
    if (!dsts.empty()) expect_send_matches(r, dsts[draw(dsts.size())]);
    net::HostId fresh = static_cast<net::HostId>(draw(kHosts));
    while (fresh == r || std::find(dsts.begin(), dsts.end(), fresh) != dsts.end()) {
      fresh = (fresh + 1) % kHosts;
    }
    expect_send_matches(r, fresh);
    dsts.push_back(fresh);
  }
  EXPECT_GT(harness_.log(sparse_slot_).forced(), 0u) << "sends interleave with receives";
  EXPECT_EQ(sparse().delta_reorders(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseMergeDiff, ::testing::Values(1, 7, 42),
                         [](const ::testing::TestParamInfo<u64>& pi) {
                           return "seed" + std::to_string(pi.param);
                         });

// ---------------------------------------------------------------------------
// Byte lists: TP keeps each live list in the codec it ships, patched in
// place or rebuilt, and copies its bytes into sends and snapshots
// ---------------------------------------------------------------------------

/// 200 hosts, so host gaps, ckpt and loc values cross the one-byte varint
/// limit. `deliver` checks the views against the oracle after every
/// receive; the helpers below check the bytes TP ships.
class TpByteLists : public HandBuiltDeltaFixture {
 protected:
  static constexpr u32 kHosts = 200;

  TpByteLists() : HandBuiltDeltaFixture(kHosts) {}

  /// Sends from `src` to `dst` on both protocols: TP's delta must be the
  /// plain encode of the oracle's entries for the `changed` hosts plus
  /// `src`'s own entry.
  void expect_delta(net::HostId src, net::HostId dst, const std::vector<u32>& changed) {
    std::vector<net::DepEntry> want;
    for (const net::DepEntry& d : entries_of(dense().make_piggyback(net_.host(src), dst))) {
      if (d.host == src || std::find(changed.begin(), changed.end(), d.host) != changed.end()) {
        want.push_back(d);
      }
    }
    const net::Piggyback pb = sparse().make_piggyback(net_.host(src), dst);
    EXPECT_EQ(pb.delta, net::encode_deps(want)) << "send " << src << "->" << dst;
    EXPECT_EQ(pb.delta_count, want.size()) << "send " << src << "->" << dst;
  }

  /// Sends from `src` to a host it has not sent to: TP ships every entry
  /// the oracle holds a dependency for, plus `src`'s own.
  void expect_first_delta(net::HostId src, net::HostId dst) {
    std::vector<u32> depended;
    const std::vector<u32> req = dense().requirement_vector(src);
    for (u32 j = 0; j < kHosts; ++j) {
      if (req[j] > 0) depended.push_back(j);
    }
    expect_delta(src, dst, depended);
  }

  /// Moves `host` to the next MSS, which takes a basic checkpoint on both
  /// protocols, and returns TP's snapshot bytes. Unless `zero_hosts` names
  /// hosts TP holds at ckpt 0, they must be the plain encode of the
  /// oracle's snapshot without its zero entries.
  std::vector<u8> snapshot_after_move(net::HostId host, const std::vector<u32>& zero_hosts = {}) {
    net_.switch_cell(host, (net_.host(host).mss() + 1) % kMss);
    const CheckpointRecord& rec = harness_.log(sparse_slot_).of(host).back();
    net::DepReader in = rec.deps();
    while (!in.done()) in.next();
    std::vector<u8> bytes(rec.dep_bytes, in.pos());
    std::vector<net::DepEntry> want;
    for (net::DepReader all = harness_.log(dense_slot_).of(host).back().deps(); !all.done();) {
      const net::DepEntry d = all.next();
      const bool zero_held =
          std::find(zero_hosts.begin(), zero_hosts.end(), d.host) != zero_hosts.end();
      if (d.host == host || d.ckpt > 0 || zero_held) want.push_back(d);
    }
    EXPECT_EQ(bytes, net::encode_deps(want)) << "snapshot of host " << host;
    return bytes;
  }
};

TEST_F(TpByteLists, RaisesAcrossVarintLengthsMatchDense) {
  // Raises that keep every field's byte length are patched in place; one
  // that changes a ckpt, loc or version length, or names a new host,
  // rebuilds the list. After each receive, a repeat destination must get
  // exactly the raised entries (so every rewritten version took), and
  // the views must match the oracle's.
  const net::HostId r = 150;
  const net::HostId peer = 7;
  deliver(3, r, {{2, 100, 3}, {40, 127, 1}, {149, 1, 127}, {190, 5, 2}});
  expect_delta(r, peer, {2, 40, 149, 190});
  deliver(3, r, {{2, 120, 3}, {40, 127, 0}});  // in place; 40 stays
  expect_delta(r, peer, {2});
  deliver(4, r, {{40, 128, 1}});  // ckpt 127 -> 128
  expect_delta(r, peer, {40});
  deliver(5, r, {{149, 2, 200}});  // loc 127 -> 200
  expect_delta(r, peer, {149});
  deliver(5, r, {{2, 121, 3}, {190, 6, 130}});  // 2 in place, then loc 2 -> 130
  expect_delta(r, peer, {2, 190});
  sparse().set_version(r, 126);
  deliver(3, r, {{2, 122, 3}});  // version 127, in place
  expect_delta(r, peer, {2});
  deliver(3, r, {{2, 123, 3}});  // version 127 -> 128
  expect_delta(r, peer, {2});
  sparse().set_version(r, 16382);
  deliver(3, r, {{2, 124, 3}});  // version 16383, in place
  expect_delta(r, peer, {2});
  deliver(3, r, {{2, 125, 3}});  // version 16383 -> 16384
  expect_delta(r, peer, {2});
  deliver(6, r, {{40, 1, 0}, {100, 9, 3}, {149, 3, 1}});  // new host 100 between held ones
  expect_delta(r, peer, {100, 149});
  EXPECT_GT(harness_.log(sparse_slot_).forced(), 0u) << "sends interleave with receives";
  expect_first_delta(r, 8);
  snapshot_after_move(r);
}

TEST_F(TpByteLists, OwnEntrySpliceMatchesAPlainEncode) {
  // A first delta and a snapshot copy the held bytes around the own entry
  // and re-gap the entry above it: with the sender below, between and
  // above its held hosts, and with an empty list, both must equal a
  // plain encode.
  struct Case {
    net::HostId host;
    std::vector<net::DepEntry> held;
  };
  const std::vector<Case> cases = {
      {5, {{6, 1, 1}, {130, 2, 3}, {199, 3, 0}}},                // below
      {100, {{0, 4, 2}, {99, 1, 1}, {101, 2, 2}, {199, 5, 3}}},  // between, gaps of 1
      {64, {{1, 300, 200}, {190, 1, 1}}},  // between; the re-gap loses a byte
      {198, {{3, 1, 0}, {197, 2, 1}}},     // above
      {42, {}},                            // empty
  };
  for (const Case& c : cases) {
    if (!c.held.empty()) deliver(c.host == 0 ? 1 : 0, c.host, c.held);
    expect_first_delta(c.host, 150);
    snapshot_after_move(c.host);
    // Neither changed the list; the own entry moved on with the host.
    expect_first_delta(c.host, 151);
  }
}

TEST_F(TpByteLists, ZeroEntryTurnsOffTheFirstDeltaCopy) {
  // A delta that names a host new to the receiver at ckpt 0 leaves it
  // held as the zero entry, at version 0. Snapshots record it, but no
  // delta ships it, so a pair's first delta must not copy the list while
  // it is there. No run ships a ckpt of 0, so the delta is hand-built.
  const net::HostId r = 20;
  deliver(3, r, {{10, 4, 1}, {30, 0, 2}, {40, 2, 3}});
  expect_first_delta(r, 50);
  snapshot_after_move(r, {30});
  deliver(4, r, {{30, 5, 1}});  // raised: version 1 or later
  expect_first_delta(r, 60);
  snapshot_after_move(r);
}

TEST_F(TpByteLists, VersionWrapThrowsAtTheSameReceive) {
  // A receive hands out one version per raised or newly depended-on
  // entry, in place or rebuilding, so the receive that would pass
  // 2^32-1 throws, naming the host, and the ones before it do not.
  constexpr u32 kMax = std::numeric_limits<u32>::max();
  const auto expect_wrap = [this](net::HostId r, const std::vector<net::DepEntry>& deltas) {
    net::AppMessage msg;
    msg.id = ++next_id_;
    msg.src = 3;
    msg.dst = r;
    try {
      sparse().handle_receive(net_.host(r), msg, piggyback_of(deltas, kHosts));
      ADD_FAILURE() << "host " << r << ": a version wrap must throw";
    } catch (const std::overflow_error& e) {
      EXPECT_NE(std::string(e.what()).find("host " + std::to_string(r)), std::string::npos)
          << e.what();
    }
  };
  // In place: two new hosts, then two same-length raises reach the last
  // stamp; a receive that raises nothing is fine; the next raise wraps.
  sparse().set_version(20, kMax - 4);
  deliver(3, 20, {{10, 1, 1}, {30, 1, 1}});
  deliver(3, 20, {{10, 2, 1}, {30, 2, 1}});
  deliver(3, 20, {{10, 2, 1}, {30, 1, 1}});
  expect_wrap(20, {{10, 3, 1}});
  // Rebuilding: a raise and a new host where only one stamp is left.
  sparse().set_version(21, kMax - 3);
  deliver(3, 21, {{10, 1, 1}});
  deliver(3, 21, {{10, 2, 1}});
  expect_wrap(21, {{10, 3, 200}, {11, 1, 1}});
}

// ---------------------------------------------------------------------------
// Full-run differential: TP against the oracle over one whole run
// ---------------------------------------------------------------------------

/// One paper-workload run with TP and the oracle side by side: the same
/// upcalls reach both, so every checkpoint's recorded dependencies, every
/// host's views at the horizon, the checkpoint counts and the
/// dense-equivalent bytes must agree. TP sits in
/// slot 0, whose piggyback sizes ride the wire (and so shape channel
/// occupancy when the cell bandwidth is finite), as in a real run.
struct FullRunDiff {
  des::Simulator sim;
  net::Network net;
  ProtocolHarness harness;
  usize sparse_slot = 0;
  usize dense_slot = 0;

  FullRunDiff(const sim::SimConfig& cfg, des::QueueKind queue)
      : sim(queue), net(sim, cfg.network, cfg.seed), harness(net) {
    sparse_slot = harness.add_protocol(std::make_unique<TpProtocol>());
    dense_slot = harness.add_protocol(std::make_unique<DenseTpOracle>());
    sim::WorkloadDriver workload(sim, net, cfg);
    sim::MobilityDriver mobility(sim, net, cfg, &workload);
    net.start();
    workload.start();
    mobility.start();
    sim.run_until(cfg.sim_length);
  }

  const DenseTpOracle& dense() const {
    return static_cast<const DenseTpOracle&>(harness.protocol(dense_slot));
  }
  const TpProtocol& sparse() const {
    return static_cast<const TpProtocol&>(harness.protocol(sparse_slot));
  }

  void expect_agreement(const std::string& label) const {
    const CheckpointLog& dense_log = harness.log(dense_slot);
    const CheckpointLog& sparse_log = harness.log(sparse_slot);
    EXPECT_GT(sparse_log.forced(), 0u) << label;
    EXPECT_EQ(sparse_log.n_tot(), dense_log.n_tot()) << label;
    EXPECT_EQ(sparse_log.forced(), dense_log.forced()) << label;
    EXPECT_EQ(sparse_log.max_sn(), dense_log.max_sn()) << label;
    // The records snapshot both views at every checkpoint of the run.
    u64 record_mismatches = 0;
    for (net::HostId h = 0; h < net.n_hosts(); ++h) {
      const std::vector<CheckpointRecord>& sparse_recs = sparse_log.of(h);
      const std::vector<CheckpointRecord>& dense_recs = dense_log.of(h);
      ASSERT_EQ(sparse_recs.size(), dense_recs.size()) << label << ": host " << h;
      for (usize i = 0; i < sparse_recs.size(); ++i) {
        for (u32 j = 0; j < net.n_hosts(); ++j) {
          if (sparse_recs[i].dep_ckpt_at(j) != dense_recs[i].dep_ckpt_at(j) ||
              sparse_recs[i].dep_loc_at(j) != dense_recs[i].dep_loc_at(j)) {
            ++record_mismatches;
          }
        }
      }
    }
    EXPECT_EQ(record_mismatches, 0u) << label;
    for (net::HostId h = 0; h < net.n_hosts(); ++h) {
      EXPECT_EQ(sparse().requirement_vector(h), dense().requirement_vector(h))
          << label << ": CKPT[] diverged at host " << h;
      EXPECT_EQ(sparse().location_vector(h), dense().location_vector(h))
          << label << ": LOC[] diverged at host " << h;
    }
    // Identical dense-equivalent accounting, strictly cheaper encoding.
    EXPECT_EQ(harness.piggyback_dense_bytes(sparse_slot), harness.piggyback_dense_bytes(dense_slot))
        << label;
    EXPECT_LT(harness.piggyback_bytes(sparse_slot), harness.piggyback_dense_bytes(sparse_slot))
        << label;
  }
};

TEST(SparseFullRun, TraceAndCountsMatchDenseOnEveryQueue) {
  // The deltas are metadata only, so over a full run the oracle and TP
  // take the same checkpoints and end with the same views — on every
  // event-queue implementation.
  sim::SimConfig cfg;
  cfg.sim_length = 20'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 0.8;
  cfg.seed = 7;
  for (const des::QueueKind queue : des::kAllQueueKinds) {
    const FullRunDiff run(cfg, queue);
    run.expect_agreement(des::queue_kind_name(queue));
    EXPECT_EQ(run.sparse().delta_reorders(), 0u) << des::queue_kind_name(queue);
  }
}

TEST(SparseFullRun, ChaseForwardedDeltasMatchDenseUnderContention) {
  // A contended channel and fast movers: messages chase their destination
  // to a new cell, so deltas arrive through forwarded paths, and TP's
  // delta sizes set the channel occupancy.
  sim::SimConfig cfg;
  cfg.sim_length = 20'000.0;
  cfg.t_switch = 100.0;
  cfg.p_switch = 0.8;
  cfg.seed = 42;
  cfg.network.wireless_bandwidth = 1'200.0;
  const FullRunDiff run(cfg, des::QueueKind::kBinaryHeap);
  EXPECT_GT(run.net.stats().chase_forwards, 0u);
  EXPECT_EQ(run.sparse().delta_reorders(), 0u);
  run.expect_agreement("contention");
}

}  // namespace
}  // namespace mobichk::core
