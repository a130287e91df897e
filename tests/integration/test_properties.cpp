// Property-based integration tests: invariants that must hold for every
// protocol on randomized end-to-end runs.
//
//  * Safety — every recovery line a protocol builds on the fly is free of
//    orphan messages (checked exhaustively, not sampled).
//  * QBC dominance — on the same trace, QBC's indices and checkpoint
//    counts never exceed BCS's.
//  * QBC internal invariant — rn_i <= sn_i at all times (checked at end).
//  * TP phase discipline — within any checkpoint interval, every receive
//    precedes every send.
//  * Basic-checkpoint mandate — exactly one basic checkpoint per handoff
//    and per disconnection.
//  * Duplicate tolerance — all of the above with at-least-once delivery
//    exposing duplicates to the protocols.
#include <gtest/gtest.h>

#include <sstream>

#include "core/protocols/qbc.hpp"
#include "core/recovery.hpp"
#include "core/zgraph.hpp"
#include "sim/experiment.hpp"
#include "../core/vc_oracle.hpp"

namespace mobichk::sim {
namespace {

struct PropertyCase {
  u64 seed;
  f64 t_switch;
  f64 p_switch;
  f64 heterogeneity;
  bool duplicates;
  bool contention = false;                 ///< Finite cell bandwidth.
  net::MssTopologyKind topology = net::MssTopologyKind::kFullMesh;
  sim::MobilityModelKind mobility = sim::MobilityModelKind::kPaperUniform;

  friend std::ostream& operator<<(std::ostream& os, const PropertyCase& c) {
    os << "seed" << c.seed << "_ts" << c.t_switch << "_psw" << c.p_switch << "_h"
       << c.heterogeneity << (c.duplicates ? "_dup" : "");
    return os;
  }
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& pi) {
  std::ostringstream os;
  os << "seed" << pi.param.seed << "_ts" << static_cast<int>(pi.param.t_switch) << "_psw"
     << static_cast<int>(pi.param.p_switch * 10) << "_h"
     << static_cast<int>(pi.param.heterogeneity * 100) << (pi.param.duplicates ? "_dup" : "");
  return os.str();
}

class ProtocolProperties : public ::testing::TestWithParam<PropertyCase> {
 protected:
  SimConfig config() const {
    const PropertyCase& c = GetParam();
    SimConfig cfg;
    cfg.sim_length = 4'000.0;
    cfg.seed = c.seed;
    cfg.t_switch = c.t_switch;
    cfg.p_switch = c.p_switch;
    cfg.heterogeneity = c.heterogeneity;
    cfg.disconnect_mean = 300.0;  // shorter outages so short runs see reconnects
    if (c.duplicates) {
      cfg.network.duplicate_prob = 0.2;
      cfg.network.transport_dedup = false;
    }
    if (c.contention) cfg.network.wireless_bandwidth = 5'000.0;
    cfg.network.mss_topology = c.topology;
    cfg.mobility_model = c.mobility;
    return cfg;
  }

  static ExperimentOptions options() {
    ExperimentOptions opts;
    opts.protocols = {core::ProtocolKind::kTp, core::ProtocolKind::kBcs,
                      core::ProtocolKind::kQbc, core::ProtocolKind::kCoordinated};
    opts.params.coordinated_interval = 400.0;
    return opts;
  }
};

TEST_P(ProtocolProperties, AllRecoveryLinesAreOrphanFree) {
  Experiment exp(config(), options());
  exp.run();
  const auto& messages = exp.harness().message_log();
  const auto current = exp.harness().current_positions();

  for (usize slot = 0; slot < exp.harness().protocol_count(); ++slot) {
    const auto& log = exp.log(slot);
    const auto kind = exp.kind(slot);
    if (kind == core::ProtocolKind::kTp) {
      // Every checkpoint's on-the-fly line must be consistent.
      for (net::HostId h = 0; h < log.n_hosts(); ++h) {
        for (const auto& anchor : log.of(h)) {
          const auto cut = core::tp_recovery_line(log, anchor, current);
          const auto orphans = core::find_orphans(messages, cut);
          ASSERT_TRUE(orphans.empty())
              << "TP anchor h" << h << "#" << anchor.ordinal << ": "
              << core::describe_orphan(*orphans.front(), cut);
        }
      }
    } else {
      const auto rule = core::recovery_rule_for(kind);
      for (u64 m = 0; m <= log.max_sn(); ++m) {
        const auto cut = core::index_recovery_line(log, m, rule, current);
        const auto orphans = core::find_orphans(messages, cut);
        ASSERT_TRUE(orphans.empty())
            << core::protocol_kind_name(kind) << " index " << m << ": "
            << core::describe_orphan(*orphans.front(), cut);
      }
    }
  }
}

TEST_P(ProtocolProperties, QbcIndexDominanceOverBcs) {
  // The theorem: on the same trace QBC's sequence numbers never exceed
  // BCS's, host by host (inductive over the trace). Checkpoint *counts*
  // are dominated only in expectation — slower index growth can re-time
  // forced checkpoints and occasionally add a couple — so the count
  // check carries slack (the randomized stress test documents the
  // counterexamples).
  Experiment exp(config(), options());
  exp.run();
  const auto& bcs_log = exp.log(1);
  const auto& qbc_log = exp.log(2);
  EXPECT_EQ(qbc_log.basic(), bcs_log.basic());
  for (net::HostId h = 0; h < bcs_log.n_hosts(); ++h) {
    EXPECT_LE(qbc_log.max_sn(h), bcs_log.max_sn(h)) << "host " << h;
  }
  EXPECT_LE(static_cast<f64>(qbc_log.n_tot()),
            static_cast<f64>(bcs_log.n_tot()) * 1.05 + 5.0);
}

TEST_P(ProtocolProperties, QbcReceiveNumberNeverExceedsSequenceNumber) {
  Experiment exp(config(), options());
  exp.run();
  const auto& qbc = dynamic_cast<const core::QbcProtocol&>(exp.harness().protocol(2));
  for (net::HostId h = 0; h < exp.network().n_hosts(); ++h) {
    EXPECT_LE(qbc.receive_number(h), static_cast<i64>(qbc.sequence_number(h))) << "host " << h;
  }
}

TEST_P(ProtocolProperties, TpIntervalsReceiveThenSend) {
  Experiment exp(config(), options());
  exp.run();
  const auto& log = exp.log(0);  // TP
  const auto& deliveries = exp.harness().message_log().deliveries();

  // Bucket events per host: positions of sends and receives.
  const u32 n = exp.network().n_hosts();
  std::vector<std::vector<u64>> send_pos(n), recv_pos(n);
  for (const auto& d : deliveries) recv_pos[d.dst].push_back(d.recv_pos);
  // Receives tell us only delivered messages; for sends use sends from the
  // message log via deliveries' send side plus undelivered are unknowable
  // here — but any send that was never received cannot create an orphan,
  // and for the discipline check we only need sends we know about.
  for (const auto& d : deliveries) send_pos[d.src].push_back(d.send_pos);

  for (net::HostId h = 0; h < n; ++h) {
    const auto& ckpts = log.of(h);
    for (usize i = 0; i < ckpts.size(); ++i) {
      const u64 lo = ckpts[i].event_pos;
      const u64 hi = (i + 1 < ckpts.size()) ? ckpts[i + 1].event_pos : ~0ULL;
      // Within (lo, hi]: no receive may follow a send.
      u64 first_send = ~0ULL;
      for (const u64 s : send_pos[h]) {
        if (s > lo && s <= hi) first_send = std::min(first_send, s);
      }
      for (const u64 r : recv_pos[h]) {
        if (r > lo && r <= hi) {
          EXPECT_LT(r, first_send) << "host " << h << " interval after ckpt " << i
                                   << ": receive at " << r << " follows send at " << first_send;
        }
      }
    }
  }
}

TEST_P(ProtocolProperties, BasicCheckpointMandate) {
  Experiment exp(config(), options());
  exp.run();
  const u64 mobility_events = exp.network().stats().handoffs + exp.network().stats().disconnects;
  for (usize slot = 0; slot < 3; ++slot) {  // TP, BCS, QBC
    EXPECT_EQ(exp.log(slot).basic(), mobility_events)
        << core::protocol_kind_name(exp.kind(slot));
  }
}

TEST_P(ProtocolProperties, RollbackAlwaysReachesConsistency) {
  Experiment exp(config(), options());
  exp.run();
  const auto& messages = exp.harness().message_log();
  const auto fail_pos = exp.harness().current_positions();
  for (usize slot = 0; slot < exp.harness().protocol_count(); ++slot) {
    // Total failure: everyone restarts from stored checkpoints.
    const auto total = core::rollback_to_consistent(exp.log(slot), messages, fail_pos);
    EXPECT_TRUE(core::find_orphans(messages, total.line).empty());
    // Single-host failure: survivors may keep their failure state.
    const auto single = core::rollback_to_consistent(exp.log(slot), messages, fail_pos,
                                                     /*failed_host=*/0);
    EXPECT_TRUE(core::find_orphans(messages, single.line).empty());
    EXPECT_LE(single.undone_events(), total.undone_events());
    // The generic rollback finds the maximum consistent cut, so for the
    // same single-host failure it never undoes more than the protocol's
    // own index line.
    const auto kind = exp.kind(slot);
    if (kind == core::ProtocolKind::kBcs || kind == core::ProtocolKind::kQbc) {
      const auto idx = core::index_rollback(exp.log(slot), core::recovery_rule_for(kind),
                                            fail_pos, /*failed_host=*/0);
      EXPECT_TRUE(core::find_orphans(messages, idx.line).empty())
          << core::protocol_kind_name(kind);
      EXPECT_LE(single.undone_events(), idx.undone_events());
    }
  }
}

TEST_P(ProtocolProperties, OrphanOracleAgreesWithVectorClockOracle) {
  // Two independent consistency characterizations — direct message
  // crossings vs transitive vector-clock knowledge — must agree on every
  // cut we can build, including deliberately inconsistent ones.
  Experiment exp(config(), options());
  exp.run();
  const auto& messages = exp.harness().message_log();
  const auto current = exp.harness().current_positions();
  const core::VcOracle vc(exp.network().n_hosts(), messages);

  for (usize slot = 1; slot < 3; ++slot) {  // BCS, QBC
    const auto& log = exp.log(slot);
    const auto rule = core::recovery_rule_for(exp.kind(slot));
    for (u64 m = 0; m <= log.max_sn(); ++m) {
      const auto cut = core::index_recovery_line(log, m, rule, current);
      const bool by_orphans = core::find_orphans(messages, cut).empty();
      EXPECT_EQ(by_orphans, vc.consistent(cut)) << "index " << m;
    }
  }
  // Skewed cuts: take a valid line and damage one host's position.
  const auto& log = exp.log(1);
  auto cut = core::index_recovery_line(log, log.max_sn() / 2, core::IndexLineRule::kFirstAtLeast,
                                       current);
  for (net::HostId h = 0; h < exp.network().n_hosts(); ++h) {
    auto damaged = cut;
    damaged.pos[h] = current[h];  // pull one host to "now"
    EXPECT_EQ(core::find_orphans(messages, damaged).empty(), vc.consistent(damaged))
        << "damaged host " << h;
  }
}

TEST_P(ProtocolProperties, DominoFreeProtocolsHaveNoUselessCheckpoints) {
  // Netzer-Xu: a checkpoint is useless iff it lies on a zigzag cycle.
  // Every checkpoint of a communication-induced or coordinated protocol
  // belongs to some consistent global checkpoint, so the Z-cycle count
  // must be zero — an independent theory check of the same guarantee the
  // orphan oracle verifies.
  Experiment exp(config(), options());
  exp.run();
  const auto& messages = exp.harness().message_log();
  for (usize slot = 0; slot < 3; ++slot) {  // TP, BCS, QBC
    const core::IntervalGraph graph(exp.log(slot), messages);
    EXPECT_EQ(graph.useless_count(), 0u) << core::protocol_kind_name(exp.kind(slot));
  }
  // The coordinated protocol guarantees usefulness only for its round
  // checkpoints; the mobility-mandated basic checkpoints are outside the
  // coordination and *can* be useless — one more mark against the
  // coordinated class in a mobile setting (§2). Verify the split.
  const core::IntervalGraph coord_graph(exp.log(3), messages);
  for (const auto* useless : coord_graph.useless_checkpoints()) {
    EXPECT_EQ(useless->kind, core::CheckpointKind::kBasic)
        << "COORD round checkpoint h" << useless->host << "#" << useless->ordinal
        << " must belong to its round's line";
  }
}

TEST_P(ProtocolProperties, UncoordinatedCheckpointingProducesUselessCheckpoints) {
  // The contrast case: with independent local checkpoints, zigzag cycles
  // appear under any meaningful communication load.
  SimConfig cfg = config();
  cfg.comm_mean = 5.0;  // dense communication makes Z-cycles likely
  ExperimentOptions opts;
  opts.protocols = {core::ProtocolKind::kUncoordinated};
  opts.params.uncoordinated_mean_period = 50.0;
  Experiment exp(cfg, opts);
  exp.run();
  const core::IntervalGraph graph(exp.log(0), exp.harness().message_log());
  EXPECT_GT(graph.useless_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolProperties,
    ::testing::Values(PropertyCase{1, 100.0, 1.0, 0.0, false},
                      PropertyCase{2, 500.0, 0.8, 0.0, false},
                      PropertyCase{3, 1000.0, 0.8, 0.3, false},
                      PropertyCase{4, 200.0, 0.5, 0.5, false},
                      PropertyCase{5, 2000.0, 1.0, 0.3, false},
                      PropertyCase{6, 500.0, 0.8, 0.3, true},
                      PropertyCase{7, 100.0, 0.9, 0.5, true},
                      PropertyCase{8, 5000.0, 0.8, 0.0, false},
                      // The extended substrate must not break any invariant:
                      // finite cell bandwidth (queued deliveries reorder
                      // nothing the protocols rely on)...
                      PropertyCase{9, 500.0, 0.8, 0.3, false, true},
                      // ...a multi-hop wired topology (longer, uneven
                      // forwarding paths)...
                      PropertyCase{10, 500.0, 0.8, 0.0, false, false,
                                   net::MssTopologyKind::kLine},
                      // ...and the alternate mobility models, with duplicates
                      // and contention stacked on for good measure.
                      PropertyCase{11, 300.0, 0.7, 0.3, true, true,
                                   net::MssTopologyKind::kRing,
                                   sim::MobilityModelKind::kRingNeighbor},
                      PropertyCase{12, 1000.0, 0.8, 0.5, false, false,
                                   net::MssTopologyKind::kStar,
                                   sim::MobilityModelKind::kParetoResidence}),
    case_name);

}  // namespace
}  // namespace mobichk::sim
