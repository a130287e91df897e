// Causal observability tests: the three-way reconciliation at the heart
// of this layer (online RecoveryLineTracker == offline line builders ==
// vector-clock / Z-cycle oracles, for every checkpoint of a seeded run on
// every queue kind), forced-rule attribution per protocol from scripted
// scenarios, the timeline-cap invariance of the rl.* metrics, and the
// causal-chain explainer.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/protocols/bcs.hpp"
#include "core/protocols/qbc.hpp"
#include "core/protocols/tp.hpp"
#include "core/vc_oracle.hpp"
#include "core/zgraph.hpp"
#include "des/event_queue.hpp"
#include "mobichk.hpp"

namespace mobichk {
namespace {

using core::ProtocolKind;

sim::SimConfig small_cfg(u64 seed) {
  sim::SimConfig cfg;
  cfg.network.n_hosts = 6;
  cfg.network.n_mss = 3;
  cfg.sim_length = 3'000.0;
  cfg.t_switch = 150.0;
  cfg.p_switch = 0.9;
  cfg.seed = seed;
  return cfg;
}

void expect_members_match(const std::vector<obs::LineMember>& online,
                          const core::GlobalCheckpoint& cut) {
  ASSERT_EQ(online.size(), cut.members.size());
  for (usize h = 0; h < online.size(); ++h) {
    SCOPED_TRACE("member host " + std::to_string(h));
    if (cut.members[h] == nullptr) {
      EXPECT_TRUE(online[h].is_virtual);
    } else {
      EXPECT_FALSE(online[h].is_virtual);
      EXPECT_EQ(online[h].ordinal, cut.members[h]->ordinal);
    }
  }
}

// Three-way theory check, the acceptance bar of the causal layer: for
// EVERY checkpoint of a seeded run, on every queue kind,
//   (1) the tracker's online line equals the offline line builder's,
//   (2) that line is consistent under the VC oracle and orphan-free,
//   (3) the tracker's Z-cycle verdict per checkpoint and its useless
//       count equal the offline interval graph's.
// The tracker sees nothing but probe events; the oracles see nothing but
// the core logs — agreement means the probe stream carries the theory.
TEST(CausalReconciliation, OnlineTrackerMatchesOfflineOraclesOnEveryQueueKind) {
  for (const des::QueueKind qk : des::kAllQueueKinds) {
    SCOPED_TRACE(std::string("queue kind ") + std::to_string(static_cast<int>(qk)));
    const sim::SimConfig cfg = small_cfg(13);
    obs::RunObserver observer;
    sim::ExperimentOptions opts;
    opts.protocols = {ProtocolKind::kTp, ProtocolKind::kBcs, ProtocolKind::kQbc,
                      ProtocolKind::kCoordinated};
    opts.queue_kind = qk;
    opts.observer = &observer;
    sim::Experiment exp(cfg, opts);
    exp.run();

    const obs::CausalMonitor* monitor = observer.causal();
    ASSERT_NE(monitor, nullptr);
    ASSERT_EQ(monitor->slots(), opts.protocols.size());
    const core::MessageLog& messages = exp.harness().message_log();
    const std::vector<u64> current = exp.harness().current_positions();
    const core::VcOracle oracle(cfg.network.n_hosts, messages);

    for (usize slot = 0; slot < opts.protocols.size(); ++slot) {
      SCOPED_TRACE("slot " + std::to_string(slot) + " (" +
                   core::protocol_kind_name(opts.protocols[slot]) + ")");
      const obs::RecoveryLineTracker* tracker = monitor->tracker(slot);
      ASSERT_NE(tracker, nullptr);
      const ProtocolKind kind = opts.protocols[slot];
      const core::CheckpointLog& log = exp.log(slot);
      const core::IntervalGraph graph(log, messages);

      for (u32 h = 0; h < log.n_hosts(); ++h) {
        ASSERT_EQ(tracker->checkpoints(h), log.of(h).size()) << "host " << h;
        for (const core::CheckpointRecord& rec : log.of(h)) {
          SCOPED_TRACE("checkpoint host " + std::to_string(h) + " #" +
                       std::to_string(rec.ordinal));
          core::GlobalCheckpoint cut;
          std::vector<obs::LineMember> online;
          if (kind == ProtocolKind::kTp) {
            cut = core::tp_recovery_line(log, rec, current);
            online = tracker->tp_line(h, rec.ordinal);
          } else {
            cut = core::index_recovery_line(log, rec.sn, core::recovery_rule_for(kind), current);
            online = tracker->index_line(rec.sn);
          }
          expect_members_match(online, cut);
          EXPECT_TRUE(oracle.consistent(cut));
          EXPECT_TRUE(core::find_orphans(messages, cut).empty());
          if (rec.ordinal > 0) {
            EXPECT_EQ(tracker->on_z_cycle(h, rec.ordinal), graph.on_z_cycle(h, rec.ordinal));
          }
        }
      }
      EXPECT_EQ(tracker->useless_count(), graph.useless_checkpoints().size());
      if (kind == ProtocolKind::kTp) {
        // Russell's discipline: the protocol checkpoints before any
        // receive that follows a send, so the tracker — which sees the
        // forced-checkpoint event before the deliver event — must never
        // observe a delivery landing in a SEND phase.
        EXPECT_EQ(tracker->phase_violations(), 0u);
      }
    }
  }
}

// The Z-cycle half of the reconciliation over many seeds, on a clean
// channel and on a duplicating one the transport does not deduplicate,
// with protocols that do produce useless checkpoints: every positive AND
// negative verdict of the tracker's SCC pass must match the offline
// interval graph's per-checkpoint BFS.
TEST(CausalReconciliation, ZCycleVerdictsMatchIntervalGraphAcrossSeedsAndChannels) {
  const std::vector<ProtocolKind> protocols = {ProtocolKind::kLazyBcs, ProtocolKind::kCoordinated,
                                               ProtocolKind::kTp, ProtocolKind::kBcs,
                                               ProtocolKind::kQbc};
  u64 total_useless = 0;
  for (const bool duplicating : {false, true}) {
    for (u64 seed = 100; seed < 140; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (duplicating ? " duplicating" : " clean"));
      sim::SimConfig cfg = small_cfg(seed);
      cfg.sim_length = 2'000.0;
      cfg.t_switch = 60.0;
      if (duplicating) {
        cfg.network.duplicate_prob = 0.2;
        cfg.network.transport_dedup = false;
      }
      obs::RunObserver observer;
      sim::ExperimentOptions opts;
      opts.protocols = protocols;
      opts.observer = &observer;
      sim::Experiment exp(cfg, opts);
      exp.run();

      const core::MessageLog& messages = exp.harness().message_log();
      for (usize slot = 0; slot < protocols.size(); ++slot) {
        SCOPED_TRACE(core::protocol_kind_name(protocols[slot]));
        const obs::RecoveryLineTracker* tracker = observer.causal()->tracker(slot);
        ASSERT_NE(tracker, nullptr);
        const core::CheckpointLog& log = exp.log(slot);
        const core::IntervalGraph graph(log, messages);
        for (u32 h = 0; h < log.n_hosts(); ++h) {
          ASSERT_EQ(tracker->checkpoints(h), log.of(h).size()) << "host " << h;
          for (u64 x = 1; x < log.of(h).size(); ++x) {
            EXPECT_EQ(tracker->on_z_cycle(h, x), graph.on_z_cycle(h, x))
                << "checkpoint host " << h << " #" << x;
          }
        }
        const u64 useless = graph.useless_count();
        EXPECT_EQ(tracker->useless_count(), useless);
        total_useless += useless;
      }
    }
  }
  // The verdicts compared above include positive ones.
  EXPECT_GT(total_useless, 0u);
}

TEST(CausalMetrics, RecoveryLineFamiliesAreExportedAndReconcileWithRunStats) {
  const sim::SimConfig cfg = small_cfg(11);
  obs::RunObserver observer;
  sim::ExperimentOptions opts;
  opts.observer = &observer;
  sim::Experiment exp(cfg, opts);  // default protocols: TP, BCS, QBC
  exp.run();
  const sim::RunResult& result = exp.result();

  for (usize slot = 0; slot < result.protocols.size(); ++slot) {
    const sim::ProtocolRunStats& stats = result.protocols[slot];
    SCOPED_TRACE(stats.name);
    const std::string prefix = "rl." + std::to_string(slot) + "." + stats.name;
    const obs::RecoveryLineTracker* tracker = observer.causal()->tracker(slot);
    ASSERT_NE(tracker, nullptr);

    // The gauge mirrors the tracker's committed line.
    const obs::Gauge* line = observer.registry().find_gauge(prefix + ".line_index");
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(static_cast<u64>(line->value()), tracker->line_index());

    // Every forced checkpoint contributed one forced-chain sample.
    const obs::FixedHistogram* chains = observer.registry().find_histogram(prefix + ".forced_chain");
    ASSERT_NE(chains, nullptr);
    EXPECT_EQ(chains->count(), stats.forced);
    if (stats.forced > 0) {
      EXPECT_GE(tracker->max_forced_chain(), 1u);
      EXPECT_EQ(static_cast<u64>(chains->max()), tracker->max_forced_chain());
    }
    EXPECT_NE(observer.registry().find_counter(prefix + ".line_advances"), nullptr);
    EXPECT_NE(observer.registry().find_counter(prefix + ".useless_checkpoints"), nullptr);

    // Forced-rule attribution on the timeline reconciles with the
    // per-protocol counters, and each protocol fires only its own rule.
    u64 forced_events = 0;
    for (const obs::ProbeEvent& e : observer.timeline().events()) {
      if (e.kind != obs::ProbeKind::kCheckpoint || e.track != static_cast<i32>(slot) ||
          e.ckpt_kind != obs::CkptKind::kForced) {
        continue;
      }
      ++forced_events;
      const obs::ForcedRule want = stats.kind == ProtocolKind::kTp
                                       ? obs::ForcedRule::kReceiveAfterSend
                                       : obs::ForcedRule::kSnGreater;
      EXPECT_EQ(e.rule, want);
      EXPECT_NE(e.b, 0u) << "forced checkpoint without a triggering message id";
    }
    EXPECT_EQ(forced_events, stats.forced);
  }
}

TEST(CausalMetrics, TimelineCapDoesNotPerturbRecoveryLineMetrics) {
  const sim::SimConfig cfg = small_cfg(17);

  auto rl_samples = [](const obs::RunObserver& o) {
    std::vector<obs::MetricSample> rl;
    for (const obs::MetricSample& s : o.registry().snapshot()) {
      if (s.name.rfind("rl.", 0) == 0) rl.push_back(s);
    }
    return rl;
  };

  obs::RunObserver full;
  {
    sim::ExperimentOptions opts;
    opts.observer = &full;
    sim::Experiment exp(cfg, opts);
    exp.run();
  }
  obs::RunObserver capped;
  capped.set_timeline_capacity(64);
  {
    sim::ExperimentOptions opts;
    opts.observer = &capped;
    sim::Experiment exp(cfg, opts);
    exp.run();
  }

  // The cap bounded storage and counted the overflow...
  EXPECT_EQ(capped.timeline().size(), 64u);
  EXPECT_GT(capped.timeline().dropped(), 0u);
  EXPECT_EQ(capped.registry().find_counter("obs.timeline.dropped_events")->value(),
            capped.timeline().dropped());
  EXPECT_EQ(full.timeline().dropped(), 0u);

  // ...but the online analysis listens ahead of the cap, so every rl.*
  // metric is identical to the uncapped run's.
  const auto want = rl_samples(full);
  const auto got = rl_samples(capped);
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (usize i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].value, want[i].value) << want[i].name;
  }
}

// -- scripted forced-rule attribution ----------------------------------
//
// Hand-driven scenarios pin the exact (rule, trigger message) pair each
// protocol stamps on its forced checkpoints.

class ScriptedRun : public ::testing::Test {
 protected:
  ScriptedRun() : net_(sim_, config(), 1), harness_(net_) {
    harness_.set_timeline(&timeline_);  // before add_protocol
    net_.set_observer(nullptr, &timeline_);
  }

  static net::NetworkConfig config() {
    net::NetworkConfig cfg;
    cfg.n_hosts = 3;
    cfg.n_mss = 2;
    return cfg;
  }

  /// The id of the `ordinal`-th kSend event (0-based), or 0.
  u64 sent_msg_id(usize ordinal) const {
    usize seen = 0;
    for (const obs::ProbeEvent& e : timeline_.events()) {
      if (e.kind == obs::ProbeKind::kSend && seen++ == ordinal) return e.a;
    }
    return 0;
  }

  /// The single forced-checkpoint event on the timeline.
  const obs::ProbeEvent* the_forced() const {
    const obs::ProbeEvent* found = nullptr;
    for (const obs::ProbeEvent& e : timeline_.events()) {
      if (e.kind == obs::ProbeKind::kCheckpoint && e.ckpt_kind == obs::CkptKind::kForced) {
        EXPECT_EQ(found, nullptr) << "more than one forced checkpoint";
        found = &e;
      }
    }
    return found;
  }

  des::Simulator sim_;
  obs::Timeline timeline_;
  net::Network net_;
  core::ProtocolHarness harness_;
};

TEST_F(ScriptedRun, BcsStampsSnRuleAndTriggeringMessageOnForcedCheckpoints) {
  const usize slot = harness_.add_protocol(std::make_unique<core::BcsProtocol>());
  net_.start({0, 0, 1});
  net_.switch_cell(0, 1);          // basic checkpoint: sn_0 = 1
  net_.send_app_message(0, 1, 8);  // piggybacks sn 1
  sim_.run();
  net_.consume_one(1);  // 1 > sn_1 (0): forced
  ASSERT_EQ(harness_.log(slot).forced(), 1u);

  const obs::ProbeEvent* forced = the_forced();
  ASSERT_NE(forced, nullptr);
  EXPECT_EQ(forced->rule, obs::ForcedRule::kSnGreater);
  EXPECT_EQ(forced->actor, 1);
  EXPECT_EQ(forced->track, static_cast<i32>(slot));
  EXPECT_EQ(forced->b, sent_msg_id(0));
  EXPECT_NE(forced->b, 0u);
}

TEST_F(ScriptedRun, TpStampsReceiveAfterSendRuleWithTheIncomingMessage) {
  const usize slot = harness_.add_protocol(std::make_unique<core::TpProtocol>());
  net_.start({0, 0, 1});
  net_.send_app_message(1, 0, 8);  // host 1 enters its SEND phase
  net_.send_app_message(0, 1, 8);  // the message that will interrupt it
  sim_.run();
  net_.consume_one(1);  // receive after send: forced, then delivered
  ASSERT_EQ(harness_.log(slot).forced(), 1u);

  const obs::ProbeEvent* forced = the_forced();
  ASSERT_NE(forced, nullptr);
  EXPECT_EQ(forced->rule, obs::ForcedRule::kReceiveAfterSend);
  EXPECT_EQ(forced->actor, 1);
  EXPECT_EQ(forced->b, sent_msg_id(1));  // the 0 -> 1 message
  EXPECT_NE(forced->b, 0u);
}

TEST_F(ScriptedRun, QbcStampsSnRuleAndMarksEquivalenceReplacements) {
  const usize slot = harness_.add_protocol(std::make_unique<core::QbcProtocol>());
  net_.start({0, 0, 1});
  net_.send_app_message(1, 0, 8);  // pb.sn 0: ties host 0 (rn = sn = 0)
  sim_.run();
  net_.consume_one(0);             // no force (0 is not > 0)
  net_.switch_cell(0, 1);          // rn == sn: new index, sn_0 = 1
  net_.send_app_message(0, 1, 8);  // piggybacks sn 1
  sim_.run();
  net_.consume_one(1);   // 1 > sn_1 (0): forced
  net_.switch_cell(0, 0);  // rn (0) < sn (1): equivalence replacement
  ASSERT_EQ(harness_.log(slot).forced(), 1u);

  const obs::ProbeEvent* forced = the_forced();
  ASSERT_NE(forced, nullptr);
  EXPECT_EQ(forced->rule, obs::ForcedRule::kSnGreater);
  EXPECT_EQ(forced->actor, 1);
  EXPECT_EQ(forced->b, sent_msg_id(1));
  bool saw_replacement = false;
  for (const obs::ProbeEvent& e : timeline_.events()) {
    if (e.kind == obs::ProbeKind::kCheckpoint && e.replaced) {
      saw_replacement = true;
      EXPECT_EQ(e.actor, 0);
      EXPECT_EQ(e.ckpt_kind, obs::CkptKind::kBasic);
    }
  }
  EXPECT_TRUE(saw_replacement);
}

TEST_F(ScriptedRun, ForcedCheckpointEventPrecedesTheDeliverEvent) {
  // The tracker's interval accounting (receiver interval at delivery)
  // relies on this ordering; pin it.
  harness_.add_protocol(std::make_unique<core::BcsProtocol>());
  net_.start({0, 0, 1});
  net_.switch_cell(0, 1);
  net_.send_app_message(0, 1, 8);
  sim_.run();
  net_.consume_one(1);
  i64 forced_at = -1, deliver_at = -1;
  const auto& events = timeline_.events();
  for (usize i = 0; i < events.size(); ++i) {
    if (events[i].kind == obs::ProbeKind::kCheckpoint &&
        events[i].ckpt_kind == obs::CkptKind::kForced) {
      forced_at = static_cast<i64>(i);
    }
    if (events[i].kind == obs::ProbeKind::kDeliver) deliver_at = static_cast<i64>(i);
  }
  ASSERT_GE(forced_at, 0);
  ASSERT_GE(deliver_at, 0);
  EXPECT_LT(forced_at, deliver_at);
}

TEST(CausalAttribution, CoordinatedForcedCheckpointsAreAllMarkerDriven) {
  sim::SimConfig cfg = small_cfg(7);
  cfg.sim_length = 1'500.0;
  obs::RunObserver observer;
  sim::ExperimentOptions opts;
  opts.protocols = {ProtocolKind::kCoordinated};
  opts.observer = &observer;
  sim::Experiment exp(cfg, opts);
  exp.run();
  const sim::ProtocolRunStats& stats = exp.result().protocols.at(0);

  u64 forced_events = 0;
  for (const obs::ProbeEvent& e : observer.timeline().events()) {
    if (e.kind != obs::ProbeKind::kCheckpoint || e.ckpt_kind != obs::CkptKind::kForced) continue;
    ++forced_events;
    EXPECT_EQ(e.rule, obs::ForcedRule::kMarker);
    EXPECT_EQ(e.b, 0u) << "marker-forced checkpoints have no triggering app message";
  }
  EXPECT_GT(stats.forced, 0u);
  EXPECT_EQ(forced_events, stats.forced);
}

// -- the explainer -----------------------------------------------------

TEST(CausalExplain, ChainStartsAtTheTargetAndFollowsTriggeringSends) {
  const sim::SimConfig cfg = small_cfg(19);
  obs::RunObserver observer;
  sim::ExperimentOptions opts;
  opts.observer = &observer;
  sim::Experiment exp(cfg, opts);
  exp.run();

  // Pick the first forced BCS checkpoint off the timeline, deriving its
  // per-host ordinal the same way the explainer does (event order).
  constexpr i32 kSlot = 1;  // BCS in the default protocol set
  i32 host = -1;
  u64 ordinal = 0;
  std::vector<u64> seen(cfg.network.n_hosts, 0);
  for (const obs::ProbeEvent& e : observer.timeline().events()) {
    if (e.kind != obs::ProbeKind::kCheckpoint || e.track != kSlot) continue;
    if (e.ckpt_kind == obs::CkptKind::kForced && host < 0) {
      host = e.actor;
      ordinal = seen[static_cast<usize>(e.actor)];
    }
    ++seen[static_cast<usize>(e.actor)];
  }
  ASSERT_GE(host, 0) << "run produced no forced BCS checkpoint";

  const auto chain = obs::explain_checkpoint_chain(observer.timeline(), kSlot, host, ordinal);
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(chain[0].host, host);
  EXPECT_EQ(chain[0].ordinal, ordinal);
  EXPECT_EQ(chain[0].ckpt_kind, obs::CkptKind::kForced);
  EXPECT_NE(chain[0].trigger_msg, 0u);
  for (usize i = 0; i + 1 < chain.size(); ++i) {
    // Each next step is the sender-side checkpoint behind the trigger.
    ASSERT_TRUE(chain[i].msg_found);
    EXPECT_EQ(chain[i + 1].host, chain[i].msg_src);
    EXPECT_LE(chain[i + 1].t, chain[i].t);
  }
  const obs::ChainStep& last = chain.back();
  EXPECT_TRUE(last.trigger_msg == 0 || !last.msg_found || chain.size() == 16u);

  // Out-of-range targets are reported as empty, not fabricated.
  EXPECT_TRUE(obs::explain_checkpoint_chain(observer.timeline(), kSlot, host, 100'000).empty());

  // The CLI-facing printer renders the same chain without throwing.
  std::ostringstream os;
  sim::print_checkpoint_chain(os, observer.timeline(), {"TP", "BCS", "QBC"}, kSlot, host, ordinal);
  EXPECT_NE(os.str().find("causal chain for BCS"), std::string::npos);
  EXPECT_NE(os.str().find("triggered by msg"), std::string::npos);
}

TEST(CausalExplain, ParseCkptTargetValidatesSpecAndProtocolName) {
  const std::vector<std::string> names = {"TP", "BCS", "QBC"};
  const sim::CkptTarget t = sim::parse_ckpt_target("bcs:2:5", names);
  EXPECT_EQ(t.slot, 1u);
  EXPECT_EQ(t.host, 2u);
  EXPECT_EQ(t.ordinal, 5u);
  EXPECT_THROW(sim::parse_ckpt_target("NOPE:1:2", names), std::invalid_argument);
  EXPECT_THROW(sim::parse_ckpt_target("BCS:1", names), std::invalid_argument);
  EXPECT_THROW(sim::parse_ckpt_target("BCS:x:2", names), std::invalid_argument);
}

// -- tracker edge cases ------------------------------------------------

TEST(TrackerEdgeCases, ConstructionAndQueriesGuardTheirDomains) {
  EXPECT_THROW(obs::RecoveryLineTracker(obs::TrackerMode::kIndexFirstAtLeast, 0),
               std::invalid_argument);
  obs::RecoveryLineTracker index(obs::TrackerMode::kIndexFirstAtLeast, 2);
  EXPECT_THROW(index.tp_line(0, 0), std::logic_error);   // wrong mode
  EXPECT_THROW(index.on_z_cycle(0, 1), std::logic_error);  // before finalize
  // Unknown deliveries (no recorded send) are ignored, not invented.
  index.on_deliver(0, 42);
  EXPECT_EQ(index.max_forced_chain(), 0u);
}

// -- scripted Z-cycle analysis -------------------------------------------
//
// The tracker fed straight from probe-event calls, no simulation: each
// event lands in the host's open interval (checkpoint count minus one).

/// The IntervalGraph.ClassicZCycle pattern on two hosts: m2 leaves host
/// 1's interval 1 and reaches host 0 before C_{0,1}; m1 leaves host 0
/// after C_{0,1} and reaches host 1 in interval 1.
void script_textbook_pattern(obs::RecoveryLineTracker& t) {
  t.on_checkpoint(0, 0, obs::CkptKind::kInitial, 0);
  t.on_checkpoint(1, 0, obs::CkptKind::kInitial, 0);
  t.on_checkpoint(1, 1, obs::CkptKind::kBasic, 0);
  t.on_send(1, 2);     // m2 from (1,1)
  t.on_deliver(0, 2);  //    into (0,0)
  t.on_checkpoint(0, 1, obs::CkptKind::kBasic, 0);
  t.on_send(0, 1);     // m1 from (0,1)
  t.on_deliver(1, 1);  //    into (1,1)
}

TEST(TrackerZCycle, TextbookTwoMessagePatternMakesOnlyTheBracketedCheckpointUseless) {
  obs::RecoveryLineTracker t(obs::TrackerMode::kIndexFirstAtLeast, 2);
  script_textbook_pattern(t);
  t.finalize();
  EXPECT_TRUE(t.on_z_cycle(0, 1));
  EXPECT_FALSE(t.on_z_cycle(1, 1));
  EXPECT_FALSE(t.on_z_cycle(0, 0));  // initial checkpoints are never useless
  EXPECT_EQ(t.useless_count(), 1u);
}

TEST(TrackerZCycle, ZigzagThroughThreeHosts) {
  // (0,1) -a-> (1,0) -b-> (2,0) -c-> (0,0). Host 1 sends b before it
  // receives a, so the cycle is a zigzag, not a causal chain.
  obs::RecoveryLineTracker t(obs::TrackerMode::kIndexFirstAtLeast, 3);
  for (u32 h = 0; h < 3; ++h) t.on_checkpoint(h, 0, obs::CkptKind::kInitial, 0);
  t.on_send(2, 3);  // c
  t.on_deliver(0, 3);
  t.on_checkpoint(0, 1, obs::CkptKind::kBasic, 0);
  t.on_send(1, 2);  // b
  t.on_send(0, 1);  // a
  t.on_deliver(1, 1);
  t.on_deliver(2, 2);
  t.on_checkpoint(1, 1, obs::CkptKind::kBasic, 0);
  t.on_checkpoint(2, 1, obs::CkptKind::kBasic, 0);
  t.finalize();
  EXPECT_TRUE(t.on_z_cycle(0, 1));
  EXPECT_FALSE(t.on_z_cycle(1, 1));
  EXPECT_FALSE(t.on_z_cycle(2, 1));
  EXPECT_EQ(t.useless_count(), 1u);
}

TEST(TrackerZCycle, DeepChainClosedByOneZigzagIsWalkedIteratively) {
  // Host 0 takes 2*10^5 checkpoints; one message pair through host 1
  // links its last interval back to its first. Every checkpoint of host 0
  // after the initial one lies on that cycle. A recursive SCC walk would
  // need a native stack frame per interval here.
  constexpr u64 kCheckpoints = 200'000;
  obs::RecoveryLineTracker t(obs::TrackerMode::kIndexFirstAtLeast, 2);
  t.on_checkpoint(0, 0, obs::CkptKind::kInitial, 0);
  t.on_checkpoint(1, 0, obs::CkptKind::kInitial, 0);
  t.on_send(1, 1);
  t.on_deliver(0, 1);  // into (0,0)
  for (u64 x = 1; x < kCheckpoints; ++x) t.on_checkpoint(0, x, obs::CkptKind::kBasic, 0);
  t.on_send(0, 2);  // from (0, kCheckpoints-1)
  t.on_deliver(1, 2);
  t.finalize();
  EXPECT_EQ(t.useless_count(), kCheckpoints - 1);
  for (u64 x = 1; x < kCheckpoints; ++x) ASSERT_TRUE(t.on_z_cycle(0, x)) << x;
}

TEST(TrackerZCycle, FinalizeTwiceKeepsVerdictsAndCounters) {
  obs::MetricRegistry registry;
  obs::RecoveryLineTracker t(obs::TrackerMode::kIndexFirstAtLeast, 2);
  t.resolve_metrics(registry, "rl.0.X");
  script_textbook_pattern(t);
  t.finalize();
  t.finalize();
  EXPECT_EQ(t.useless_count(), 1u);
  EXPECT_TRUE(t.on_z_cycle(0, 1));
  EXPECT_FALSE(t.on_z_cycle(1, 1));
  EXPECT_EQ(registry.find_counter("rl.0.X.useless_checkpoints")->value(), 1u);
}

}  // namespace
}  // namespace mobichk
