// GC: stable-storage occupancy with checkpoint garbage collection.
//
// MSS stable storage is the resource §2.1(a) puts the checkpoints on.
// Once every host has reached index M, everything older than the
// M-line's members is dead. This bench reports, per protocol, how much
// of the log a continuous GC retains over time — and shows the flip side
// of lazy indexing: LazyBCS's slow index growth also slows GC down.
#include <cstdio>

#include "core/gc.hpp"
#include "sim/cli.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace mobichk;
  const sim::ArgParser args(argc, argv);

  sim::SimConfig cfg;
  cfg.sim_length = args.get_f64("length", 100'000.0);
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 0.8;
  cfg.seed = 6;
  sim::ExperimentOptions opts;
  opts.protocols = {core::ProtocolKind::kBcs, core::ProtocolKind::kQbc,
                    core::ProtocolKind::kLazyBcs};
  opts.params.lazy_bcs_laziness = 8;
  sim::Experiment exp(cfg, opts);
  exp.run();

  std::printf("GC — checkpoints retained by continuous garbage collection (horizon %.0f tu)\n\n",
              cfg.sim_length);
  std::printf("%-10s %12s %14s %14s %12s %14s %14s\n", "proto", "taken", "retained@end",
              "collectible", "stable idx", "peak retained", "reclaim(MB)");
  for (usize slot = 0; slot < opts.protocols.size(); ++slot) {
    const auto& log = exp.log(slot);
    const auto rule = core::recovery_rule_for(opts.protocols[slot]);
    const auto gc = core::analyze_gc(log, rule, exp.network().n_mss());
    const auto timeline = core::gc_occupancy_timeline(log, rule, cfg.sim_length, 50);
    u64 peak = 0;
    for (const auto& s : timeline) peak = std::max(peak, s.live_with_gc);
    const u64 reclaim = core::gc_reclaimable_bytes(gc, log, opts.data_plane);
    std::printf("%-10s %12llu %14llu %14llu %12llu %14llu %14.1f\n",
                core::protocol_kind_name(opts.protocols[slot]),
                static_cast<unsigned long long>(log.total()),
                static_cast<unsigned long long>(gc.total_retained(log)),
                static_cast<unsigned long long>(gc.total_collectible()),
                static_cast<unsigned long long>(gc.stable_index),
                static_cast<unsigned long long>(peak), static_cast<f64>(reclaim) / 1e6);
  }
  std::printf("\nexpected: with GC the live set stays near one checkpoint per host for\n"
              "BCS/QBC (indices advance briskly and lines stabilize), while LazyBCS's\n"
              "reluctant index lets garbage pile up between increments.\n");
  return 0;
}
