// ABL3: incremental vs full checkpointing (paper §2.2).
//
// The paper motivates incremental checkpointing as the way to cut the
// wireless (battery / channel) cost of transferring MH state to the MSS.
// This bench quantifies it: checkpoint bytes shipped over the wireless
// link under both modes, and the wired fetch traffic incremental mode
// pays on cell switches, across the mobility sweep.
#include <cstdio>

#include "sim/cli.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace mobichk;
  const sim::ArgParser args(argc, argv);

  std::printf("ABL3 — checkpoint-storage traffic, QBC, incremental vs full "
              "(1 MiB state, dirty rate 0.01/tu, P_switch=0.8)\n");
  std::printf("%10s %16s %16s %12s %16s %12s\n", "Tswitch", "incr-radio(MB)", "full-radio(MB)",
              "saving", "incr-wired(MB)", "fetches");

  for (const f64 ts : {100.0, 500.0, 1'000.0, 5'000.0, 10'000.0}) {
    sim::SimConfig cfg;
    cfg.sim_length = args.get_f64("length", 50'000.0);
    cfg.t_switch = ts;
    cfg.p_switch = 0.8;
    cfg.seed = 11;

    sim::ExperimentOptions incr;
    incr.protocols = {core::ProtocolKind::kQbc};
    incr.data_plane.incremental = true;
    sim::ExperimentOptions full = incr;
    full.data_plane.incremental = false;

    const auto ri = sim::run_experiment(cfg, incr).protocols[0];
    const auto rf = sim::run_experiment(cfg, full).protocols[0];
    const f64 saving = 100.0 * (1.0 - static_cast<f64>(ri.storage_wireless_bytes) /
                                          static_cast<f64>(rf.storage_wireless_bytes));
    std::printf("%10.0f %16.1f %16.1f %11.1f%% %16.1f %12llu\n", ts,
                static_cast<f64>(ri.storage_wireless_bytes) / 1e6,
                static_cast<f64>(rf.storage_wireless_bytes) / 1e6, saving,
                static_cast<f64>(ri.storage_wired_bytes) / 1e6,
                static_cast<unsigned long long>(ri.storage_transfers));
  }
  std::printf("\nexpected: incremental saves most radio bytes when checkpoints are frequent\n"
              "(small dirtied fraction per interval) and pays wired fetches on cell switches\n"
              "— exactly the trade-off §2.2 describes.\n");
  return 0;
}
