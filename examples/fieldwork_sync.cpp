// Scenario: a field-service fleet.
//
// A dispatch application runs across 12 mobile terminals: 4 courier vans
// that cross cells every few minutes (fast movers) and 8 field-engineer
// tablets that mostly stay put but regularly power down between jobs
// (voluntary disconnections). The terminals exchange work orders and
// status updates; the operator wants fault tolerance without draining
// batteries on checkpoint uploads.
//
// This example models that fleet with the library's heterogeneous
// mobility support and reports, per protocol, the checkpoint count, the
// radio bytes spent on checkpoint uploads, and the control-information
// overhead — the numbers an integrator would use to pick a protocol.
#include <cstdio>

#include "mobichk.hpp"

int main(int argc, char** argv) {
  using namespace mobichk;
  const sim::ArgParser args(argc, argv);

  sim::SimConfig cfg;
  cfg.network.n_hosts = 12;
  cfg.network.n_mss = 6;
  cfg.sim_length = args.get_f64("length", 200'000.0);
  cfg.seed = args.get_u64("seed", 2026);
  // 4 of 12 terminals are fast movers: heterogeneity 1/3, factor 10.
  cfg.heterogeneity = 4.0 / 12.0;
  cfg.fast_factor = 10.0;
  cfg.t_switch = 3'000.0;      // tablets cross a cell every ~3000 tu
  cfg.p_switch = 0.75;         // a quarter of mobility events are power-downs
  cfg.disconnect_mean = 800.0; // off between jobs
  cfg.comm_mean = 25.0;        // work orders flow steadily
  cfg.p_send = 0.4;

  sim::ExperimentOptions opts;
  opts.data_plane.full_state_bytes = 4u << 20;  // 4 MiB terminal state
  opts.data_plane.dirty_rate = 0.002;           // slowly mutating order book
  opts.verify_consistency = true;

  const sim::RunResult r = sim::run_experiment(cfg, opts);

  std::printf("Field-service fleet: %u terminals (%u fast vans), %u base stations, %.0f tu\n",
              cfg.network.n_hosts, cfg.fast_host_count(), cfg.network.n_mss, cfg.sim_length);
  std::printf("traffic: %llu work orders sent, %llu handoffs, %llu power-downs\n\n",
              static_cast<unsigned long long>(r.net.app_sent),
              static_cast<unsigned long long>(r.net.handoffs),
              static_cast<unsigned long long>(r.net.disconnects));

  std::printf("%-8s %10s %12s %16s %16s %12s\n", "proto", "N_tot", "ckpt/hour*",
              "radio upload(MB)", "control(KB)", "consistent");
  for (const auto& p : r.protocols) {
    std::printf("%-8s %10llu %12.2f %16.1f %16.1f %12s\n", p.name.c_str(),
                static_cast<unsigned long long>(p.n_tot),
                static_cast<f64>(p.n_tot) / (cfg.sim_length / 3600.0),
                static_cast<f64>(p.storage_wireless_bytes) / 1e6,
                static_cast<f64>(p.piggyback_bytes) / 1e3,
                p.orphans_found == 0 ? "yes" : "NO");
  }
  std::printf("(* one 'hour' = 3600 tu)\n\n");

  const auto& tp = r.by_name("TP");
  const auto& bcs = r.by_name("BCS");
  const auto& qbc = r.by_name("QBC");
  std::printf("QBC saves %.1f%% of TP's checkpoint uploads and %.1f%% of BCS's;\n",
              100.0 * (1.0 - static_cast<f64>(qbc.storage_wireless_bytes) /
                                 static_cast<f64>(tp.storage_wireless_bytes)),
              100.0 * (1.0 - static_cast<f64>(qbc.storage_wireless_bytes) /
                                 static_cast<f64>(bcs.storage_wireless_bytes)));
  std::printf("its control overhead is %.0fx smaller than TP's per message.\n",
              static_cast<f64>(tp.piggyback_bytes) / static_cast<f64>(qbc.piggyback_bytes));
  return 0;
}
