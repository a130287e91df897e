// Quickstart: run the paper's default scenario once and print what each
// protocol did.
//
//   ./quickstart [--length=100000] [--tswitch=1000] [--pswitch=1.0]
//                [--psend=0.4] [--h=0.0] [--seed=1] [--verify]
//
// This exercises the whole public API: configuration, the experiment
// runner with TP / BCS / QBC as paired observers, checkpoint-storage
// accounting, and (with --verify) the orphan-message consistency oracle.
#include <cstdio>

#include "mobichk.hpp"

int main(int argc, char** argv) {
  using namespace mobichk;
  const sim::ArgParser args(argc, argv);

  sim::SimConfig cfg;
  cfg.sim_length = args.get_f64("length", 100'000.0);
  cfg.t_switch = args.get_f64("tswitch", 1'000.0);
  cfg.p_switch = args.get_f64("pswitch", 1.0);
  cfg.p_send = args.get_f64("psend", 0.4);
  cfg.heterogeneity = args.get_f64("h", 0.0);
  cfg.seed = args.get_u64("seed", 1);

  sim::ExperimentOptions opts;
  opts.verify_consistency = args.get_flag("verify");

  const sim::RunResult result = sim::run_experiment(cfg, opts);

  std::printf("mobichk quickstart — %u MHs, %u MSSs, horizon %.0f tu, seed %llu\n",
              cfg.network.n_hosts, cfg.network.n_mss, cfg.sim_length,
              static_cast<unsigned long long>(cfg.seed));
  std::printf("workload: %llu ops, %llu sends, %llu receives; %llu handoffs, %llu disconnects\n",
              static_cast<unsigned long long>(result.workload_ops),
              static_cast<unsigned long long>(result.net.app_sent),
              static_cast<unsigned long long>(result.net.app_received),
              static_cast<unsigned long long>(result.net.handoffs),
              static_cast<unsigned long long>(result.net.disconnects));
  std::printf("\n%-8s %10s %10s %10s %10s %14s %12s\n", "proto", "N_tot", "basic", "forced",
              "max_idx", "piggyback(B)", "ckpt-up(MB)");
  for (const auto& p : result.protocols) {
    std::printf("%-8s %10llu %10llu %10llu %10llu %14llu %12.1f\n", p.name.c_str(),
                static_cast<unsigned long long>(p.n_tot),
                static_cast<unsigned long long>(p.basic),
                static_cast<unsigned long long>(p.forced),
                static_cast<unsigned long long>(p.max_index),
                static_cast<unsigned long long>(p.piggyback_bytes),
                static_cast<double>(p.storage_wireless_bytes) / 1e6);
  }
  if (opts.verify_consistency) {
    std::printf("\nconsistency oracle:\n");
    for (const auto& p : result.protocols) {
      std::printf("  %-8s %llu recovery lines checked, %llu orphan messages\n", p.name.c_str(),
                  static_cast<unsigned long long>(p.lines_checked),
                  static_cast<unsigned long long>(p.orphans_found));
    }
  }
  return 0;
}
