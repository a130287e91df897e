// ABL2: control-information volume and scalability in the number of hosts
// (paper §2.2 and §4.1).
//
// The paper's TP piggybacks two vectors of n integers on every application
// message; BCS/QBC piggyback a single integer. This bench sweeps the host
// count and reports the control bytes each protocol ships over the
// wireless links — the scalability argument (§4.1: "the TP protocol does
// not scale while changing the number of hosts") made quantitative. TP
// gets two columns: the bytes its per-destination deltas actually ship,
// and the dense-equivalent bytes the paper's two full vectors would cost.
#include <cstdio>

#include "sim/cli.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace mobichk;
  const sim::ArgParser args(argc, argv);

  std::printf("ABL2 — piggybacked control bytes vs number of hosts "
              "(T_switch=1000, P_switch=0.8)\n");
  std::printf("%8s %12s %14s %14s %12s %12s %12s %12s\n", "hosts", "messages", "TP enc(B)",
              "TP dense(B)", "BCS(B)", "QBC(B)", "TP enc/msg", "TP dense/msg");

  for (const u32 hosts : {5u, 10u, 20u, 40u, 80u}) {
    sim::SimConfig cfg;
    cfg.network.n_hosts = hosts;
    cfg.sim_length = args.get_f64("length", 20'000.0);
    cfg.t_switch = 1'000.0;
    cfg.p_switch = 0.8;
    cfg.seed = 7;
    const sim::RunResult r = sim::run_experiment(cfg);
    const sim::ProtocolRunStats& tp = r.by_name("TP");
    const auto sent = static_cast<f64>(r.net.app_sent);
    std::printf("%8u %12llu %14llu %14llu %12llu %12llu %12.1f %12.1f\n", hosts,
                static_cast<unsigned long long>(r.net.app_sent),
                static_cast<unsigned long long>(tp.piggyback_bytes),
                static_cast<unsigned long long>(tp.piggyback_dense_bytes),
                static_cast<unsigned long long>(r.by_name("BCS").piggyback_bytes),
                static_cast<unsigned long long>(r.by_name("QBC").piggyback_bytes),
                static_cast<f64>(tp.piggyback_bytes) / sent,
                static_cast<f64>(tp.piggyback_dense_bytes) / sent);
  }
  std::printf("\nexpected: TP dense/msg is exactly 8n (2n x 4B, the paper's cost); the deltas\n"
              "TP ships cost about a third of that and also grow with n as dependencies\n"
              "spread; BCS/QBC stay at 8 bytes regardless — the open-system scalability "
              "answer.\n");
  return 0;
}
