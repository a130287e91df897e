// CONT: channel contention under limited wireless bandwidth (paper §2.1
// point b).
//
// With a finite cell bandwidth every transmission — payload, piggyback,
// control — occupies the shared channel. TP's dependency piggybacks (per-
// destination deltas of its two n-vectors, several times one integer) are
// not just battery cost: they raise channel utilization and delivery
// latency for *everyone* in the cell. Each protocol runs alone here (its bytes
// are physically on the wire), so the comparison is end to end.
#include <cstdio>

#include "sim/cli.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace mobichk;
  const sim::ArgParser args(argc, argv);

  const core::ProtocolKind kinds[] = {core::ProtocolKind::kTp, core::ProtocolKind::kBcs,
                                      core::ProtocolKind::kQbc};

  std::printf("CONT — delivery latency and channel utilization vs cell bandwidth\n"
              "(each protocol alone on the wire; payload 1 KiB, busy traffic, no disconnections)\n\n");
  std::printf("%12s  %-8s %16s %16s %14s\n", "bandwidth", "proto", "mean latency", "p-lat x ideal",
              "utilization");

  for (const f64 bw : {5'000.0, 2'000.0, 1'200.0}) {
    for (const auto kind : kinds) {
      sim::SimConfig cfg;
      cfg.sim_length = args.get_f64("length", 50'000.0);
      cfg.t_switch = 1'000.0;
      cfg.p_switch = 1.0;        // keep buffering delays out of the latency signal
      cfg.comm_mean = 5.0;       // busy application traffic
      cfg.payload_bytes = 1024;
      cfg.seed = 9;
      cfg.network.wireless_bandwidth = bw;
      sim::ExperimentOptions opts;
      opts.protocols = {kind};
      sim::Experiment exp(cfg, opts);
      exp.run();
      const auto& r = exp.result();
      f64 util = 0.0;
      for (net::MssId m = 0; m < exp.network().n_mss(); ++m) {
        util += exp.network().channel(m).utilization(cfg.sim_length);
      }
      util /= static_cast<f64>(exp.network().n_mss());
      const f64 ideal = 2.0 * cfg.network.wireless_latency;  // two propagation hops
      std::printf("%10.0f    %-8s %14.4f %15.1fx %13.1f%%\n", bw,
                  core::protocol_kind_name(kind), r.net.delivery_latency.mean(),
                  r.net.delivery_latency.mean() / ideal, 100.0 * util);
    }
    std::printf("\n");
  }
  std::printf("expected: TP's dependency deltas, several times one integer, push utilization\n"
              "and latency up a few percent more as bandwidth shrinks; the one-integer\n"
              "protocols degrade together and gently.\n");
  return 0;
}
