// ENER: mobile-host energy per protocol (paper §2.1 point e).
//
// Applies the radio energy model to the figure-2 environment across the
// T_switch sweep, splitting each protocol's cost into control
// information, dedicated control messages and checkpoint uploads — the
// battery budget the paper's design guidelines are about.
#include <cstdio>

#include "sim/cli.hpp"
#include "sim/energy.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace mobichk;
  const sim::ArgParser args(argc, argv);

  sim::ExperimentOptions opts;
  opts.protocols = {core::ProtocolKind::kTp, core::ProtocolKind::kBcs, core::ProtocolKind::kQbc,
                    core::ProtocolKind::kCoordinated};
  const sim::EnergyConfig ecfg;

  std::printf("ENER — checkpointing energy (J) per protocol, P_switch=0.8, H=0%%\n");
  std::printf("(split: piggybacked info + dedicated messages + checkpoint uploads)\n\n");
  std::printf("%10s  %-8s %12s %12s %12s %14s\n", "Tswitch", "proto", "ctrl-info", "ctrl-msgs",
              "ckpt-upload", "ckpt total");

  for (const f64 ts : {100.0, 1'000.0, 10'000.0}) {
    sim::SimConfig cfg;
    cfg.sim_length = args.get_f64("length", 100'000.0);
    cfg.t_switch = ts;
    cfg.p_switch = 0.8;
    cfg.seed = 4;
    const sim::RunResult r = sim::run_experiment(cfg, opts);
    for (const auto& p : r.protocols) {
      const sim::EnergyBreakdown e = sim::estimate_energy(ecfg, r.net, p);
      std::printf("%10.0f  %-8s %12.3f %12.3f %12.3f %14.3f\n", ts, p.name.c_str(),
                  e.control_info, e.control_messages, e.checkpoint_upload,
                  e.checkpointing_total());
    }
    std::printf("\n");
  }
  std::printf("expected: checkpoint uploads dominate and follow N_tot, so QBC spends the\n"
              "least; TP additionally pays its dependency deltas (a few times BCS's\n"
              "control-info energy at n = 10); COORD pays marker traffic.\n");
  return 0;
}
