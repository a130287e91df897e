#include "sim/config.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mobichk::sim {

const char* mobility_model_name(MobilityModelKind kind) noexcept {
  switch (kind) {
    case MobilityModelKind::kPaperUniform: return "paper-uniform";
    case MobilityModelKind::kRingNeighbor: return "ring-neighbor";
    case MobilityModelKind::kParetoResidence: return "pareto-residence";
  }
  return "?";
}

MobilityModelKind mobility_model_from_name(std::string_view name) {
  for (const auto kind : {MobilityModelKind::kPaperUniform, MobilityModelKind::kRingNeighbor,
                          MobilityModelKind::kParetoResidence}) {
    if (name == mobility_model_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown mobility model: " + std::string(name));
}

const char* crash_mode_name(CrashMode mode) noexcept {
  switch (mode) {
    case CrashMode::kNone: return "none";
    case CrashMode::kMhCrash: return "host";
    case CrashMode::kCorrelated: return "correlated";
    case CrashMode::kCellOutage: return "cell";
  }
  return "?";
}

CrashMode crash_mode_from_name(std::string_view name) {
  for (const auto mode : {CrashMode::kNone, CrashMode::kMhCrash, CrashMode::kCorrelated,
                          CrashMode::kCellOutage}) {
    if (name == crash_mode_name(mode)) return mode;
  }
  throw std::invalid_argument("unknown crash mode: " + std::string(name));
}

void FaultConfig::validate(u32 n_hosts, u32 n_mss) const {
  if (!enabled()) return;
  if (first_crash_at < 0.0) {
    throw std::invalid_argument("FaultConfig: first_crash_at must be >= 0");
  }
  if (crash_interval < 0.0) {
    throw std::invalid_argument("FaultConfig: crash_interval must be >= 0");
  }
  if (max_crashes == 0) throw std::invalid_argument("FaultConfig: max_crashes must be >= 1");
  if (target != kRandomTarget) {
    if (mode == CrashMode::kCellOutage && target >= n_mss) {
      throw std::invalid_argument("FaultConfig: target cell out of range");
    }
    if (mode != CrashMode::kCellOutage && target >= n_hosts) {
      throw std::invalid_argument("FaultConfig: target host out of range");
    }
  }
  if (mode == CrashMode::kCorrelated && (correlated == 0 || correlated > n_hosts)) {
    throw std::invalid_argument("FaultConfig: correlated count out of [1, n_hosts]");
  }
  recovery.validate();
}

u32 SimConfig::fast_host_count() const noexcept {
  return static_cast<u32>(
      std::llround(heterogeneity * static_cast<f64>(network.n_hosts)));
}

f64 SimConfig::residence_mean_for(net::HostId host) const noexcept {
  return host < fast_host_count() ? t_switch / fast_factor : t_switch;
}

void SimConfig::validate() const {
  network.validate();
  if (sim_length <= 0.0) throw std::invalid_argument("SimConfig: sim_length must be positive");
  if (internal_mean <= 0.0) throw std::invalid_argument("SimConfig: internal_mean must be positive");
  if (comm_mean <= 0.0) throw std::invalid_argument("SimConfig: comm_mean must be positive");
  if (p_send < 0.0 || p_send > 1.0) throw std::invalid_argument("SimConfig: p_send out of [0,1]");
  if (t_switch <= 0.0) throw std::invalid_argument("SimConfig: t_switch must be positive");
  if (p_switch < 0.0 || p_switch > 1.0) throw std::invalid_argument("SimConfig: p_switch out of [0,1]");
  if (disconnect_residence_divisor <= 0.0) {
    throw std::invalid_argument("SimConfig: disconnect_residence_divisor must be positive");
  }
  if (disconnect_mean <= 0.0) throw std::invalid_argument("SimConfig: disconnect_mean must be positive");
  if (heterogeneity < 0.0 || heterogeneity > 1.0) {
    throw std::invalid_argument("SimConfig: heterogeneity out of [0,1]");
  }
  if (fast_factor < 1.0) throw std::invalid_argument("SimConfig: fast_factor must be >= 1");
  if (ckpt_latency < 0.0) throw std::invalid_argument("SimConfig: ckpt_latency must be >= 0");
  if (p_switch < 1.0 && network.n_mss < 1) {
    throw std::invalid_argument("SimConfig: disconnections need an MSS to buffer at");
  }
  if (network.n_mss < 2 && p_switch > 0.0) {
    throw std::invalid_argument("SimConfig: cell switches need at least 2 MSSs");
  }
  faults.validate(network.n_hosts, network.n_mss);
}

}  // namespace mobichk::sim
