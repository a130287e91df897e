// Simulation configuration: the paper's model parameters (§5.1) plus the
// extensions this library adds (alternate mobility models, checkpoint
// latency, storage accounting).
#pragma once

#include <string_view>

#include "core/recovery_time.hpp"
#include "des/types.hpp"
#include "net/network.hpp"

namespace mobichk::sim {

/// Which mobility model drives cell residence and switching. The paper
/// uses exponential residence with uniform target cells; the alternates
/// let experiments vary the mobility assumptions (§1: "several models
/// have been considered for the hosts mobility").
enum class MobilityModelKind : u8 {
  /// Exponential residence; switch target uniform over the other MSSs.
  kPaperUniform,
  /// Exponential residence; cells form a ring, switches go to a ring
  /// neighbour (models geographic adjacency).
  kRingNeighbor,
  /// Pareto (heavy-tailed) residence with the same mean; uniform targets.
  /// Models the empirical observation that cell dwell times are bursty.
  kParetoResidence,
};

const char* mobility_model_name(MobilityModelKind kind) noexcept;

/// Inverse of mobility_model_name; throws std::invalid_argument on an
/// unknown name.
MobilityModelKind mobility_model_from_name(std::string_view name);

/// Which failure pattern the crash engine injects (ROADMAP: executed
/// recovery — the paper's §6 future work).
enum class CrashMode : u8 {
  kNone = 0,     ///< No failures (the default; runs stay trace-identical).
  kMhCrash,      ///< Independent single-MH crashes.
  kCorrelated,   ///< `correlated` hosts fail at the same instant.
  kCellOutage,   ///< Every host attached to one MSS fails at once.
};

const char* crash_mode_name(CrashMode mode) noexcept;

/// Inverse of crash_mode_name; throws std::invalid_argument on an unknown
/// name.
CrashMode crash_mode_from_name(std::string_view name);

/// Crash-scenario parameters. Failures perturb the trace, so (like
/// ckpt_latency) executed recovery is meaningful in single-protocol runs;
/// multi-protocol runs still record per-slot rollback measurements
/// against the shared trace, but only slot 0's line is physically
/// restored.
struct FaultConfig {
  CrashMode mode = CrashMode::kNone;
  f64 first_crash_at = 0.0;  ///< Time of the first failure; > 0 when enabled.
  f64 crash_interval = 0.0;  ///< Mean gap to the next failure (0 = one-shot).
  u32 max_crashes = 1;       ///< Stop injecting after this many failures.
  /// Victim chosen uniformly at random among live hosts (or cells).
  static constexpr u32 kRandomTarget = 0xFFFFFFFFu;
  u32 target = kRandomTarget;  ///< Fixed victim host (kMhCrash) or cell (kCellOutage).
  u32 correlated = 2;          ///< Victim count under kCorrelated.
  core::RecoveryTimeConfig recovery;  ///< Cost model driving executed recovery.

  bool enabled() const noexcept { return mode != CrashMode::kNone; }
  void validate(u32 n_hosts, u32 n_mss) const;
};

/// All parameters of one simulation run.
struct SimConfig {
  net::NetworkConfig network;  ///< 10 MHs, 5 MSSs, 0.01 tu hops by default.

  f64 sim_length = 100'000.0;  ///< Run horizon in time units.
  u64 seed = 1;                ///< Root seed; fully determines the run.

  // -- workload (paper §5.1) --------------------------------------------
  f64 internal_mean = 1.0;  ///< Mean execution time of one internal event.
  /// Mean time between two communication operations of a host; the gap is
  /// filled with internal events (gap / internal_mean of them on average).
  /// The paper does not state its communication rate explicitly; this
  /// default is calibrated so the relative shapes of Figures 1-6 (who
  /// wins, by what factor, where the QBC gain peaks) match the paper —
  /// see DESIGN.md ("Substitutions") and EXPERIMENTS.md.
  f64 comm_mean = 20.0;
  f64 p_send = 0.4;         ///< P_s: a communication is a send w.p. P_s, else a receive.
  u32 payload_bytes = 256;  ///< Application payload per message.

  // -- mobility (paper §5.1) --------------------------------------------
  MobilityModelKind mobility_model = MobilityModelKind::kPaperUniform;
  f64 t_switch = 1'000.0;     ///< Mean cell-residence time of slow MHs.
  f64 p_switch = 1.0;         ///< Prob. the next mobility event is a switch (else disconnect).
  f64 disconnect_residence_divisor = 3.0;  ///< Residence before disconnecting = T_switch / this.
  f64 disconnect_mean = 1'000.0;           ///< Mean disconnection duration.
  f64 heterogeneity = 0.0;    ///< H: fraction of fast MHs.
  f64 fast_factor = 10.0;     ///< Fast MHs use T_switch / fast_factor.

  // -- extensions ---------------------------------------------------------
  /// Time the host is stalled per checkpoint (paper §5.1 remark: results
  /// are insensitive to it; ablation ABL1 reproduces that). Meaningful
  /// only in single-protocol runs (a non-zero value perturbs the trace).
  f64 ckpt_latency = 0.0;

  /// Crash-scenario engine parameters (disabled by default).
  FaultConfig faults;

  /// Number of fast MHs implied by `heterogeneity` (paper convention:
  /// hosts 0..k-1 are the fast ones).
  u32 fast_host_count() const noexcept;

  /// Mean residence time for a given host under the heterogeneity split.
  f64 residence_mean_for(net::HostId host) const noexcept;

  void validate() const;
};

}  // namespace mobichk::sim
