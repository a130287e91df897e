// Protocol factory: construct protocols by enum or name (CLI, benches).
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/protocol.hpp"
#include "core/recovery.hpp"

namespace mobichk::core {

enum class ProtocolKind : u8 {
  kTp,
  kBcs,
  kQbc,
  kBasicOnly,
  kUncoordinated,
  kCoordinated,
  kLazyBcs,
};

/// Tunables for the protocols that need them.
struct ProtocolParams {
  f64 uncoordinated_mean_period = 500.0;  ///< Mean local-timer period (tu).
  f64 coordinated_interval = 500.0;       ///< Time between snapshot rounds (tu).
  f64 coordinated_marker_latency = 0.03;  ///< Initiator-to-host marker delay (tu).
  u32 lazy_bcs_laziness = 4;              ///< LazyBCS: index advance every k-th basic ckpt.
};

/// `seed` is the run's root seed; it drives the uncoordinated protocol's
/// local timers.
std::unique_ptr<CheckpointProtocol> make_protocol(ProtocolKind kind, const ProtocolParams& params,
                                                  u64 seed);

/// Parses "TP", "BCS", "QBC", "BASIC", "UNCOORD", "COORD" (case-insensitive).
/// Throws std::invalid_argument on unknown names.
ProtocolKind protocol_kind_from_name(std::string_view name);

const char* protocol_kind_name(ProtocolKind kind) noexcept;

/// The recovery-line member rule each protocol's lines use.
IndexLineRule recovery_rule_for(ProtocolKind kind) noexcept;

/// All protocol kinds, in display order.
std::vector<ProtocolKind> all_protocol_kinds();

/// The three protocols the paper compares, in its order: TP, BCS, QBC.
std::vector<ProtocolKind> paper_protocol_kinds();

}  // namespace mobichk::core
