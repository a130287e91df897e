#include "core/factory.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>

#include "core/protocols/basic_only.hpp"
#include "core/protocols/bcs.hpp"
#include "core/protocols/coordinated.hpp"
#include "core/protocols/lazy_bcs.hpp"
#include "core/protocols/qbc.hpp"
#include "core/protocols/tp.hpp"
#include "core/protocols/uncoordinated.hpp"

namespace mobichk::core {

std::unique_ptr<CheckpointProtocol> make_protocol(ProtocolKind kind, const ProtocolParams& params,
                                                  u64 seed) {
  switch (kind) {
    case ProtocolKind::kTp:
      return std::make_unique<TpProtocol>();
    case ProtocolKind::kBcs:
      return std::make_unique<BcsProtocol>();
    case ProtocolKind::kQbc:
      return std::make_unique<QbcProtocol>();
    case ProtocolKind::kBasicOnly:
      return std::make_unique<BasicOnlyProtocol>();
    case ProtocolKind::kUncoordinated:
      return std::make_unique<UncoordinatedProtocol>(params.uncoordinated_mean_period, seed);
    case ProtocolKind::kCoordinated:
      return std::make_unique<CoordinatedProtocol>(params.coordinated_interval,
                                                   params.coordinated_marker_latency);
    case ProtocolKind::kLazyBcs:
      return std::make_unique<LazyBcsProtocol>(params.lazy_bcs_laziness);
  }
  throw std::invalid_argument("make_protocol: unknown kind");
}

ProtocolKind protocol_kind_from_name(std::string_view name) {
  std::string upper(name);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (upper == "TP") return ProtocolKind::kTp;
  if (upper == "BCS") return ProtocolKind::kBcs;
  if (upper == "QBC") return ProtocolKind::kQbc;
  if (upper == "BASIC") return ProtocolKind::kBasicOnly;
  if (upper == "UNCOORD") return ProtocolKind::kUncoordinated;
  if (upper == "COORD") return ProtocolKind::kCoordinated;
  if (upper == "LAZY-BCS" || upper == "LAZYBCS") return ProtocolKind::kLazyBcs;
  throw std::invalid_argument("unknown protocol name: " + std::string(name));
}

const char* protocol_kind_name(ProtocolKind kind) noexcept {
  switch (kind) {
    case ProtocolKind::kTp: return "TP";
    case ProtocolKind::kBcs: return "BCS";
    case ProtocolKind::kQbc: return "QBC";
    case ProtocolKind::kBasicOnly: return "BASIC";
    case ProtocolKind::kUncoordinated: return "UNCOORD";
    case ProtocolKind::kCoordinated: return "COORD";
    case ProtocolKind::kLazyBcs: return "LAZY-BCS";
  }
  return "?";
}

IndexLineRule recovery_rule_for(ProtocolKind kind) noexcept {
  return kind == ProtocolKind::kQbc ? IndexLineRule::kLastEqual : IndexLineRule::kFirstAtLeast;
}

std::vector<ProtocolKind> all_protocol_kinds() {
  return {ProtocolKind::kTp,        ProtocolKind::kBcs,           ProtocolKind::kQbc,
          ProtocolKind::kBasicOnly, ProtocolKind::kUncoordinated, ProtocolKind::kCoordinated,
          ProtocolKind::kLazyBcs};
}

std::vector<ProtocolKind> paper_protocol_kinds() {
  return {ProtocolKind::kTp, ProtocolKind::kBcs, ProtocolKind::kQbc};
}

}  // namespace mobichk::core
