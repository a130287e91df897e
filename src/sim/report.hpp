// Structured (JSON) serialization of experiment results, for dashboards,
// notebooks and regression tooling.
#pragma once

#include <iosfwd>

#include "sim/experiment.hpp"
#include "sim/json.hpp"
#include "sim/sweep.hpp"

namespace mobichk::sim {

/// Full run result: configuration echo, substrate stats, per-protocol
/// checkpoint/overhead numbers.
void write_json(std::ostream& os, const RunResult& result);

/// Figure sweep: the t_switch series with mean / CI / min / max /
/// replication cells, the precision echo and the sweep ledger.
void write_json(std::ostream& os, const FigureResult& result);

/// Sweep specification (title, points, protocols, precision fields and
/// the swept base-config parameters). Round-trips through
/// figure_spec_from_json.
void write_json(std::ostream& os, const FigureSpec& spec);

/// Sweep cost ledger, standalone (the same object is embedded in the
/// FigureResult JSON under "ledger"). Round-trips through
/// sweep_ledger_from_json.
void write_json(std::ostream& os, const SweepLedger& ledger);

/// Inverse of write_json(FigureSpec): absent members keep their spec
/// defaults; malformed members throw std::invalid_argument.
FigureSpec figure_spec_from_json(const JsonValue& json);

/// Inverse of write_json(RunResult). Reconstructs everything the writer
/// emits: config echo, network stats (delivery latency collapses to its
/// mean — the writer only serializes the mean), per-protocol stats
/// (kind recovered from the name), counters, the exact u64 trace hash
/// and the metric snapshot. Fields the writer omits (wall_seconds, the
/// full invariants ledger) stay default. write → parse → write is
/// byte-identical.
RunResult run_result_from_json(const JsonValue& json);

/// Inverse of write_json(SweepLedger); also accepts the "ledger" object
/// inside a FigureResult document. events_per_second is derived, not
/// stored.
SweepLedger sweep_ledger_from_json(const JsonValue& json);

}  // namespace mobichk::sim
