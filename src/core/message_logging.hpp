// Message logging at the MSSs — the complementary recovery technique
// from the rollback-recovery literature the paper builds on (its ref
// [9], the Elnozahy–Johnson–Wang survey).
//
// Idea: MSSs already see every application message; if they retain them
// (pessimistic, station-based logging) then after a single-host failure
// only the *failed* host rolls back — to its own latest checkpoint — and
// re-executes deterministically, replaying its logged in-bound messages
// in receive order. Survivors keep running: no orphan can materialize
// because every message the failed host "un-receives" is replayed
// identically. The price is MSS log storage, which can be garbage
// collected up to the stable recovery line exactly like checkpoints.
//
// This module prices both sides:
//  * logging_rollback(): the rollback result under logging (failed host
//    only), directly comparable with rollback_to_consistent() /
//    index_rollback();
//  * log_storage_stats(): bytes the MSS logs hold, with and without GC.
#pragma once

#include <vector>

#include "core/checkpoint_log.hpp"
#include "core/message_log.hpp"
#include "core/recovery.hpp"
#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::core {

/// Rollback under station-based message logging: only `failed_host`
/// rolls back, to its latest checkpoint at or before its failure
/// position; every other host keeps its failure state (virtual member).
/// The deliveries the failed host replays are counted in
/// `replayed_deliveries`.
struct LoggingRollbackResult {
  RollbackResult rollback;
  u64 replayed_deliveries = 0;  ///< In-bound messages replayed from MSS logs.
};

LoggingRollbackResult logging_rollback(const CheckpointLog& log, const MessageLog& messages,
                                       const std::vector<u64>& fail_pos, net::HostId failed_host);

/// MSS log-storage accounting for one run.
struct LogStorageStats {
  u64 messages_logged = 0;
  u64 bytes_logged = 0;       ///< Payload + piggyback of every logged message.
  u64 messages_collectible = 0;  ///< Logged messages older than the stable line.
  u64 bytes_collectible = 0;
};

/// Prices the MSS logs of a finished run. A delivery is collectible once
/// both its send and its receive are inside the stable line
/// (`stable_line` from analyze_gc): no conceivable recovery replays it.
/// `bytes_per_message` should match the run's payload + piggyback size.
LogStorageStats log_storage_stats(const MessageLog& messages, const GlobalCheckpoint& stable_line,
                                  u64 bytes_per_message);

}  // namespace mobichk::core
