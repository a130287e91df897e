#include "core/protocol.hpp"

#include <stdexcept>

#include "storage/data_plane.hpp"

namespace mobichk::core {

void CheckpointProtocol::bind(const ProtocolContext& ctx) {
  if (ctx.log == nullptr) throw std::invalid_argument("ProtocolContext: log is required");
  if (ctx.sim == nullptr) throw std::invalid_argument("ProtocolContext: sim is required");
  if (ctx.n_hosts == 0) throw std::invalid_argument("ProtocolContext: n_hosts is zero");
  ctx_ = ctx;
  do_bind();
}

void CheckpointProtocol::host_init(const net::MobileHost& host) {
  take_checkpoint(host, CheckpointKind::kInitial, 0);
}

void CheckpointProtocol::handle_reconnect(const net::MobileHost&, net::MssId) {}

const CheckpointRecord& CheckpointProtocol::take_checkpoint(const net::MobileHost& host,
                                                            CheckpointKind kind, u64 sn,
                                                            obs::ForcedRule rule,
                                                            net::MsgId trigger_msg,
                                                            bool replaced) {
  return finish_checkpoint(CheckpointRecord{}, host, kind, sn, replaced, rule, trigger_msg);
}

const CheckpointRecord& CheckpointProtocol::take_checkpoint(const net::MobileHost& host,
                                                            CheckpointKind kind, u64 sn,
                                                            const u8* deps, usize dep_size,
                                                            u32 dep_count, u32 rank,
                                                            obs::ForcedRule rule,
                                                            net::MsgId trigger_msg) {
  CheckpointRecord rec;
  rec.dep_bytes = ctx_.log->store_deps(deps, dep_size);
  rec.dep_count = dep_count;
  rec.dep_rank = rank;
  return finish_checkpoint(std::move(rec), host, kind, sn, false, rule, trigger_msg);
}

const CheckpointRecord& CheckpointProtocol::finish_checkpoint(CheckpointRecord rec,
                                                              const net::MobileHost& host,
                                                              CheckpointKind kind, u64 sn,
                                                              bool replaced, obs::ForcedRule rule,
                                                              net::MsgId trigger_msg) {
  rec.host = host.id();
  rec.sn = sn;
  rec.kind = kind;
  rec.time = ctx_.now();
  rec.location = host.mss();
  rec.event_pos = host.event_pos();
  rec.replaced_predecessor = replaced;
  if (ctx_.data_plane != nullptr) {
    const std::vector<CheckpointRecord>& prior = ctx_.log->of(rec.host);
    const u64 bytes =
        upload_bytes(prior.empty() ? nullptr : &prior.back(), rec, ctx_.data_plane->config());
    ctx_.data_plane->on_checkpoint(host.id(), host.mss(), ctx_.now(), static_cast<u8>(kind),
                                   bytes);
  }
  const CheckpointRecord& stored = ctx_.log->append(std::move(rec));
  if (ctx_.sink != nullptr) {
    const auto tk = kind == CheckpointKind::kForced ? des::TraceKind::kForcedCheckpoint
                                                    : des::TraceKind::kBasicCheckpoint;
    ctx_.sink->record(des::TraceRecord{ctx_.now(), host.id(), tk, stored.sn, stored.ordinal});
  }
  if (ctx_.timeline != nullptr) {
    obs::ProbeEvent e;
    e.t = ctx_.now();
    e.kind = obs::ProbeKind::kCheckpoint;
    e.ckpt_kind = static_cast<obs::CkptKind>(kind);  // value-identical enums
    e.rule = rule;
    e.replaced = replaced;
    e.actor = static_cast<i32>(host.id());
    e.track = ctx_.slot;
    e.a = sn;
    e.b = trigger_msg;
    ctx_.timeline->record(e);
  }
  return stored;
}

}  // namespace mobichk::core
