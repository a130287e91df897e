// DenseTpOracle: the paper-literal two-phase protocol (§4.1), kept as the
// oracle the delta-encoded TpProtocol is checked against.
//
// Every host holds full n-entry CKPT[] and LOC[] rows. Every message
// carries all n entries, in host order, with the sender's own entry set to
// its current interval and MSS. A receive forces a checkpoint when the
// phase is SEND, then raises every entry whose shipped ckpt is higher,
// skipping the receiver's own. A checkpoint records all n entries and
// resets the phase. There are no cursors, versions or merges: those are
// exactly what TpProtocol adds, and what the oracle checks. The oracle
// encodes and decodes its entries with the same codec (net::DepWriter /
// net::DepReader) and shares nothing else with TpProtocol, so
// Piggyback::dense_bytes() prices both protocols the same; only the
// oracle's wire_bytes() differ.
#pragma once

#include <vector>

#include "core/protocol.hpp"

namespace mobichk::core {

class DenseTpOracle final : public CheckpointProtocol {
 public:
  const char* name() const noexcept override { return "TP-dense"; }

  void host_init(const net::MobileHost& host) override {
    checkpoint(host, CheckpointKind::kInitial);
  }

  net::Piggyback make_piggyback(const net::MobileHost& host, net::HostId) override {
    const net::HostId me = host.id();
    std::vector<net::DepEntry> entries = row(me);
    // A receiver of this message depends on the sender's current interval,
    // so it will require the checkpoint that closes it.
    entries[me] = {me, ckpt_count_[me], host.mss()};
    net::Piggyback pb;
    pb.has_delta = true;
    pb.dense_rank = 2 * ctx_.n_hosts;
    pb.delta = net::encode_deps(entries);
    pb.delta_count = ctx_.n_hosts;
    phase_send_[me] = true;
    return pb;
  }

  void handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                      const net::Piggyback& pb) override {
    const net::HostId me = host.id();
    if (phase_send_[me]) checkpoint(host, CheckpointKind::kForced, msg.id);
    for (net::DepReader in = pb.delta_reader(); !in.done();) {
      const net::DepEntry d = in.next();
      if (d.host == me || d.ckpt <= req_[me][d.host]) continue;
      req_[me][d.host] = d.ckpt;
      loc_[me][d.host] = d.loc;
    }
  }

  void handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) override {
    checkpoint(host, CheckpointKind::kBasic);
  }
  void handle_disconnect(const net::MobileHost& host) override {
    checkpoint(host, CheckpointKind::kBasic);
  }

  /// CKPT[] of `host`, own entry 0.
  std::vector<u32> requirement_vector(net::HostId host) const { return req_.at(host); }
  /// LOC[] of `host`, own entry = its MSS at its latest checkpoint.
  std::vector<u32> location_vector(net::HostId host) const { return loc_.at(host); }

 protected:
  void do_bind() override {
    req_.assign(ctx_.n_hosts, std::vector<u32>(ctx_.n_hosts, 0));
    loc_.assign(ctx_.n_hosts, std::vector<u32>(ctx_.n_hosts, 0));
    ckpt_count_.assign(ctx_.n_hosts, 0);
    phase_send_.assign(ctx_.n_hosts, false);
  }

 private:
  /// All n entries of host `me`'s CKPT[] and LOC[] rows, in host order.
  std::vector<net::DepEntry> row(net::HostId me) const {
    std::vector<net::DepEntry> out;
    out.reserve(ctx_.n_hosts);
    for (u32 j = 0; j < ctx_.n_hosts; ++j) out.push_back({j, req_[me][j], loc_[me][j]});
    return out;
  }

  void checkpoint(const net::MobileHost& host, CheckpointKind kind, net::MsgId trigger = 0) {
    const net::HostId me = host.id();
    loc_[me][me] = host.mss();
    std::vector<net::DepEntry> deps = row(me);
    deps[me].ckpt = ckpt_count_[me];  // the anchor's own ordinal
    const std::vector<u8> bytes = net::encode_deps(deps);
    const obs::ForcedRule rule = kind == CheckpointKind::kForced
                                     ? obs::ForcedRule::kReceiveAfterSend
                                     : obs::ForcedRule::kNone;
    take_checkpoint(host, kind, ckpt_count_[me], bytes.data(), bytes.size(), ctx_.n_hosts,
                    ctx_.n_hosts, rule, trigger);
    ++ckpt_count_[me];
    phase_send_[me] = false;
  }

  // req_[i][j]: the ordinal of j's checkpoint that a recovery line anchored
  // at i's next checkpoint requires. loc_[i][j]: the last MSS of j that i
  // knows of.
  std::vector<std::vector<u32>> req_;
  std::vector<std::vector<u32>> loc_;
  std::vector<u32> ckpt_count_;  ///< Checkpoints taken so far (= next ordinal).
  std::vector<bool> phase_send_;
};

}  // namespace mobichk::core
