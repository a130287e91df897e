// Record of every application message's delivery, with the send and
// receive positions the delivered message carried.
//
// This is instrumentation, not part of any protocol: it is the oracle the
// consistency checker and the rollback machinery use to decide whether a
// message is orphan with respect to a global checkpoint.
#pragma once

#include <vector>

#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::core {

class MessageLog {
 public:
  /// One *delivery* of a message to the application. At-least-once
  /// transport means a message id may appear in several deliveries.
  struct Delivery {
    u64 msg_id = 0;
    net::HostId src = 0;
    net::HostId dst = 0;
    u64 send_pos = 0;  ///< Sender event position of the send event.
    u64 recv_pos = 0;  ///< Receiver event position of this receive event.
    u64 sn = 0;        ///< Piggybacked index (diagnostics).
  };

  /// Appends a delivery; the caller fills it from the delivered message.
  void note_delivery(const Delivery& d) { deliveries_.push_back(d); }

  const std::vector<Delivery>& deliveries() const noexcept { return deliveries_; }

 private:
  std::vector<Delivery> deliveries_;
};

}  // namespace mobichk::core
