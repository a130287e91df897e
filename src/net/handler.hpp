// The upcall interface between the network substrate and the checkpointing
// layer. `net` knows only this interface; `core` implements it.
#pragma once

#include "net/ids.hpp"
#include "net/message.hpp"

namespace mobichk::net {

class MobileHost;

/// Receives host-level events from the network substrate.
///
/// A checkpointing protocol (or a bundle of protocols run as paired
/// observers) implements this to piggyback control information on sends,
/// react to receives, and take basic checkpoints on mobility events.
class HostEventHandler {
 public:
  virtual ~HostEventHandler() = default;

  /// Host enters the computation (initial placement). Take the initial
  /// checkpoint here if the protocol requires one.
  virtual void on_host_init(MobileHost& host) = 0;

  /// Called at send time; must set the message's piggyback wire fields
  /// (`sn`, `has_sn`, `pb_bytes`, `pb_dense_bytes`) from the protocol's
  /// control information and update protocol state (e.g. TP's phase flag).
  virtual void on_send(MobileHost& host, AppMessage& msg) = 0;

  /// Called when the application consumes a delivered message. The
  /// protocol may take a forced checkpoint *before* the message is
  /// processed.
  virtual void on_receive(MobileHost& host, const AppMessage& msg) = 0;

  /// Called after the host has switched to MSS `to`; the paper mandates a
  /// basic checkpoint here.
  virtual void on_cell_switch(MobileHost& host, MssId from, MssId to) = 0;

  /// Called when the host voluntarily disconnects; the paper mandates a
  /// basic checkpoint here.
  virtual void on_disconnect(MobileHost& host) = 0;

  /// Called when the host reconnects to MSS `mss`.
  virtual void on_reconnect(MobileHost& host, MssId mss) = 0;
};

/// Convenience no-op implementation (tests, plain-network examples).
class NullHostEventHandler : public HostEventHandler {
 public:
  void on_host_init(MobileHost&) override {}
  void on_send(MobileHost&, AppMessage&) override {}
  void on_receive(MobileHost&, const AppMessage&) override {}
  void on_cell_switch(MobileHost&, MssId, MssId) override {}
  void on_disconnect(MobileHost&) override {}
  void on_reconnect(MobileHost&, MssId) override {}
};

}  // namespace mobichk::net
