#include "obs/export.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace mobichk::obs {
namespace {

// Shortest round-trip decimal form (std::to_chars), so exports are
// byte-deterministic and free of printf locale surprises.
void emit_number(std::ostream& os, f64 v) {
  if (!std::isfinite(v)) {
    os << "0";  // JSON has no NaN/Inf; metrics should never produce them
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, res.ptr - buf);
}

void emit_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// Data-plane transfer sub-kind (ProbeEvent::b mirrors
// storage::DataPlane::kSub*).
const char* storage_transfer_name(u64 sub) {
  if (sub == 1) return "migration";
  if (sub == 2) return "fetch";
  return "upload";
}

const char* ckpt_event_name(const ProbeEvent& e) {
  if (e.ckpt_kind == CkptKind::kForced) return "forced checkpoint";
  if (e.replaced) return "basic checkpoint (equivalence reuse)";
  if (e.ckpt_kind == CkptKind::kBasic) return "basic checkpoint";
  return "initial checkpoint";
}

std::string protocol_label(const RunObserver& run, i32 slot) {
  const auto& names = run.protocol_names();
  if (slot >= 0 && static_cast<usize>(slot) < names.size()) return names[static_cast<usize>(slot)];
  return "protocol " + std::to_string(slot);
}

// Chrome trace ts is integer microseconds; we map 1 simulation tu to
// 1000 us so a 50k-tu run spans a readable 50 s of trace time.
void emit_ts(std::ostream& os, f64 t) { emit_number(os, t * 1000.0); }

void emit_metadata(std::ostream& os, const char* what, i32 pid, i32 tid,
                   std::string_view name, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "  {\"ph\":\"M\",\"name\":\"" << what << "\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"args\":{\"name\":";
  emit_string(os, name);
  os << "}}";
}

}  // namespace

void write_metrics_jsonl(std::ostream& os, const RunObserver& run) {
  for (const ProbeEvent& e : run.timeline().events()) {
    os << "{\"type\":\"event\",\"t\":";
    emit_number(os, e.t);
    os << ",\"kind\":";
    emit_string(os, probe_kind_name(e.kind));
    if (e.kind == ProbeKind::kCheckpoint) {
      os << ",\"host\":" << e.actor << ",\"slot\":" << e.track << ",\"protocol\":";
      emit_string(os, protocol_label(run, e.track));
      os << ",\"ckpt\":"
         << (e.ckpt_kind == CkptKind::kForced
                 ? "\"forced\""
                 : (e.ckpt_kind == CkptKind::kBasic ? "\"basic\"" : "\"initial\""));
      os << ",\"rule\":";
      emit_string(os, forced_rule_name(e.rule));
      os << ",\"replaced\":" << (e.replaced ? "true" : "false") << ",\"sn\":" << e.a;
      if (e.b != 0) os << ",\"msg\":" << e.b;
    } else if (e.kind == ProbeKind::kHandoff) {
      os << ",\"host\":" << e.actor << ",\"mss\":" << e.track;
    } else if (e.kind == ProbeKind::kDisconnect || e.kind == ProbeKind::kReconnect) {
      os << ",\"host\":" << e.actor;
    } else if (e.kind == ProbeKind::kReplication) {
      os << ",\"point\":" << e.actor << ",\"replications\":" << e.a << ",\"wall_seconds\":";
      emit_number(os, e.value);
    } else if (e.kind == ProbeKind::kConvergence) {
      os << ",\"point\":" << e.actor << ",\"replications\":" << e.a << ",\"half_width\":";
      emit_number(os, e.value);
    } else if (e.kind == ProbeKind::kSend) {
      os << ",\"src\":" << e.actor << ",\"dst\":" << e.track << ",\"msg\":" << e.a
         << ",\"sn\":" << e.b;
    } else if (e.kind == ProbeKind::kDeliver) {
      os << ",\"host\":" << e.actor << ",\"src\":" << e.track << ",\"msg\":" << e.a
         << ",\"sn\":" << e.b;
    } else if (e.kind == ProbeKind::kSnPromote) {
      os << ",\"host\":" << e.actor << ",\"slot\":" << e.track << ",\"protocol\":";
      emit_string(os, protocol_label(run, e.track));
      os << ",\"sn\":" << e.a;
    } else if (e.kind == ProbeKind::kCrash) {
      os << ",\"host\":" << e.actor;
    } else if (e.kind == ProbeKind::kRecover) {
      os << ",\"host\":" << e.actor << ",\"mss\":" << e.track;
    } else if (e.kind == ProbeKind::kStorageTransfer) {
      os << ",\"host\":" << e.actor << ",\"mss\":" << e.track << ",\"transfer\":";
      emit_string(os, storage_transfer_name(e.b));
      os << ",\"bytes\":" << e.a << ",\"duration\":";
      emit_number(os, e.value);
    }
    os << "}\n";
  }
  for (const MetricSample& s : run.registry().snapshot()) {
    os << "{\"type\":\"metric\",\"name\":";
    emit_string(os, s.name);
    os << ",\"value\":";
    emit_number(os, s.value);
    os << "}\n";
  }
}

namespace {

// The host-time track gets its own process id, far from pid 0 (network)
// and pids 1..n_protocols (protocol slots), so sim-time and host-time
// rows never share a pid (tools/lint_trace.py enforces the separation).
constexpr i32 kHostTimePid = 9999;

std::string host_lane_label(const Profiler& prof, usize lane) {
  if (prof.n_lanes() == 1) return "main";
  return lane == 0 ? "coordinator" : "shard " + std::to_string(lane - 1);
}

/// Microseconds since the profiler's construction instant.
f64 host_ts_us(const Profiler& prof, u64 abs_ns) {
  return static_cast<f64>(abs_ns - prof.t0_ns()) / 1000.0;
}

/// One phase total as an X slice laid end-to-end on a "totals" row.
void emit_total_slice(std::ostream& os, bool& first, i32 tid, const std::string& name,
                      const PhaseAccum& acc, f64& cursor_us) {
  if (acc.count == 0) return;
  if (!first) os << ",\n";
  first = false;
  const f64 dur_us = static_cast<f64>(acc.ns) / 1000.0;
  os << "  {\"ph\":\"X\",\"cat\":\"host\",\"name\":";
  emit_string(os, name);
  os << ",\"ts\":";
  emit_number(os, cursor_us);
  os << ",\"dur\":";
  emit_number(os, dur_us);
  os << ",\"pid\":" << kHostTimePid << ",\"tid\":" << tid << ",\"args\":{\"count\":" << acc.count
     << "}}";
  cursor_us += dur_us;
}

/// The host-time track: per-lane B/E window/barrier slices (real wall
/// timestamps, rebased to the profiler's t0) plus one "totals" row per
/// lane with the leaf-phase breakdown laid end to end.
void emit_host_track(std::ostream& os, const Profiler& prof, bool& first) {
  emit_metadata(os, "process_name", kHostTimePid, 0, "host-time (profiler)", first);
  const usize n = prof.n_lanes();
  for (usize lane = 0; lane < n; ++lane) {
    const i32 tid = static_cast<i32>(lane);
    emit_metadata(os, "thread_name", kHostTimePid, tid, host_lane_label(prof, lane), first);
    emit_metadata(os, "thread_name", kHostTimePid, tid + 100,
                  host_lane_label(prof, lane) + " totals", first);
  }
  for (usize lane = 0; lane < n; ++lane) {
    const i32 tid = static_cast<i32>(lane);
    // Window/barrier journal: every B is closed by its E at start + dur;
    // slices on one lane never overlap, so ts is monotonic per tid.
    for (const ProfSlice& s : prof.lane_ref(lane).slices) {
      const char* name = s.phase == ProfPhase::kWindow ? "window" : "barrier wait";
      if (!first) os << ",\n";
      first = false;
      os << "  {\"ph\":\"B\",\"cat\":\"host\",\"name\":\"" << name << "\",\"ts\":";
      emit_number(os, host_ts_us(prof, s.start_ns));
      os << ",\"pid\":" << kHostTimePid << ",\"tid\":" << tid << "}";
      os << ",\n  {\"ph\":\"E\",\"cat\":\"host\",\"name\":\"" << name << "\",\"ts\":";
      emit_number(os, host_ts_us(prof, s.start_ns + s.dur_ns));
      os << ",\"pid\":" << kHostTimePid << ",\"tid\":" << tid << "}";
    }
    // Totals row: leaf phases only (window/barrier live on the slice row;
    // dispatch covers the handler bodies the other leaves nest inside).
    const ProfLane& l = prof.lane_ref(lane);
    const i32 totals_tid = tid + 100;
    f64 cursor = 0.0;
    for (usize k = 0; k < des::kEventKindCount; ++k) {
      emit_total_slice(os, first, totals_tid, std::string("dispatch: ") + des::event_kind_name(k),
                       l.dispatch[k], cursor);
    }
    emit_total_slice(os, first, totals_tid, "queue: push", l.queue_push, cursor);
    emit_total_slice(os, first, totals_tid, "queue: pop", l.queue_pop, cursor);
    emit_total_slice(os, first, totals_tid, "queue: cancel", l.queue_cancel, cursor);
    emit_total_slice(os, first, totals_tid, "net: leg", l.net_leg, cursor);
    emit_total_slice(os, first, totals_tid, "piggyback: encode", l.pb_encode, cursor);
    emit_total_slice(os, first, totals_tid, "piggyback: merge", l.pb_merge, cursor);
    for (usize k = 0; k < ProfLane::kMaxProtoSlots; ++k) {
      const auto& names = prof.slot_names();
      const std::string label = k < names.size() && !names[k].empty()
                                    ? names[k]
                                    : "slot " + std::to_string(k);
      emit_total_slice(os, first, totals_tid, "proto: " + label, l.proto[k], cursor);
    }
    emit_total_slice(os, first, totals_tid, "storage", l.storage, cursor);
  }
}

}  // namespace

void write_chrome_trace(std::ostream& os, const RunObserver& run) {
  write_chrome_trace(os, run, nullptr);
}

void write_chrome_trace(std::ostream& os, const RunObserver& run, const Profiler* prof) {
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;

  // Track naming. pid 0 carries network & mobility (one thread per
  // host); pid slot+1 carries one protocol's checkpoints (again one
  // thread per host), so Perfetto groups each protocol as a process.
  emit_metadata(os, "process_name", 0, 0, "network & mobility", first);
  for (i32 h = 0; h < run.n_hosts(); ++h) {
    emit_metadata(os, "thread_name", 0, h, "host " + std::to_string(h), first);
  }
  const usize n_protocols = run.protocol_names().size();
  for (usize slot = 0; slot < n_protocols; ++slot) {
    const i32 pid = static_cast<i32>(slot) + 1;
    emit_metadata(os, "process_name", pid, 0,
                  "protocol: " + run.protocol_names()[slot], first);
    for (i32 h = 0; h < run.n_hosts(); ++h) {
      emit_metadata(os, "thread_name", pid, h, "host " + std::to_string(h), first);
    }
  }

  // Flow-event prescan: a send emits a flow-start ("s") only for arrows
  // that will terminate ("f") later in the file — the delivery arrow when
  // the message is consumed, and one forced-checkpoint arrow per protocol
  // slot whose forced checkpoint names this message as its trigger.
  // Flow ids partition a message id into kFlowStride lanes: lane 0 is the
  // send->deliver arrow, lane 1+slot the send->forced-checkpoint arrow.
  std::unordered_set<u64> delivered;
  std::unordered_map<u64, u64> forced_slots;  // msg id -> slot bitmask
  // Outage prescan: pair each crash with the host's next recover so the
  // outage renders as one duration slice instead of two instants.
  std::unordered_map<i32, std::vector<f64>> recover_times;  // host -> times, in order
  std::unordered_map<i32, usize> recover_cursor;
  for (const ProbeEvent& e : run.timeline().events()) {
    if (e.kind == ProbeKind::kDeliver) {
      delivered.insert(e.a);
    } else if (e.kind == ProbeKind::kCheckpoint && e.ckpt_kind == CkptKind::kForced &&
               e.b != 0 && e.track >= 0 && e.track < 62) {
      forced_slots[e.b] |= u64{1} << e.track;
    } else if (e.kind == ProbeKind::kRecover) {
      recover_times[e.actor].push_back(e.t);
    }
  }
  constexpr u64 kFlowStride = 64;
  constexpr f64 kSliceDurUs = 100.0;  // 0.1 tu: wide enough to click on
  std::unordered_set<u64> flow_open;    // flow ids whose "s" was emitted
  std::unordered_set<u64> flow_closed;  // flow ids whose "f" was emitted

  const auto begin_event = [&os, &first] {
    if (!first) os << ",\n";
    first = false;
    os << "  ";
  };
  // A flow start/finish binds to the slice with the same pid/tid/ts.
  const auto emit_flow = [&](char ph, const char* cat, u64 id, f64 t, i32 pid, i32 tid) {
    begin_event();
    os << "{\"ph\":\"" << ph << "\",\"cat\":\"" << cat << "\",\"name\":\"" << cat
       << " flow\",\"id\":" << id << ",\"ts\":";
    emit_ts(os, t);
    os << ",\"pid\":" << pid << ",\"tid\":" << tid;
    if (ph == 'f') os << ",\"bp\":\"e\"";
    os << "}";
  };

  for (const ProbeEvent& e : run.timeline().events()) {
    if (e.kind == ProbeKind::kReplication || e.kind == ProbeKind::kConvergence) {
      continue;  // sweep-level entries have no place on a per-run trace
    }
    if (e.kind == ProbeKind::kCheckpoint) {
      const bool has_flow = e.ckpt_kind == CkptKind::kForced && e.b != 0;
      begin_event();
      os << "{\"name\":";
      emit_string(os, ckpt_event_name(e));
      // Forced checkpoints with a triggering message become slices so a
      // flow arrow can land on them; the rest stay instants.
      if (has_flow) {
        os << ",\"ph\":\"X\",\"dur\":";
        emit_number(os, kSliceDurUs);
      } else {
        os << ",\"ph\":\"i\",\"s\":\"t\"";
      }
      os << ",\"ts\":";
      emit_ts(os, e.t);
      os << ",\"pid\":" << (e.track + 1) << ",\"tid\":" << e.actor << ",\"args\":{\"sn\":" << e.a
         << ",\"rule\":";
      emit_string(os, forced_rule_name(e.rule));
      if (e.replaced) os << ",\"replaced\":true";
      if (e.b != 0) os << ",\"msg\":" << e.b;
      os << "}}";
      if (has_flow && e.track >= 0 && e.track < 62) {
        const u64 flow_id = e.b * kFlowStride + 1 + static_cast<u64>(e.track);
        if (flow_open.count(flow_id) != 0 && flow_closed.insert(flow_id).second) {
          emit_flow('f', "force", flow_id, e.t, e.track + 1, e.actor);
        }
      }
    } else if (e.kind == ProbeKind::kSend) {
      begin_event();
      os << "{\"name\":\"send #" << e.a << "\",\"ph\":\"X\",\"dur\":";
      emit_number(os, kSliceDurUs);
      os << ",\"ts\":";
      emit_ts(os, e.t);
      os << ",\"pid\":0,\"tid\":" << e.actor << ",\"args\":{\"msg\":" << e.a
         << ",\"dst\":" << e.track << ",\"sn\":" << e.b << "}}";
      if (delivered.count(e.a) != 0) {
        flow_open.insert(e.a * kFlowStride);
        emit_flow('s', "msg", e.a * kFlowStride, e.t, 0, e.actor);
      }
      const auto fs = forced_slots.find(e.a);
      if (fs != forced_slots.end()) {
        for (u64 slot = 0; slot < 62; ++slot) {
          if ((fs->second >> slot) & 1) {
            flow_open.insert(e.a * kFlowStride + 1 + slot);
            emit_flow('s', "force", e.a * kFlowStride + 1 + slot, e.t, 0, e.actor);
          }
        }
      }
    } else if (e.kind == ProbeKind::kDeliver) {
      begin_event();
      os << "{\"name\":\"deliver #" << e.a << "\",\"ph\":\"X\",\"dur\":";
      emit_number(os, kSliceDurUs);
      os << ",\"ts\":";
      emit_ts(os, e.t);
      os << ",\"pid\":0,\"tid\":" << e.actor << ",\"args\":{\"msg\":" << e.a
         << ",\"src\":" << e.track << ",\"sn\":" << e.b << "}}";
      const u64 flow_id = e.a * kFlowStride;
      if (flow_open.count(flow_id) != 0 && flow_closed.insert(flow_id).second) {
        emit_flow('f', "msg", flow_id, e.t, 0, e.actor);
      }
    } else if (e.kind == ProbeKind::kStorageTransfer) {
      // Transfers are real durations: render the whole wire + storage
      // occupancy as a slice on the host's network track.
      begin_event();
      os << "{\"name\":\"storage: " << storage_transfer_name(e.b) << "\",\"ph\":\"X\",\"dur\":";
      emit_number(os, e.value > 0.0 ? e.value * 1000.0 : kSliceDurUs);
      os << ",\"ts\":";
      emit_ts(os, e.t);
      os << ",\"pid\":0,\"tid\":" << e.actor << ",\"args\":{\"mss\":" << e.track
         << ",\"bytes\":" << e.a << "}}";
    } else if (e.kind == ProbeKind::kSnPromote) {
      begin_event();
      os << "{\"name\":\"sn promote\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      emit_ts(os, e.t);
      os << ",\"pid\":" << (e.track + 1) << ",\"tid\":" << e.actor << ",\"args\":{\"sn\":" << e.a
         << "}}";
    } else if (e.kind == ProbeKind::kCrash) {
      // The outage is a slice from the crash to the host's next recover
      // (open-ended instants if the run stopped before the recovery).
      f64 dur_us = kSliceDurUs;
      const auto rt = recover_times.find(e.actor);
      if (rt != recover_times.end()) {
        usize& cursor = recover_cursor[e.actor];
        while (cursor < rt->second.size() && rt->second[cursor] < e.t) ++cursor;
        if (cursor < rt->second.size()) {
          dur_us = (rt->second[cursor] - e.t) * 1000.0;
          ++cursor;
        }
      }
      begin_event();
      os << "{\"name\":\"crashed (recovering)\",\"ph\":\"X\",\"dur\":";
      emit_number(os, dur_us);
      os << ",\"ts\":";
      emit_ts(os, e.t);
      os << ",\"pid\":0,\"tid\":" << e.actor << "}";
    } else {
      begin_event();
      os << "{\"name\":";
      emit_string(os, probe_kind_name(e.kind));
      os << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      emit_ts(os, e.t);
      os << ",\"pid\":0,\"tid\":" << e.actor;
      if (e.kind == ProbeKind::kHandoff) {
        os << ",\"args\":{\"mss\":" << e.track << "}";
      }
      os << "}";
    }
  }

  if (prof != nullptr) emit_host_track(os, *prof, first);

  os << "\n],\n\"metrics\": {";
  bool first_metric = true;
  const auto emit_metric = [&](const MetricSample& s) {
    if (!first_metric) os << ",";
    first_metric = false;
    os << "\n  ";
    emit_string(os, s.name);
    os << ": ";
    emit_number(os, s.value);
  };
  for (const MetricSample& s : run.registry().snapshot()) emit_metric(s);
  if (prof != nullptr) {
    for (const MetricSample& s : prof->snapshot()) emit_metric(s);
  }
  os << "\n}\n}\n";
}

void write_host_trace(std::ostream& os, const Profiler& prof) {
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  emit_host_track(os, prof, first);
  os << "\n],\n\"metrics\": {";
  bool first_metric = true;
  for (const MetricSample& s : prof.snapshot()) {
    if (!first_metric) os << ",";
    first_metric = false;
    os << "\n  ";
    emit_string(os, s.name);
    os << ": ";
    emit_number(os, s.value);
  }
  os << "\n}\n}\n";
}

namespace {

template <typename Writer>
void write_file(const std::string& path, Writer&& writer) {
  errno = 0;
  std::ofstream os(path);
  if (!os.is_open()) {
    const int err = errno;
    throw std::runtime_error("obs: cannot open " + path + " for writing: " +
                             (err != 0 ? std::strerror(err) : "unknown error"));
  }
  writer(os);
  os.flush();
  if (os.fail()) {
    const int err = errno;
    throw std::runtime_error("obs: write to " + path + " failed: " +
                             (err != 0 ? std::strerror(err) : "unknown error"));
  }
}

}  // namespace

void write_metrics_jsonl(const std::string& path, const RunObserver& run) {
  write_file(path, [&run](std::ostream& os) { write_metrics_jsonl(os, run); });
}

void write_chrome_trace(const std::string& path, const RunObserver& run) {
  write_file(path, [&run](std::ostream& os) { write_chrome_trace(os, run); });
}

void write_chrome_trace(const std::string& path, const RunObserver& run, const Profiler* prof) {
  write_file(path, [&run, prof](std::ostream& os) { write_chrome_trace(os, run, prof); });
}

void write_host_trace(const std::string& path, const Profiler& prof) {
  write_file(path, [&prof](std::ostream& os) { write_host_trace(os, prof); });
}

}  // namespace mobichk::obs
