#include "obs/export.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mobichk::obs {
namespace {

/// Room for any number std::to_chars prints (a shortest round-trip double
/// takes at most 24 characters, a 64-bit integer 20).
constexpr usize kNumberChars = 32;

/// Writes the shortest round-trip decimal form of `v` (std::to_chars)
/// into out[0, kNumberChars) and returns its length. JSON has no NaN/Inf;
/// metrics should never produce them, and they print as 0.
usize format_number(char* out, f64 v) {
  if (!std::isfinite(v)) {
    out[0] = '0';
    return 1;
  }
  return static_cast<usize>(std::to_chars(out, out + kNumberChars, v).ptr - out);
}

/// Serializes a document into one fixed block and hands the stream a
/// single write() per full block. Numbers go through std::to_chars and
/// text is copied as is, so the bytes ignore the stream's locale and
/// format flags, and an export never holds more than one block.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& os) noexcept : os_(os) {}
  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  BlockWriter& operator<<(std::string_view s) {
    if (s.size() > kBlockBytes - len_) {
      flush();
      if (s.size() > kBlockBytes) {
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return *this;
      }
    }
    std::memcpy(buf_.data() + len_, s.data(), s.size());
    len_ += s.size();
    return *this;
  }
  BlockWriter& operator<<(char c) {
    room(1);
    buf_[len_++] = c;
    return *this;
  }
  template <std::integral T>
    requires(!std::same_as<T, char> && !std::same_as<T, bool>)
  BlockWriter& operator<<(T v) {
    room(kNumberChars);
    char* const at = buf_.data() + len_;
    len_ += static_cast<usize>(std::to_chars(at, at + kNumberChars, v).ptr - at);
    return *this;
  }

  void number(f64 v) {
    room(kNumberChars);
    len_ += format_number(buf_.data() + len_, v);
  }

  /// `s` as a JSON string literal.
  void string(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    *this << '"';
    for (const char c : s) {
      switch (c) {
        case '"': *this << "\\\""; break;
        case '\\': *this << "\\\\"; break;
        case '\n': *this << "\\n"; break;
        case '\t': *this << "\\t"; break;
        case '\r': *this << "\\r"; break;
        default: {
          const auto u = static_cast<unsigned char>(c);
          if (u < 0x20) {
            *this << "\\u00" << kHex[u >> 4] << kHex[u & 15];
          } else {
            *this << c;
          }
        }
      }
    }
    *this << '"';
  }

  /// Hands the buffered bytes to the stream; call once the document ends.
  void flush() {
    if (len_ != 0) os_.write(buf_.data(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  static constexpr usize kBlockBytes = usize{64} * 1024;

  void room(usize n) {
    if (kBlockBytes - len_ < n) flush();
  }

  std::ostream& os_;
  usize len_ = 0;
  std::array<char, kBlockBytes> buf_;
};

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

void emit_protocol_label(BlockWriter& w, const RunObserver& run, i32 slot) {
  const auto& names = run.protocol_names();
  if (slot >= 0 && static_cast<usize>(slot) < names.size()) {
    w.string(names[static_cast<usize>(slot)]);
  } else {
    w << "\"protocol " << slot << '"';
  }
}

void emit_metadata(BlockWriter& w, const char* what, i32 pid, i32 tid, std::string_view name,
                   bool& first) {
  if (!first) w << ",\n";
  first = false;
  w << "  {\"ph\":\"M\",\"name\":\"" << what << "\",\"pid\":" << pid << ",\"tid\":" << tid
    << ",\"args\":{\"name\":";
  w.string(name);
  w << "}}";
}

void emit_metric(BlockWriter& w, const MetricSample& s, bool& first) {
  if (!first) w << ",";
  first = false;
  w << "\n  ";
  w.string(s.name);
  w << ": ";
  w.number(s.value);
}

}  // namespace

void write_metrics_jsonl(std::ostream& os, const RunObserver& run) {
  BlockWriter w(os);
  for (const ProbeEvent& e : run.timeline().events()) {
    w << "{\"type\":\"event\",\"t\":";
    w.number(e.t);
    w << ",\"kind\":";
    w.string(probe_kind_name(e.kind));
    if (e.kind == ProbeKind::kCheckpoint) {
      w << ",\"host\":" << e.actor << ",\"slot\":" << e.track << ",\"protocol\":";
      emit_protocol_label(w, run, e.track);
      w << ",\"ckpt\":"
        << (e.ckpt_kind == CkptKind::kForced
                ? "\"forced\""
                : (e.ckpt_kind == CkptKind::kBasic ? "\"basic\"" : "\"initial\""));
      w << ",\"rule\":";
      w.string(forced_rule_name(e.rule));
      w << ",\"replaced\":" << (e.replaced ? "true" : "false") << ",\"sn\":" << e.a;
      if (e.b != 0) w << ",\"msg\":" << e.b;
    } else if (e.kind == ProbeKind::kHandoff) {
      w << ",\"host\":" << e.actor << ",\"mss\":" << e.track;
    } else if (e.kind == ProbeKind::kDisconnect || e.kind == ProbeKind::kReconnect) {
      w << ",\"host\":" << e.actor;
    } else if (e.kind == ProbeKind::kReplication) {
      w << ",\"point\":" << e.actor << ",\"replications\":" << e.a << ",\"wall_seconds\":";
      w.number(e.value);
    } else if (e.kind == ProbeKind::kConvergence) {
      w << ",\"point\":" << e.actor << ",\"replications\":" << e.a << ",\"half_width\":";
      w.number(e.value);
    } else if (e.kind == ProbeKind::kSend) {
      w << ",\"src\":" << e.actor << ",\"dst\":" << e.track << ",\"msg\":" << e.a
        << ",\"sn\":" << e.b;
    } else if (e.kind == ProbeKind::kDeliver) {
      w << ",\"host\":" << e.actor << ",\"src\":" << e.track << ",\"msg\":" << e.a
        << ",\"sn\":" << e.b;
    } else if (e.kind == ProbeKind::kSnPromote) {
      w << ",\"host\":" << e.actor << ",\"slot\":" << e.track << ",\"protocol\":";
      emit_protocol_label(w, run, e.track);
      w << ",\"sn\":" << e.a;
    } else if (e.kind == ProbeKind::kCrash) {
      w << ",\"host\":" << e.actor;
    } else if (e.kind == ProbeKind::kRecover) {
      w << ",\"host\":" << e.actor << ",\"mss\":" << e.track;
    } else if (e.kind == ProbeKind::kStorageTransfer) {
      w << ",\"host\":" << e.actor << ",\"mss\":" << e.track << ",\"transfer\":";
      w.string(storage_transfer_name(e.b));
      w << ",\"bytes\":" << e.a << ",\"duration\":";
      w.number(e.value);
    }
    w << "}\n";
  }
  for (const MetricSample& s : run.registry().snapshot()) {
    w << "{\"type\":\"metric\",\"name\":";
    w.string(s.name);
    w << ",\"value\":";
    w.number(s.value);
    w << "}\n";
  }
  w.flush();
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
void emit_total_slice(BlockWriter& w, bool& first, i32 tid, const std::string& name,
                      const PhaseAccum& acc, f64& cursor_us) {
  if (acc.count == 0) return;
  if (!first) w << ",\n";
  first = false;
  const f64 dur_us = static_cast<f64>(acc.ns) / 1000.0;
  w << "  {\"ph\":\"X\",\"cat\":\"host\",\"name\":";
  w.string(name);
  w << ",\"ts\":";
  w.number(cursor_us);
  w << ",\"dur\":";
  w.number(dur_us);
  w << ",\"pid\":" << kHostTimePid << ",\"tid\":" << tid << ",\"args\":{\"count\":" << acc.count
    << "}}";
  cursor_us += dur_us;
}

/// The host-time track: per-lane B/E window/barrier slices (real wall
/// timestamps, rebased to the profiler's t0) plus one "totals" row per
/// lane with the leaf-phase breakdown laid end to end.
void emit_host_track(BlockWriter& w, const Profiler& prof, bool& first) {
  emit_metadata(w, "process_name", kHostTimePid, 0, "host-time (profiler)", first);
  const usize n = prof.n_lanes();
  for (usize lane = 0; lane < n; ++lane) {
    const i32 tid = static_cast<i32>(lane);
    emit_metadata(w, "thread_name", kHostTimePid, tid, host_lane_label(prof, lane), first);
    emit_metadata(w, "thread_name", kHostTimePid, tid + 100,
                  host_lane_label(prof, lane) + " totals", first);
  }
  for (usize lane = 0; lane < n; ++lane) {
    const i32 tid = static_cast<i32>(lane);
    // Window/barrier journal: every B is closed by its E at start + dur;
    // slices on one lane never overlap, so ts is monotonic per tid.
    for (const ProfSlice& s : prof.lane_ref(lane).slices) {
      const char* name = s.phase == ProfPhase::kWindow ? "window" : "barrier wait";
      if (!first) w << ",\n";
      first = false;
      w << "  {\"ph\":\"B\",\"cat\":\"host\",\"name\":\"" << name << "\",\"ts\":";
      w.number(host_ts_us(prof, s.start_ns));
      w << ",\"pid\":" << kHostTimePid << ",\"tid\":" << tid << "}";
      w << ",\n  {\"ph\":\"E\",\"cat\":\"host\",\"name\":\"" << name << "\",\"ts\":";
      w.number(host_ts_us(prof, s.start_ns + s.dur_ns));
      w << ",\"pid\":" << kHostTimePid << ",\"tid\":" << tid << "}";
    }
    // Totals row: leaf phases only (window/barrier live on the slice row;
    // dispatch covers the handler bodies the other leaves nest inside).
    const ProfLane& l = prof.lane_ref(lane);
    const i32 totals_tid = tid + 100;
    f64 cursor = 0.0;
    for (usize k = 0; k < des::kEventKindCount; ++k) {
      emit_total_slice(w, first, totals_tid, std::string("dispatch: ") + des::event_kind_name(k),
                       l.dispatch[k], cursor);
    }
    emit_total_slice(w, first, totals_tid, "queue: push", l.queue_push, cursor);
    emit_total_slice(w, first, totals_tid, "queue: pop", l.queue_pop, cursor);
    emit_total_slice(w, first, totals_tid, "queue: cancel", l.queue_cancel, cursor);
    emit_total_slice(w, first, totals_tid, "net: leg", l.net_leg, cursor);
    emit_total_slice(w, first, totals_tid, "piggyback: encode", l.pb_encode, cursor);
    emit_total_slice(w, first, totals_tid, "piggyback: merge", l.pb_merge, cursor);
    for (usize k = 0; k < ProfLane::kMaxProtoSlots; ++k) {
      const auto& names = prof.slot_names();
      const std::string label = k < names.size() && !names[k].empty()
                                    ? names[k]
                                    : "slot " + std::to_string(k);
      emit_total_slice(w, first, totals_tid, "proto: " + label, l.proto[k], cursor);
    }
    emit_total_slice(w, first, totals_tid, "storage", l.storage, cursor);
  }
}

/// The flow arrows of one message id's send. Bit 0 is the arrow to its
/// delivery, bit 1 + s the arrow to protocol slot s's forced checkpoint
/// (slots 0..61, so the flow id id * 64 + bit stays unique).
struct Flow {
  u64 ends = 0;    ///< Arrows whose finish event appears in the file (prescan).
  u64 open = 0;    ///< Arrows whose "s" was emitted.
  u64 closed = 0;  ///< Arrows whose "f" was emitted.
};
constexpr u64 kFlowStride = 64;
constexpr u64 kDeliveryArrow = 1;
constexpr i32 kMaxFlowSlots = 62;

bool triggers_force_arrow(const ProbeEvent& e) {
  return e.kind == ProbeKind::kCheckpoint && e.ckpt_kind == CkptKind::kForced && e.b != 0 &&
         e.track >= 0 && e.track < kMaxFlowSlots;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const RunObserver& run) {
  write_chrome_trace(os, run, nullptr);
}

void write_chrome_trace(std::ostream& os, const RunObserver& run, const Profiler* prof) {
  BlockWriter w(os);
  w << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;

  // Track naming. pid 0 carries network & mobility (one thread per
  // host); pid slot+1 carries one protocol's checkpoints (again one
  // thread per host), so Perfetto groups each protocol as a process.
  emit_metadata(w, "process_name", 0, 0, "network & mobility", first);
  for (i32 h = 0; h < run.n_hosts(); ++h) {
    emit_metadata(w, "thread_name", 0, h, "host " + std::to_string(h), first);
  }
  const usize n_protocols = run.protocol_names().size();
  for (usize slot = 0; slot < n_protocols; ++slot) {
    const i32 pid = static_cast<i32>(slot) + 1;
    emit_metadata(w, "process_name", pid, 0, "protocol: " + run.protocol_names()[slot], first);
    for (i32 h = 0; h < run.n_hosts(); ++h) {
      emit_metadata(w, "thread_name", pid, h, "host " + std::to_string(h), first);
    }
  }

  // Flow-event prescan: a send emits a flow-start ("s") only for arrows
  // that will terminate ("f") later in the file — the delivery arrow when
  // the message is consumed, and one forced-checkpoint arrow per protocol
  // slot whose forced checkpoint names this message as its trigger.
  // Message ids come from the network's dense per-run counter, so one
  // table indexed by id holds every message's arrows.
  // Outage prescan: pair each crash with the host's next recover so the
  // outage renders as one duration slice instead of two instants.
  const std::vector<ProbeEvent>& events = run.timeline().events();
  std::unordered_map<i32, std::vector<f64>> recover_times;  // host -> times, in order
  std::unordered_map<i32, usize> recover_cursor;
  u64 max_id = 0;
  for (const ProbeEvent& e : events) {
    if (e.kind == ProbeKind::kSend || e.kind == ProbeKind::kDeliver) {
      max_id = std::max(max_id, e.a);
    } else if (triggers_force_arrow(e)) {
      max_id = std::max(max_id, e.b);
    } else if (e.kind == ProbeKind::kRecover) {
      recover_times[e.actor].push_back(e.t);
    }
  }
  std::vector<Flow> flows(max_id + 1);
  for (const ProbeEvent& e : events) {
    if (e.kind == ProbeKind::kDeliver) {
      flows[e.a].ends |= kDeliveryArrow;
    } else if (triggers_force_arrow(e)) {
      flows[e.b].ends |= u64{2} << e.track;
    }
  }
  constexpr f64 kSliceDurUs = 100.0;  // 0.1 tu: wide enough to click on

  const auto begin_event = [&w, &first] {
    if (!first) w << ",\n";
    first = false;
    w << "  ";
  };
  // A flow start/finish binds to the slice with the same pid/tid/ts.
  const auto emit_flow = [&](char ph, const char* cat, u64 id, std::string_view ts, i32 pid,
                             i32 tid) {
    begin_event();
    w << "{\"ph\":\"" << ph << "\",\"cat\":\"" << cat << "\",\"name\":\"" << cat
      << " flow\",\"id\":" << id << ",\"ts\":" << ts << ",\"pid\":" << pid << ",\"tid\":" << tid;
    if (ph == 'f') w << ",\"bp\":\"e\"";
    w << "}";
  };

  char ts_buf[kNumberChars];
  for (const ProbeEvent& e : events) {
    if (e.kind == ProbeKind::kReplication || e.kind == ProbeKind::kConvergence) {
      continue;  // sweep-level entries have no place on a per-run trace
    }
    // Chrome trace ts is integer microseconds; we map 1 simulation tu to
    // 1000 us so a 50k-tu run spans a readable 50 s of trace time.
    const std::string_view ts(ts_buf, format_number(ts_buf, e.t * 1000.0));
    if (e.kind == ProbeKind::kCheckpoint) {
      const bool has_flow = e.ckpt_kind == CkptKind::kForced && e.b != 0;
      begin_event();
      w << "{\"name\":";
      w.string(ckpt_event_name(e));
      // Forced checkpoints with a triggering message become slices so a
      // flow arrow can land on them; the rest stay instants.
      if (has_flow) {
        w << ",\"ph\":\"X\",\"dur\":";
        w.number(kSliceDurUs);
      } else {
        w << ",\"ph\":\"i\",\"s\":\"t\"";
      }
      w << ",\"ts\":" << ts << ",\"pid\":" << (e.track + 1) << ",\"tid\":" << e.actor
        << ",\"args\":{\"sn\":" << e.a << ",\"rule\":";
      w.string(forced_rule_name(e.rule));
      if (e.replaced) w << ",\"replaced\":true";
      if (e.b != 0) w << ",\"msg\":" << e.b;
      w << "}}";
      if (triggers_force_arrow(e)) {
        Flow& f = flows[e.b];
        const u64 arrow = u64{2} << e.track;
        if ((f.open & arrow) != 0 && (f.closed & arrow) == 0) {
          f.closed |= arrow;
          emit_flow('f', "force", e.b * kFlowStride + 1 + static_cast<u64>(e.track), ts,
                    e.track + 1, e.actor);
        }
      }
    } else if (e.kind == ProbeKind::kSend) {
      begin_event();
      w << "{\"name\":\"send #" << e.a << "\",\"ph\":\"X\",\"dur\":";
      w.number(kSliceDurUs);
      w << ",\"ts\":" << ts << ",\"pid\":0,\"tid\":" << e.actor << ",\"args\":{\"msg\":" << e.a
        << ",\"dst\":" << e.track << ",\"sn\":" << e.b << "}}";
      Flow& f = flows[e.a];
      f.open = f.ends;
      if ((f.ends & kDeliveryArrow) != 0) {
        emit_flow('s', "msg", e.a * kFlowStride, ts, 0, e.actor);
      }
      u64 slot = 0;
      for (u64 arrows = f.ends >> 1; arrows != 0; arrows >>= 1, ++slot) {
        if ((arrows & 1) != 0) emit_flow('s', "force", e.a * kFlowStride + 1 + slot, ts, 0, e.actor);
      }
    } else if (e.kind == ProbeKind::kDeliver) {
      begin_event();
      w << "{\"name\":\"deliver #" << e.a << "\",\"ph\":\"X\",\"dur\":";
      w.number(kSliceDurUs);
      w << ",\"ts\":" << ts << ",\"pid\":0,\"tid\":" << e.actor << ",\"args\":{\"msg\":" << e.a
        << ",\"src\":" << e.track << ",\"sn\":" << e.b << "}}";
      Flow& f = flows[e.a];
      if ((f.open & kDeliveryArrow) != 0 && (f.closed & kDeliveryArrow) == 0) {
        f.closed |= kDeliveryArrow;
        emit_flow('f', "msg", e.a * kFlowStride, ts, 0, e.actor);
      }
    } else if (e.kind == ProbeKind::kStorageTransfer) {
      // Transfers are real durations: render the whole wire + storage
      // occupancy as a slice on the host's network track.
      begin_event();
      w << "{\"name\":\"storage: " << storage_transfer_name(e.b) << "\",\"ph\":\"X\",\"dur\":";
      w.number(e.value > 0.0 ? e.value * 1000.0 : kSliceDurUs);
      w << ",\"ts\":" << ts << ",\"pid\":0,\"tid\":" << e.actor << ",\"args\":{\"mss\":" << e.track
        << ",\"bytes\":" << e.a << "}}";
    } else if (e.kind == ProbeKind::kSnPromote) {
      begin_event();
      w << "{\"name\":\"sn promote\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts
        << ",\"pid\":" << (e.track + 1) << ",\"tid\":" << e.actor << ",\"args\":{\"sn\":" << e.a
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
      w << "{\"name\":\"crashed (recovering)\",\"ph\":\"X\",\"dur\":";
      w.number(dur_us);
      w << ",\"ts\":" << ts << ",\"pid\":0,\"tid\":" << e.actor << "}";
    } else {
      begin_event();
      w << "{\"name\":";
      w.string(probe_kind_name(e.kind));
      w << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts << ",\"pid\":0,\"tid\":" << e.actor;
      if (e.kind == ProbeKind::kHandoff) {
        w << ",\"args\":{\"mss\":" << e.track << "}";
      }
      w << "}";
    }
  }

  if (prof != nullptr) emit_host_track(w, *prof, first);

  w << "\n],\n\"metrics\": {";
  bool first_metric = true;
  for (const MetricSample& s : run.registry().snapshot()) emit_metric(w, s, first_metric);
  if (prof != nullptr) {
    for (const MetricSample& s : prof->snapshot()) emit_metric(w, s, first_metric);
  }
  w << "\n}\n}\n";
  w.flush();
}

void write_host_trace(std::ostream& os, const Profiler& prof) {
  BlockWriter w(os);
  w << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  emit_host_track(w, prof, first);
  w << "\n],\n\"metrics\": {";
  bool first_metric = true;
  for (const MetricSample& s : prof.snapshot()) emit_metric(w, s, first_metric);
  w << "\n}\n}\n";
  w.flush();
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
