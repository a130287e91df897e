// Exporters for one observed run:
//  * write_metrics_jsonl — newline-delimited JSON: one "event" line per
//    timeline entry (time-ordered), then one "metric" line per registry
//    sample. Greppable, streamable, trivially diffable.
//  * write_chrome_trace — Chrome trace-event JSON (the chrome://tracing /
//    Perfetto "JSON Object Format"): per-host tracks, checkpoint events
//    with the triggering rule, mobility markers, send/deliver slices and
//    flow arrows ("s"/"f") linking each send to its delivery and to any
//    forced checkpoint it triggered.
//
// The obs layer sits below sim/, so these implement their own minimal
// JSON emission (escaping + shortest-round-trip doubles) rather than
// reusing sim::JsonWriter. Each document is serialized into a fixed
// 64 KiB block handed to the stream one write() at a time, so the bytes
// never depend on the stream's locale or format flags and no export
// holds the whole document in memory.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/observer.hpp"
#include "obs/prof.hpp"

namespace mobichk::obs {

void write_metrics_jsonl(std::ostream& os, const RunObserver& run);
void write_chrome_trace(std::ostream& os, const RunObserver& run);

/// Combined export: the sim-time tracks plus a second "host-time" track
/// (pid 9999, one thread row per profiler lane with B/E window/barrier
/// slices, one "totals" row per lane with the phase breakdown laid end
/// to end). `prof` may be nullptr — then the output is byte-identical to
/// the two-argument overload.
void write_chrome_trace(std::ostream& os, const RunObserver& run, const Profiler* prof);

/// Host-time-only trace for runs that cannot carry an observer (sharded
/// runs): the same host-time track in its own self-contained document,
/// with the prof.* snapshot as the trailing "metrics" object.
void write_host_trace(std::ostream& os, const Profiler& prof);

/// Convenience wrappers: write to `path`. Throw std::runtime_error
/// naming the path and the errno text when the file cannot be opened or
/// the stream fails after writing — an export must never silently
/// truncate and report success.
void write_metrics_jsonl(const std::string& path, const RunObserver& run);
void write_chrome_trace(const std::string& path, const RunObserver& run);
void write_chrome_trace(const std::string& path, const RunObserver& run, const Profiler* prof);
void write_host_trace(const std::string& path, const Profiler& prof);

}  // namespace mobichk::obs
