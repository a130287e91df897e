// Umbrella header: the public surface of the mobichk library.
//
// Examples, benches and downstream tools should include this header and
// nothing else; everything re-exported here is API the project commits
// to. Headers NOT listed here (src/README.md marks them) are internal —
// event-queue implementations, protocol internals, pooled slot tables —
// and may change shape between commits without notice.
//
// What this gives you, layer by layer:
//   des::Simulator, des::QueueKind          the event kernel
//   des::VectorSink / write_trace           trace capture + portable dump
//   net::Network, net::NetworkStats         hosts, MSSs, channels, mobility
//   core::make_protocol, ProtocolHarness    the checkpointing protocols
//   core::rollback_to_consistent, gc        recovery lines + garbage collection
//   obs::MetricRegistry, RunObserver        counters/gauges/histograms + the
//   obs::write_metrics_jsonl/chrome_trace   checkpoint timeline exporters
//   obs::RecoveryLineTracker, CausalMonitor online recovery-line tracking
//   sim::print_checkpoint_chain, --dot      run explainer (causal chains)
//   sim::SimConfig, Experiment, RunResult   one end-to-end run
//   sim::FigureSpec, run_figure             adaptive-precision sweeps
//   sim::audit_determinism                  cross-queue determinism audit
//   sim::ArgParser, FlagSet                 CLI flag schema + --help
//   sim::write_json / *_from_json           result (de)serialization
//   sim::load_config / config_from_json     the run-config document (JSON
//                                           files) on SimConfig + options
//   storage::StableStorage, DataPlane       checkpoint bytes + service queues
#pragma once

#include "core/factory.hpp"
#include "core/gc.hpp"
#include "core/harness.hpp"
#include "core/recovery.hpp"
#include "core/recovery_time.hpp"
#include "core/replay.hpp"
#include "des/simulator.hpp"
#include "des/trace_io.hpp"
#include "net/network.hpp"
#include "obs/causal.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/timeline.hpp"
#include "sim/audit.hpp"
#include "sim/cli.hpp"
#include "sim/config.hpp"
#include "sim/experiment.hpp"
#include "sim/experiment_config.hpp"
#include "sim/explain.hpp"
#include "sim/faults.hpp"
#include "sim/html_report.hpp"
#include "sim/mobility.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "sim/workload.hpp"
#include "storage/data_plane.hpp"
#include "storage/stable_storage.hpp"
