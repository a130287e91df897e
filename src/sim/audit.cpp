#include "sim/audit.hpp"

#include <ostream>
#include <sstream>

namespace mobichk::sim {

namespace {

AuditRun to_audit_run(const RunResult& r, const char* queue_name) {
  AuditRun run;
  run.queue_name = queue_name;
  run.trace_hash = r.trace_hash;
  run.events_executed = r.events_executed;
  run.workload_ops = r.workload_ops;
  run.invariants_ok = r.invariants_ok;
  run.cross_shard_ties = r.cross_shard_ties;
  run.n_tot.reserve(r.protocols.size());
  for (const auto& p : r.protocols) run.n_tot.emplace_back(p.name, p.n_tot);
  return run;
}

template <typename T>
void check_equal(std::vector<std::string>& mismatches, const AuditRun& base, const AuditRun& run,
                 const char* what, const T& expect, const T& got) {
  if (expect == got) return;
  std::ostringstream msg;
  msg << run.queue_name << " vs " << base.queue_name << ": " << what << " " << got
      << " != " << expect;
  mismatches.push_back(msg.str());
}

}  // namespace

AuditReport audit_determinism(const SimConfig& cfg, ExperimentOptions opts) {
  opts.collect_trace_hash = true;
  // Shard counts audited: always the sequential engine; when the caller
  // asked for sharding, the parallel engine joins the matrix and must
  // match the sequential baseline bit-for-bit on every queue kind.
  std::vector<u32> shard_counts{1};
  if (opts.shards > 1) shard_counts.push_back(opts.shards);
  AuditReport report;
  for (const u32 shards : shard_counts) {
    opts.shards = shards;
    for (const des::QueueKind kind : des::kAllQueueKinds) {
      opts.queue_kind = kind;
      std::string label = des::queue_kind_name(kind);
      if (shards > 1) label += " x" + std::to_string(shards);
      report.runs.push_back(to_audit_run(run_experiment(cfg, opts), label.c_str()));
    }
  }
  const AuditRun& base = report.runs.front();
  for (const AuditRun& run : report.runs) {
    if (!run.invariants_ok) {
      report.mismatches.push_back(run.queue_name + ": invariant ledger did not reconcile");
    }
    // A tie the shard index broke may order two entries differently from
    // the sequential engine, so a sharded run only counts as reproduced
    // when none occurred — even if the hashes happen to agree.
    if (run.cross_shard_ties != 0) {
      report.mismatches.push_back(run.queue_name + ": " + std::to_string(run.cross_shard_ties) +
                                  " cross-shard tie(s) broken by shard index");
    }
    if (&run == &base) continue;
    check_equal(report.mismatches, base, run, "trace hash", base.trace_hash, run.trace_hash);
    check_equal(report.mismatches, base, run, "events executed", base.events_executed,
                run.events_executed);
    check_equal(report.mismatches, base, run, "workload ops", base.workload_ops,
                run.workload_ops);
    check_equal(report.mismatches, base, run, "protocol count", base.n_tot.size(),
                run.n_tot.size());
    if (run.n_tot.size() != base.n_tot.size()) continue;
    for (usize i = 0; i < base.n_tot.size(); ++i) {
      const std::string what = "N_tot[" + base.n_tot[i].first + "]";
      check_equal(report.mismatches, base, run, what.c_str(), base.n_tot[i].second,
                  run.n_tot[i].second);
    }
  }
  return report;
}

void AuditReport::print(std::ostream& os) const {
  os << "determinism audit: one config, every event-queue implementation\n";
  for (const AuditRun& run : runs) {
    os << "  " << run.queue_name;
    for (usize pad = run.queue_name.size(); pad < 12; ++pad) os << ' ';
    os << " hash=" << std::hex << run.trace_hash << std::dec
       << " events=" << run.events_executed << " ops=" << run.workload_ops
       << " invariants=" << (run.invariants_ok ? "ok" : "BROKEN");
    for (const auto& [name, n] : run.n_tot) os << ' ' << name << "=" << n;
    os << '\n';
  }
  if (deterministic()) {
    os << "PASS: identical traces and counts across " << runs.size() << " queue kinds\n";
  } else {
    os << "FAIL: " << mismatches.size() << " divergence(s)\n";
    for (const auto& m : mismatches) os << "  - " << m << '\n';
  }
}

}  // namespace mobichk::sim
