#include "metrics.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

#include "host.h"
#include "obs/trace.h"
#include "partition/partition_store.h"

namespace perfbench {

namespace obs = orpheus::obs;

namespace {

constexpr int64_t kRecordBytes = 20 * 8;  // k + a1..a19, 8-byte ints

// Distinct records the engine must hold, by the models.
int64_t DistinctRecords(const Setup& setup) {
  return (setup.sci ? setup.sci->distinct_records() : 0) +
         (setup.cur ? setup.cur->distinct_records() : 0) +
         (setup.cur_base ? setup.cur_base->distinct_records() : 0);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double BlockPercentile(const Pass& pass, int kind, double q) {
  std::vector<double> per_block;
  for (const std::vector<double>& b : Blocks(pass, Samples(pass, kind))) {
    if (!b.empty()) per_block.push_back(Percentile(b, q));
  }
  return Percentile(per_block, 50);
}

// Lays one op's engine trace out as spans inside its client span:
// stages run one after another inside the engine's op scope, WAL
// enqueue, checkpoint and the operator tree inside execute. Durations
// are as measured; positions only nest them.
void OpSpans(const StmtRecord& rec, const obs::OpTrace& t, uint64_t op_id,
             std::vector<Span>* out) {
  auto add = [out, op_id](const std::string& name, double start, double dur,
                          int parent) {
    out->push_back({name, start, start + dur, parent, op_id});
    return static_cast<int>(out->size() - 1);
  };
  const int client = add("client", rec.start, rec.end - rec.start, -1);
  const double engine_start = std::max(rec.start, rec.end - t.total_s);
  const int engine = add("engine", engine_start, rec.end - engine_start, client);
  double at = engine_start;
  int exec = -1;
  const obs::TraceStage order[] = {obs::TraceStage::kParse, obs::TraceStage::kLockWait,
                                   obs::TraceStage::kExecute,
                                   obs::TraceStage::kGroupCommitSync};
  for (obs::TraceStage st : order) {
    const double d = t.stage_s[static_cast<int>(st)];
    const int id = add(obs::TraceStageName(st), at, d, engine);
    if (st == obs::TraceStage::kExecute) exec = id;
    at += d;
  }
  // An auto-checkpoint runs inside the WAL append that crossed the
  // size bound, so it nests in wal_enqueue.
  double in_exec = (*out)[static_cast<size_t>(exec)].start;
  const double enq = t.stage_s[static_cast<int>(obs::TraceStage::kWalEnqueue)];
  const double ckpt = t.stage_s[static_cast<int>(obs::TraceStage::kCheckpoint)];
  const int wal = add(obs::TraceStageName(obs::TraceStage::kWalEnqueue), in_exec, enq, exec);
  add(obs::TraceStageName(obs::TraceStage::kCheckpoint), in_exec, ckpt,
      ckpt <= enq ? wal : exec);
  in_exec += std::max(enq, ckpt);
  std::function<void(const obs::ProfileNode&, int, double)> tree =
      [&](const obs::ProfileNode& node, int parent, double start) {
        double child_at = start;
        for (const auto& child : node.children) {
          const int id = add("op." + child->op, child_at, child->seconds, parent);
          tree(*child, id, child_at);
          child_at += child->seconds;
        }
      };
  if (t.profile != nullptr) tree(*t.profile, exec, in_exec);
}

// Operators the workloads' plans run (merge_sort, inl_probe and
// order_by never appear in them).
const char* const kOperators[] = {"scan",      "filter",     "project",   "join",
                                  "hash_build", "hash_probe", "aggregate"};

}  // namespace

std::vector<Sample> Samples(const Pass& pass, int kind) {
  std::vector<Sample> all;
  for (const auto& s : pass.sessions) {
    for (const StmtRecord& r : s->stmts) {
      if (r.measured && r.ok && r.kind == kind) all.push_back({r.end, r.latency_ms});
    }
  }
  return all;
}

std::vector<double> Values(const std::vector<Sample>& v) {
  std::vector<double> out;
  for (const Sample& x : v) out.push_back(x.ms);
  return out;
}

// Samples grouped by the time slice they completed in.
std::vector<std::vector<double>> Blocks(const Pass& pass, const std::vector<Sample>& v) {
  std::vector<std::vector<double>> blocks(kBlocks);
  const double len = (pass.t1 - pass.t0) / kBlocks;
  for (const Sample& x : v) {
    const int b = std::clamp(static_cast<int>((x.end - pass.t0) / len), 0, kBlocks - 1);
    blocks[static_cast<size_t>(b)].push_back(x.ms);
  }
  return blocks;
}

double OpsPerSecond(const Pass& pass) {
  std::vector<Sample> all;
  for (int k = 0; k < kOpKinds; ++k) {
    std::vector<Sample> v = Samples(pass, k);
    all.insert(all.end(), v.begin(), v.end());
  }
  std::vector<double> rates;
  for (const std::vector<double>& b : Blocks(pass, all)) {
    rates.push_back(static_cast<double>(b.size()) / ((pass.t1 - pass.t0) / kBlocks));
  }
  return Percentile(rates, 50);
}


// Counts a seed must reproduce exactly on a single-client workload.
std::string PassCounts(const Pass& pass, const Setup& setup) {
  int64_t scanned = 0, probes = 0, pages = 0, stmts = 0;
  for (const auto& s : pass.sessions) {
    for (const StmtRecord& r : s->stmts) {
      if (!r.measured || r.kind == kUntimed) continue;
      ++stmts;
      scanned += r.rows_scanned;
      probes += r.index_probes;
      pages += r.pages_read;
    }
  }
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "ops=%lld rows_scanned=%lld index_probes=%lld pages_read=%lld "
      "wal_bytes=%.0f checkpoints=%.0f bytes=%lld records=%lld",
      static_cast<long long>(stmts), static_cast<long long>(scanned),
      static_cast<long long>(probes), static_cast<long long>(pages),
      Delta(pass.before, pass.after, "orpheus_wal_bytes_written_total"),
      Delta(pass.before, pass.after, "orpheus_checkpoints_total"),
      static_cast<long long>(setup.inst->engine()->db()->TotalByteSize()),
      static_cast<long long>(DistinctRecords(setup)));
  return buf;
}

// The end-to-end metrics of an untraced pass.
Metrics EndToEnd(const Pass& pass, const Setup& setup, double setup_s) {
  Metrics m;
  m.push_back({"setup_s", setup_s, "s"});
  const char* names[kOpKinds] = {"checkout", "commit", "vquery", "xquery"};
  for (int k = 0; k < kOpKinds; ++k) {
    if (k == kXquery) {
      m.push_back({"xquery_p50_ms", Percentile(Values(Samples(pass, k)), 50), "ms"});
      continue;
    }
    m.push_back({std::string(names[k]) + "_p50_ms", BlockPercentile(pass, k, 50), "ms"});
    m.push_back({std::string(names[k]) + "_p90_ms", BlockPercentile(pass, k, 90), "ms"});
  }
  m.push_back({"ops_per_s", OpsPerSecond(pass), "1/s"});
  m.push_back({"space_amp",
               static_cast<double>(setup.inst->engine()->db()->TotalByteSize()) /
                   static_cast<double>(DistinctRecords(setup) * kRecordBytes),
               "ratio"});
  m.push_back({"rss_peak_mb", PeakRssMiB(), "MiB"});
  return m;
}

// Matches each session's statements with the engine's traces (same
// order per session), lays out spans, and sums self times per layer.
Status Attribute(const Pass& pass, LayerSums* sums, std::vector<Span>* spans) {
  std::map<uint64_t, std::vector<const obs::OpTrace*>> by_session;
  for (const obs::OpTrace& t : pass.traces) by_session[t.session_id].push_back(&t);
  uint64_t op_id = 0;
  for (const auto& s : pass.sessions) {
    const std::vector<const obs::OpTrace*>& traces = by_session[s->id()];
    if (traces.size() != s->stmts.size()) {
      return Status::Internal("session " + std::to_string(s->id()) + " sent " +
                              std::to_string(s->stmts.size()) + " statements but " +
                              std::to_string(traces.size()) + " traces were kept");
    }
    for (size_t i = 0; i < traces.size(); ++i) {
      const StmtRecord& rec = s->stmts[i];
      if (!rec.measured || rec.kind == kUntimed) continue;
      const std::string want = rec.kind == kCheckout ? "checkout"
                               : rec.kind == kCommit ? "commit"
                                                     : "run";
      if (traces[i]->verb != want) {
        return Status::Internal("trace verb " + traces[i]->verb + " for a " +
                                kOpNames[rec.kind] + " op");
      }
      const size_t first = spans->size();
      OpSpans(rec, *traces[i], ++op_id, spans);
      std::vector<Span> mine(spans->begin() + static_cast<long>(first), spans->end());
      for (Span& sp : mine) sp.parent -= sp.parent >= 0 ? static_cast<int>(first) : 0;
      std::vector<double> self = SelfTimes(mine);
      for (size_t j = 0; j < mine.size(); ++j) {
        sums->self_s[rec.kind][mine[j].name] += self[j];
        if (mine[j].name.rfind("op.", 0) == 0) {
          sums->operator_self_s[mine[j].name.substr(3)] += self[j];
        }
      }
      sums->client_s[rec.kind] += rec.end - rec.start;
      ++sums->n[rec.kind];
    }
  }
  return Status::OK();
}

// The per-layer metrics of a traced pass.
Metrics PerLayer(const Pass& pass, const Setup& setup, const LayerSums& sums,
                 double trace_overhead) {
  Metrics m;
  auto mean_ms = [&](int k, const std::string& span) {
    auto it = sums.self_s[k].find(span);
    return sums.n[k] > 0 && it != sums.self_s[k].end()
               ? it->second / static_cast<double>(sums.n[k]) * 1e3
               : 0.0;
  };
  auto probe_ms = [&](const std::string& name) {
    auto it = pass.probes.find(name);
    return it == pass.probes.end() ? 0.0 : Mean(it->second) * 1e3;
  };
  int64_t total_ops = 0;
  for (int k = 0; k < kOpKinds; ++k) total_ops += sums.n[k];

  // Statement-level counts per op kind.
  struct PerKind {
    double net = 0, scanned = 0, pages = 0, returned = 0;
    int64_t n = 0;
  } per[kOpKinds];
  for (const auto& s : pass.sessions) {
    for (const StmtRecord& r : s->stmts) {
      if (!r.measured || r.kind == kUntimed) continue;
      PerKind& p = per[r.kind];
      ++p.n;
      p.net += static_cast<double>(r.net_bytes);
      p.scanned += static_cast<double>(r.rows_scanned);
      p.pages += static_cast<double>(r.pages_read);
      p.returned += static_cast<double>(r.rows_returned);
    }
  }
  auto per_op = [](double total, int64_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };

  for (int k = 0; k < kOpKinds; ++k) {
    const std::string op = kOpNames[k];
    const bool exclusive = k == kCheckout || k == kCommit;
    m.push_back({"server.self_ms." + op, mean_ms(k, "client"), "ms"});
    m.push_back({"server.net_bytes_per_op." + op, per_op(per[k].net, per[k].n), "bytes"});
    m.push_back({"core.parse_ms." + op, mean_ms(k, "parse"), "ms"});
    m.push_back({std::string(exclusive ? "core.lock_wait_x_ms." : "core.lock_wait_s_ms.") + op,
                 mean_ms(k, "lock_wait"), "ms"});
    m.push_back({"core.engine_self_ms." + op, mean_ms(k, "engine"), "ms"});
    m.push_back({"core.middleware_ms." + op, mean_ms(k, "execute"), "ms"});
    if (!exclusive) {
      m.push_back({"core.translate_ms." + op, probe_ms("translate." + op), "ms"});
      m.push_back({"relstore.exec_ms." + op, probe_ms("db_execute." + op), "ms"});
    }
    m.push_back({"relstore.rows_scanned_per_op." + op, per_op(per[k].scanned, per[k].n), "rows"});
    m.push_back({"relstore.pages_read_per_op." + op, per_op(per[k].pages, per[k].n), "pages"});
    m.push_back({"relstore.scan_waste." + op,
                 per[k].returned > 0 ? per[k].scanned / per[k].returned : 0.0, "ratio"});
    // Everything in the client span no named layer claims: time inside
    // the engine's op scope outside every stage, minus any overlap
    // where measured parts add up to more than their parent.
    double named = 0;
    for (const auto& [span, secs] : sums.self_s[k]) {
      if (span != "engine") named += secs;
    }
    m.push_back({"unattributed_frac." + op,
                 sums.client_s[k] > 0 ? (sums.client_s[k] - named) / sums.client_s[k] : 0.0,
                 "ratio"});
  }
  for (const char* op : kOperators) {
    auto it = sums.operator_self_s.find(op);
    m.push_back({std::string("relstore.op_self_ms.") + op,
                 it == sums.operator_self_s.end() ? 0.0 : per_op(it->second * 1e3, total_ops),
                 "ms"});
  }

  // Partition layer.
  orpheus::part::PartitionStore* ps = setup.inst->engine()->partition_store("sci");
  m.push_back({"partition.optimize_s", setup.optimize_s, "s"});
  m.push_back({"partition.lyresplit_s", setup.lyresplit_s, "s"});
  m.push_back({"partition.checkout_ms", probe_ms("partition_checkout"), "ms"});
  m.push_back({"partition.cavg_records", ps ? ps->AvgCheckoutCost() : 0.0, "records"});
  m.push_back({"partition.storage_records",
               ps ? static_cast<double>(ps->StorageRecords()) : 0.0, "records"});
  m.push_back({"partition.count", ps ? static_cast<double>(ps->num_partitions()) : 0.0, "count"});

  // Storage layer, from the registry across the timed phase.
  auto d = [&](const std::string& key) { return Delta(pass.before, pass.after, key); };
  const double commits = static_cast<double>(per[kCommit].n);
  const double wal = d("orpheus_wal_bytes_written_total");
  const double ckpt_bytes = d("orpheus_checkpoint_bytes_written_total");
  const double ckpts = d("orpheus_checkpoints_total");
  const double written = d("orpheus_checkpoint_segments_written_total");
  const double reused = d("orpheus_checkpoint_segments_reused_total");
  const double groups = d("orpheus_wal_group_size_count");
  double ckpt_s = 0;
  for (int k = 0; k < kOpKinds; ++k) {
    auto it = sums.self_s[k].find("checkpoint");
    if (it != sums.self_s[k].end()) ckpt_s += it->second;
  }
  const double changed_bytes = static_cast<double>(
      (DistinctRecords(setup) - setup.fp.records) * kRecordBytes);
  m.push_back({"storage.wal_bytes_per_commit", per_op(wal, per[kCommit].n), "bytes"});
  m.push_back({"storage.write_amp", changed_bytes > 0 ? (wal + ckpt_bytes) / changed_bytes : 0.0,
               "ratio"});
  m.push_back({"storage.syncs_per_commit",
               commits > 0 ? d("orpheus_wal_syncs_total") / commits : 0.0, "count"});
  m.push_back({"storage.enqueue_ms", mean_ms(kCommit, "wal_enqueue"), "ms"});
  m.push_back({"storage.sync_ms", mean_ms(kCommit, "group_commit_sync"), "ms"});
  m.push_back({"storage.checkpoints", ckpts, "count"});
  m.push_back({"storage.checkpoint_ms", ckpts > 0 ? ckpt_s / ckpts * 1e3 : 0.0, "ms"});
  m.push_back({"storage.checkpoint_bytes", ckpt_bytes, "bytes"});
  m.push_back({"storage.segments_reused_frac",
               written + reused > 0 ? reused / (written + reused) : 0.0, "ratio"});
  m.push_back({"storage.group_size_mean",
               groups > 0 ? d("orpheus_wal_group_size_sum") / groups : 0.0, "records"});
  m.push_back({"storage.disk_amp",
               setup.inst->dir().empty()
                   ? 0.0
                   : static_cast<double>(DirBytes(setup.inst->dir())) /
                         static_cast<double>(DistinctRecords(setup) * kRecordBytes),
               "ratio"});
  m.push_back({"obs.trace_overhead", trace_overhead, "ratio"});
  return m;
}


}  // namespace perfbench
