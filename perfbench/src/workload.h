// A workload's run: its definition, the three setups that stand the
// engine up and load it, and the timed pass of its client sessions.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"
#include "model.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace perfbench {

// One workload: which CVDs it loads, how the engine runs, and the mix of
// its sessions' ops.
struct Workload {
  std::string name;
  bool durable = false;
  bool sci = false;          // loads SCI (partitioned with optimize)
  bool cur = false;          // loads CUR (unpartitioned split-by-rlist)
  // Also loads CUR a second time as cur_base, which only the writer's
  // xqueries read: every commit adds a version, so an xquery of the
  // written CVD would cost more with every cycle of the run.
  bool cur_base = false;
  // Single-client workloads: ops per second of --seconds (the timed
  // phase issues a fixed number of ops so that a seed replays the same
  // work). SCI gets a reader, CUR a writer.
  double reader_rate = 0;    // SCI checkout / vquery ops
  double writer_rate = 0;    // CUR write cycles (checkout + commit)
  int commit_every = 0;      // sci_read: every n-th reader op commits
  int xquery_every = 0;      // closed-loop xquery period in ops/cycles
  int vquery_every = 0;      // writer: vquery of the new version
  double analyst_period_s = 0;  // mixed_rw: open-loop xquery period
};

// The workload of that name; an empty name if there is none.
Workload FindWorkload(const std::string& name);

// Client sessions of the timed phase: a reader on SCI, a writer on CUR,
// and the analyst when there is one.
int Clients(const Workload& w);

// Flat registry values: counters/gauges by FlatName(), histograms as
// <flat>_sum and <flat>_count.
using Scrape = std::map<std::string, double>;

Scrape TakeScrape();
double Delta(const Scrape& before, const Scrape& after, const std::string& key);

// Counts a setup must reproduce exactly, run after run.
struct Fingerprint {
  int64_t total_bytes = 0;
  int64_t records = 0;
  int64_t partitions = 0;
  double cavg = 0;
  int64_t storage_records = 0;
  int64_t wal_bytes = 0;
  int64_t checkpoints = 0;

  bool operator==(const Fingerprint& o) const {
    return total_bytes == o.total_bytes && records == o.records &&
           partitions == o.partitions && cavg == o.cavg &&
           storage_records == o.storage_records && wal_bytes == o.wal_bytes &&
           checkpoints == o.checkpoints;
  }
  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "bytes=%lld records=%lld partitions=%lld cavg=%.3f "
                  "storage=%lld wal_bytes=%lld checkpoints=%lld",
                  static_cast<long long>(total_bytes),
                  static_cast<long long>(records),
                  static_cast<long long>(partitions), cavg,
                  static_cast<long long>(storage_records),
                  static_cast<long long>(wal_bytes),
                  static_cast<long long>(checkpoints));
    return buf;
  }
};

// The workload's inputs: dataset specs picked from the seed.
struct Inputs {
  orpheus::wl::DatasetSpec sci;
  orpheus::wl::DatasetSpec cur;
};

struct Setup {
  std::unique_ptr<orpheus::wl::Dataset> sci_data;
  std::unique_ptr<orpheus::wl::Dataset> cur_data;
  std::unique_ptr<CvdModel> sci;
  std::unique_ptr<CvdModel> cur;
  std::unique_ptr<CvdModel> cur_base;  // read-only; null unless w.cur_base
  std::unique_ptr<Instance> inst;
  double seconds = 0;
  double optimize_s = 0;
  double lyresplit_s = 0;  // traced setups only
  Fingerprint fp;
};

// Records the engine holds for a CVD (-1 if it has none).
int64_t EngineRecords(Instance* inst, const std::string& cvd);

// Generates the datasets, opens the engine (durable workloads in
// `dir`/db), loads every version through a client session and optimizes
// SCI; times all of it. `traced` adds the LyreSplit probe.
Result<std::unique_ptr<Setup>> RunSetup(const Workload& w, const Inputs& in,
                                        const std::string& dir, bool traced);

// Times of probe calls, by probe name ("translate.vquery", ...).
using ProbeTimes = std::map<std::string, std::vector<double>>;

// First failed check, for the report; every failure also counts as a
// failed op on its session.
struct Checks {
  std::mutex mu;
  std::string first;
  int64_t count = 0;
  void Fail(Session* s, const std::string& what) {
    s->FailLastOp();
    std::lock_guard<std::mutex> lock(mu);
    if (count++ == 0) first = what;
  }
};

struct Pass {
  std::vector<std::unique_ptr<Session>> sessions;
  double t0 = 0;  // timed phase
  double t1 = 0;
  Scrape before;
  Scrape after;
  double lateness_mean_ms = 0;
  double lateness_max_ms = 0;
  std::vector<orpheus::obs::OpTrace> traces;
  ProbeTimes probes;
};

// Runs the workload's sessions on `setup`: a warm-up phase (the first
// 10% of the ops), then the timed phase with every session measuring.
// `traced` harvests the engine's op traces and, with one client, adds
// the probes. Failed checks go to `checks`.
Status RunPass(const Workload& w, uint64_t seed, int seconds, Setup* setup,
               bool traced, Checks* checks, Pass* pass);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
