#include "workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/query_translator.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "partition/lyresplit.h"

namespace perfbench {

namespace core = orpheus::core;
namespace obs = orpheus::obs;
namespace wl = orpheus::wl;

// Every workload runs one exec thread (`threads 1`): on a few shared
// vCPUs a parallel scan waits for its slowest worker, so its latency
// follows the host's scheduler more than the engine.
constexpr int kExecThreads = 1;

Workload FindWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "sci_read") {
    w.sci = true;
    w.reader_rate = 250;
    w.commit_every = 100;
    w.xquery_every = 400;
  } else if (name == "cur_commit") {
    w.durable = true;
    w.cur = true;
    w.cur_base = true;
    w.writer_rate = 20;
    w.vquery_every = 2;
    w.xquery_every = 40;
  } else if (name == "mixed_rw") {
    w.durable = true;
    w.sci = true;
    w.cur = true;
    w.vquery_every = 2;
    w.analyst_period_s = 1.0;
  } else {
    w.name.clear();
  }
  return w;
}

int Clients(const Workload& w) {
  return (w.sci ? 1 : 0) + (w.cur ? 1 : 0) + (w.analyst_period_s > 0 ? 1 : 0);
}

Scrape TakeScrape() {
  Scrape s;
  for (const obs::MetricPoint& p : obs::GlobalMetrics().Snapshot()) {
    if (p.type == obs::MetricType::kHistogram) {
      s[p.FlatName() + "_sum"] = p.sum;
      s[p.FlatName() + "_count"] = static_cast<double>(p.count);
    } else {
      s[p.FlatName()] = p.value;
    }
  }
  return s;
}

double Delta(const Scrape& before, const Scrape& after, const std::string& key) {
  auto get = [&key](const Scrape& s) {
    auto it = s.find(key);
    return it == s.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

int64_t EngineRecords(Instance* inst, const std::string& cvd) {
  auto c = inst->engine()->GetCvd(cvd);
  return c.ok() ? c.value()->total_records() : -1;
}

Result<std::unique_ptr<Setup>> RunSetup(const Workload& w, const Inputs& in,
                                        const std::string& dir, bool traced) {
  auto s = std::make_unique<Setup>();
  const Scrape before = TakeScrape();
  const double t0 = Now();
  if (w.sci) s->sci_data = std::make_unique<wl::Dataset>(wl::Generate(in.sci));
  if (w.cur) s->cur_data = std::make_unique<wl::Dataset>(wl::Generate(in.cur));
  const std::string db_dir = w.durable ? dir + "/db" : "";
  ORPHEUS_ASSIGN_OR_RETURN(s->inst, Instance::Start(db_dir, Clients(w)));
  {
    // Models are the benchmark's bookkeeping, built outside the clock.
    const double m0 = Now();
    if (w.sci) s->sci = std::make_unique<CvdModel>("sci", s->sci_data.get());
    if (w.cur) s->cur = std::make_unique<CvdModel>("cur", s->cur_data.get());
    if (w.cur_base) s->cur_base = std::make_unique<CvdModel>("cur_base", s->cur_data.get());
    s->seconds -= Now() - m0;
  }
  Session loader(s->inst.get(), nullptr);
  ORPHEUS_RETURN_NOT_OK(loader.Connect());
  ORPHEUS_RETURN_NOT_OK(
      loader.Exec("threads " + std::to_string(kExecThreads)).status());
  if (w.sci) ORPHEUS_RETURN_NOT_OK(LoadCvd(&loader, *s->sci, dir));
  if (w.cur) ORPHEUS_RETURN_NOT_OK(LoadCvd(&loader, *s->cur, dir));
  if (w.cur_base) ORPHEUS_RETURN_NOT_OK(LoadCvd(&loader, *s->cur_base, dir));
  if (w.sci) {
    const double o0 = Now();
    ORPHEUS_RETURN_NOT_OK(loader.Exec("optimize sci").status());
    s->optimize_s = Now() - o0;
  }
  (void)loader.Exec("exit");
  s->seconds += Now() - t0;

  if (w.sci) s->sci->NoteLoaded();
  if (w.cur) s->cur->NoteLoaded();
  if (w.cur_base) s->cur_base->NoteLoaded();
  if (traced && w.sci) {
    // Probe: LyreSplit alone, on the graph optimize just partitioned
    // (the default gamma = 2 x records budget of the optimize verb).
    ORPHEUS_ASSIGN_OR_RETURN(core::Cvd * cvd, s->inst->engine()->GetCvd("sci"));
    const double l0 = Now();
    auto split = orpheus::part::LyreSplit::RunForBudget(
        cvd->graph(), 2 * cvd->total_records());
    s->lyresplit_s = Now() - l0;
    ORPHEUS_RETURN_NOT_OK(split.status());
  }

  const Scrape after = TakeScrape();
  Fingerprint& fp = s->fp;
  fp.total_bytes = s->inst->engine()->db()->TotalByteSize();
  if (w.sci) fp.records += EngineRecords(s->inst.get(), "sci");
  if (w.cur) fp.records += EngineRecords(s->inst.get(), "cur");
  if (w.cur_base) fp.records += EngineRecords(s->inst.get(), "cur_base");
  if (auto* ps = s->inst->engine()->partition_store("sci")) {
    fp.partitions = static_cast<int64_t>(ps->num_partitions());
    fp.cavg = ps->AvgCheckoutCost();
    fp.storage_records = ps->StorageRecords();
  }
  fp.wal_bytes = static_cast<int64_t>(
      Delta(before, after, "orpheus_wal_bytes_written_total"));
  fp.checkpoints =
      static_cast<int64_t>(Delta(before, after, "orpheus_checkpoints_total"));
  return s;
}

namespace {

constexpr int64_t kBumpKeys = 4;          // UPDATE ... WHERE k < 4
constexpr int kMergeEvery = 4;            // every 4th write is a merge

// Probe calls straight into single layers, made between ops of a
// single-client traced pass: they bypass the engine lock, so nothing
// else may run meanwhile.
class Prober {
 public:
  Prober(Instance* inst, ProbeTimes* out) : inst_(inst), out_(out) {}

  // Probes repeat an op's work, so only every kEvery-th op of a kind
  // is probed; that keeps the traced pass close to the untraced one.
  static constexpr int kEvery = 4;

  void Query(const std::string& op, const std::string& sql) {
    if (++seen_[op] % kEvery != 0) return;
    core::OrpheusDB* engine = inst_->engine();
    core::TableResolver resolver = [engine](const std::string& cvd, VersionId vid) {
      return engine->ResolveTables(cvd, vid);
    };
    double t0 = Now();
    auto translated = core::TranslateVersionedSql(sql, resolver);
    (*out_)["translate." + op].push_back(Now() - t0);
    if (!translated.ok()) return;
    t0 = Now();
    (void)engine->db()->Execute(translated.value());
    (*out_)["db_execute." + op].push_back(Now() - t0);
  }

  void PartitionCheckout(const std::string& cvd, VersionId v) {
    orpheus::part::PartitionStore* ps = inst_->engine()->partition_store(cvd);
    if (ps == nullptr || ++seen_["checkout"] % kEvery != 0) return;
    const double t0 = Now();
    (void)ps->CheckoutVersion(v, "perfbench_probe");
    (*out_)["partition_checkout"].push_back(Now() - t0);
    (void)inst_->engine()->db()->DropTable("perfbench_probe", true);
  }

 private:
  Instance* inst_;
  ProbeTimes* out_;
  std::map<std::string, int> seen_;
};

// What every op needs: its session, where failed checks go, and the
// prober (null unless this is a traced single-client pass).
struct Ctx {
  Session* s = nullptr;
  Checks* checks = nullptr;
  Prober* prober = nullptr;
};

std::string Vid(VersionId v) { return std::to_string(v); }

std::string BumpSql(const std::string& table) {
  return "sql UPDATE " + table + " SET a1 = a1 + 1 WHERE k < " +
         std::to_string(kBumpKeys);
}

// `sql SELECT count(*), sum(a1)` of a staged table against the model.
void CheckStaged(const Ctx& c, const std::string& table, const Summary& want,
                 const std::string& what) {
  auto r = c.s->Exec("sql SELECT count(*), sum(a1) FROM " + table);
  std::vector<std::vector<int64_t>> rows;
  if (r.ok()) rows = ParseRows(r.value());
  if (rows.size() != 1 || rows[0].size() != 2 || rows[0][0] != want.rows ||
      rows[0][1] != want.sum_a1) {
    c.checks->Fail(c.s, what + ": staged count/sum differs from the model");
  }
}

// Checkout of `vids` into `table`, checked against `want`. False when
// the checkout itself failed.
bool CheckoutChecked(const Ctx& c, const CvdModel& m, const std::string& vids,
                     const std::string& table, const Summary& want) {
  if (!c.s->Exec("checkout " + m.name() + " -v " + vids + " -t " + table,
                 kCheckout, want.rows)
           .ok()) {
    return false;
  }
  CheckStaged(c, table, want, "checkout " + m.name() + " v" + vids);
  if (c.prober != nullptr && vids.find(',') == std::string::npos) {
    c.prober->PartitionCheckout(m.name(), std::strtoll(vids.c_str(), nullptr, 10));
  }
  return true;
}

void VqueryOp(const Ctx& c, const CvdModel& m, VersionId v) {
  const VersionId p = m.first_parent(v);
  const std::string sql = "SELECT count(*) FROM VERSION " + Vid(v) + " OF CVD " +
                          m.name() + " AS x, VERSION " + Vid(p) + " OF CVD " +
                          m.name() + " AS y WHERE x.k = y.k AND x.a1 <> y.a1";
  auto r = c.s->Exec("run " + sql, kVquery, 1);
  if (!r.ok()) return;
  std::vector<std::vector<int64_t>> rows = ParseRows(r.value());
  if (rows.size() != 1 || rows[0].empty() || rows[0][0] != m.vquery_answer(v)) {
    c.checks->Fail(c.s, "vquery " + m.name() + " v" + Vid(v) + " vs v" + Vid(p));
  }
  if (c.prober != nullptr) c.prober->Query("vquery", sql);
}

void XqueryOp(const Ctx& c, const CvdModel& m, double due = 0) {
  const int64_t groups = static_cast<int64_t>(m.summaries().size());
  const std::string sql = "SELECT vid, count(*) FROM CVD " + m.name() +
                          " WHERE a2 > 0 GROUP BY vid";
  auto r = c.s->Exec("run " + sql, kXquery, groups, due);
  if (!r.ok()) return;
  // The reply lists the first 50 groups, then "... (n more rows)".
  const std::string& text = r.value();
  int64_t total = 0;
  bool ok = true;
  for (const std::vector<int64_t>& row : ParseRows(text)) {
    ++total;
    auto it = m.summaries().find(row.size() == 2 ? row[0] : -1);
    ok = ok && it != m.summaries().end() && it->second.a2_positive == row[1];
  }
  const size_t more = text.find("... (");
  if (more != std::string::npos) {
    total += std::strtoll(text.c_str() + more + 5, nullptr, 10);
  }
  if (!ok || total != groups) c.checks->Fail(c.s, "xquery " + m.name());
  if (c.prober != nullptr) c.prober->Query("xquery", sql);
}

// Bumps the staged table and commits it as child of `parents`, whose
// contents are given. Returns the new vid, or -1.
VersionId BumpAndCommit(const Ctx& c, CvdModel* m, const std::string& table,
                        Content content, VersionId first_parent,
                        const std::vector<const Content*>& parents,
                        Content* committed) {
  if (!c.s->Exec(BumpSql(table)).ok()) {
    (void)c.s->Exec("discard -t " + table);
    return -1;
  }
  Bump(&content, kBumpKeys);
  auto r = c.s->Exec("commit -t " + table + " -m bench", kCommit,
                     static_cast<int64_t>(content.size()));
  if (!r.ok()) return -1;
  const VersionId vid = m->latest() + 1;
  if (r.value().rfind("committed version " + Vid(vid) + " ", 0) != 0) {
    c.checks->Fail(c.s, "commit answered: " + r.value());
    return -1;
  }
  m->NoteCommitted(vid, content, first_parent, parents);
  *committed = std::move(content);
  return vid;
}

// A curator's write loop: each cycle checks out a branch head, bumps a
// fixed small row set, commits (the new version becomes the head), and
// may vquery it against its parent. Every kMergeEvery-th cycle instead
// merges two heads into a release version that is not itself a head, so
// head sizes stay the same throughout a run. Merges are a quarter of the
// cycles so that p90 of checkout and commit falls inside the merges, not
// on the edge between the two kinds of cycle.
class Writer {
 public:
  // `xq` is the CVD the xqueries read.
  Writer(Ctx c, CvdModel* m, const CvdModel* xq, uint64_t seed, const Workload& w)
      : c_(c), m_(m), xq_(xq), w_(w), table_("w" + Vid(c.s->id())),
        heads_(HeadOrder(m->data(), seed)) {
    for (VersionId h : heads_) content_[h] = m->DatasetContent(h);
  }

  // Single cycles visit the heads in turn; merge number n merges heads
  // n and n + 1 of the visiting order.
  void Cycle() {
    ++cycles_;
    if (w_.xquery_every > 0 && cycles_ % w_.xquery_every == 0) XqueryOp(c_, *xq_);
    const bool merge = cycles_ % kMergeEvery == 0 && heads_.size() >= 2;
    const size_t i = (merge ? merges_ : singles_) % heads_.size();
    ++(merge ? merges_ : singles_);
    const VersionId h1 = heads_[i];
    std::vector<const Content*> parents = {&content_[h1]};
    Content c = content_[h1];
    std::string vids = Vid(h1);
    if (merge) {
      const VersionId h2 = heads_[(i + 1) % heads_.size()];
      parents.push_back(&content_[h2]);
      c = Merge(content_[h1], content_[h2]);
      vids += "," + Vid(h2);
    }
    if (!CheckoutChecked(c_, *m_, vids, table_, Summarize(c))) return;
    Content committed;
    const VersionId vid =
        BumpAndCommit(c_, m_, table_, std::move(c), h1, parents, &committed);
    if (vid < 0) return;
    if (!merge) {
      content_.erase(h1);
      content_[vid] = std::move(committed);
      heads_[i] = vid;
    }
    if (w_.vquery_every > 0 && cycles_ % w_.vquery_every == 0) VqueryOp(c_, *m_, vid);
  }

 private:
  Ctx c_;
  CvdModel* m_;
  const CvdModel* xq_;
  const Workload& w_;
  std::string table_;
  std::vector<VersionId> heads_;
  std::map<VersionId, Content> content_;
  int64_t cycles_ = 0;
  size_t singles_ = 0;
  size_t merges_ = 0;
};

// A data scientist's read loop on SCI: checkouts of uniformly sampled
// loaded versions and vqueries against the parent; sci_read adds a
// commit of a bumped copy and a whole-CVD xquery at fixed periods.
class Reader {
 public:
  Reader(Ctx c, CvdModel* m, uint64_t seed, const Workload& w)
      : c_(c), m_(m), rng_(seed), w_(w), table_("r" + Vid(c.s->id())),
        loaded_(static_cast<VersionId>(m->data().versions().size())) {}

  void Op() {
    ++ops_;
    if (w_.xquery_every > 0 && ops_ % w_.xquery_every == 0) {
      XqueryOp(c_, *m_);
      return;
    }
    const VersionId v =
        1 + static_cast<VersionId>(rng_.Uniform(static_cast<uint64_t>(loaded_)));
    const bool commit = w_.commit_every > 0 && ops_ % w_.commit_every == 0;
    if (commit || rng_.Bernoulli(0.5) || v == 1) {
      if (!CheckoutChecked(c_, *m_, Vid(v), table_, m_->summary(v))) return;
      if (!commit) {
        (void)c_.s->Exec("discard -t " + table_);
        return;
      }
      // A new child of v; it is never sampled, so reads stay on the
      // partitioned versions.
      const Content parent = m_->DatasetContent(v);
      Content committed;
      (void)BumpAndCommit(c_, m_, table_, parent, v, {&parent}, &committed);
    } else {
      VqueryOp(c_, *m_, v);
    }
  }

 private:
  Ctx c_;
  CvdModel* m_;
  orpheus::Rng rng_;
  const Workload& w_;
  std::string table_;
  VersionId loaded_;
  int64_t ops_ = 0;
};

void RunThreads(const std::vector<std::function<void()>>& fns) {
  std::vector<std::thread> threads;
  threads.reserve(fns.size());
  for (const auto& fn : fns) threads.emplace_back(fn);
  for (std::thread& t : threads) t.join();
}

constexpr double kWarmupShare = 0.1;  // first 10% of each loop is warm-up

}  // namespace

Status RunPass(const Workload& w, uint64_t seed, int seconds, Setup* setup,
               bool traced, Checks* checks, Pass* pass) {
  std::unique_ptr<TraceHarvester> harvester;
  if (traced) harvester = std::make_unique<TraceHarvester>();
  auto session = [&]() -> Result<Session*> {
    pass->sessions.push_back(
        std::make_unique<Session>(setup->inst.get(), harvester.get()));
    ORPHEUS_RETURN_NOT_OK(pass->sessions.back()->Connect());
    return pass->sessions.back().get();
  };
  // Probes only when one session runs alone.
  Prober prober(setup->inst.get(), &pass->probes);
  Prober* probe = traced && Clients(w) == 1 ? &prober : nullptr;

  std::unique_ptr<Reader> reader;
  std::unique_ptr<Writer> writer;
  Session* analyst = nullptr;
  if (w.sci) {
    ORPHEUS_ASSIGN_OR_RETURN(Session * s, session());
    reader = std::make_unique<Reader>(Ctx{s, checks, probe}, setup->sci.get(),
                                      ReaderSeed(seed), w);
  }
  if (w.cur) {
    ORPHEUS_ASSIGN_OR_RETURN(Session * s, session());
    const CvdModel* xq = setup->cur_base ? setup->cur_base.get() : setup->cur.get();
    writer = std::make_unique<Writer>(Ctx{s, checks, probe}, setup->cur.get(), xq,
                                      WriterSeed(seed), w);
  }
  if (w.analyst_period_s > 0) {
    ORPHEUS_ASSIGN_OR_RETURN(analyst, session());
  }

  // Single-client workloads issue a fixed number of ops, so a seed
  // replays the same work. In mixed_rw the analyst's schedule fixes the
  // phase's length and the closed loops run until it ends, so every
  // session spans the whole phase.
  const int reader_ops = static_cast<int>(w.reader_rate * seconds);
  const int writer_ops = static_cast<int>(w.writer_rate * seconds);
  const int analyst_ops = w.analyst_period_s > 0 ? static_cast<int>(seconds / w.analyst_period_s) : 0;
  std::vector<double> lateness_ms;
  auto phase = [&](double share) {
    const double phase_start = Now();
    std::atomic<bool> analyst_done{analyst == nullptr};
    auto more = [&analyst_done, analyst](int i, int n) {
      return analyst != nullptr ? !analyst_done.load() : i < n;
    };
    std::vector<std::function<void()>> loops;
    if (reader) {
      const int n = static_cast<int>(reader_ops * share);
      loops.push_back([&, n] {
        for (int i = 0; more(i, n); ++i) reader->Op();
      });
    }
    if (writer) {
      const int n = static_cast<int>(writer_ops * share);
      loops.push_back([&, n] {
        for (int i = 0; more(i, n); ++i) writer->Cycle();
      });
    }
    if (analyst != nullptr) {
      // Open loop: xquery i is due at phase start + i periods and is
      // timed from its due time; lateness is how late it was sent.
      const int n = std::max(1, static_cast<int>(analyst_ops * share));
      loops.push_back([&, n, phase_start] {
        Ctx c{analyst, checks, nullptr};
        for (int i = 0; i < n; ++i) {
          const double due = phase_start + i * w.analyst_period_s;
          const double wait = due - Now();
          if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          lateness_ms.push_back(std::max(0.0, Now() - due) * 1e3);
          XqueryOp(c, *setup->sci, due);
        }
        // The last xquery's period runs out before the phase ends.
        const double end = phase_start + n * w.analyst_period_s;
        if (end > Now()) std::this_thread::sleep_for(std::chrono::duration<double>(end - Now()));
        analyst_done = true;
      });
    }
    RunThreads(loops);
  };

  phase(kWarmupShare);
  pass->probes.clear();
  lateness_ms.clear();
  for (auto& s : pass->sessions) s->set_measuring(true);
  pass->before = TakeScrape();
  pass->t0 = Now();
  phase(1.0);
  pass->t1 = Now();
  pass->after = TakeScrape();
  for (auto& s : pass->sessions) {
    s->set_measuring(false);
    (void)s->Exec("exit");
  }
  if (!lateness_ms.empty()) {
    double sum = 0;
    for (double l : lateness_ms) {
      sum += l;
      pass->lateness_max_ms = std::max(pass->lateness_max_ms, l);
    }
    pass->lateness_mean_ms = sum / static_cast<double>(lateness_ms.size());
  }
  if (harvester != nullptr) pass->traces = harvester->Take();
  return Status::OK();
}

}  // namespace perfbench
