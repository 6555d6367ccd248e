// perfbench: the repository's benchmark. Stands up the OrpheusDB engine
// and its TCP server in this process, loads SCI and/or CUR datasets
// through real statements, drives one workload through
// server::Client, checks every answer against the benchmark's own
// model, and prints the metrics as one JSON line (the last line of
// stdout). See perfbench/README.md.
//
//   perfbench --workload <sci_read|cur_commit|mixed_rw> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//             [--spans <file>]
//   perfbench --selftest | --calibrate

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "harness.h"
#include "host.h"
#include "inputs.h"
#include "metrics.h"
#include "stats.h"
#include "storage/snapshot.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace core = orpheus::core;
namespace wl = orpheus::wl;

// --- Output -----------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed, const Metrics& m) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    out += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + JsonNumber(m[i].value) +
           ", \"unit\": \"" + m[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& s : spans) {
    std::fprintf(f, "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"op_id\":%llu}\n",
                 s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.op_id));
  }
  std::fclose(f);
}

// --- Durability ---------------------------------------------------------------------

// Reopens the durable directory in a fresh engine after the live one
// shut down: the recovered engine must encode bit-identically to the
// live engine, and hold every acknowledged version.
Status CheckRecovery(std::unique_ptr<Setup>* setup) {
  Instance* inst = (*setup)->inst.get();
  inst->StopServer();
  const std::string dir = inst->dir();
  const std::string live = orpheus::storage::SnapshotCodec::Encode(*inst->engine(), 0);
  std::map<std::string, VersionId> acked;
  if ((*setup)->sci) acked["sci"] = (*setup)->sci->latest();
  if ((*setup)->cur) acked["cur"] = (*setup)->cur->latest();
  if ((*setup)->cur_base) acked["cur_base"] = (*setup)->cur_base->latest();
  (*setup)->inst.reset();
  core::EngineApi recovered;
  ORPHEUS_RETURN_NOT_OK(recovered.orpheus()->Open(dir));
  for (const auto& [name, latest] : acked) {
    ORPHEUS_ASSIGN_OR_RETURN(core::Cvd * cvd, recovered.orpheus()->GetCvd(name));
    if (cvd->latest_version() != latest) {
      return Status::Internal("recovered " + name + " ends at v" +
                              std::to_string(cvd->latest_version()) + ", acknowledged v" +
                              std::to_string(latest));
    }
  }
  if (orpheus::storage::SnapshotCodec::Encode(*recovered.orpheus(), 0) != live) {
    return Status::Internal("recovered engine state differs from the live engine");
  }
  return Status::OK();
}

// --- Main ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string spans;
  bool selftest = false;
  bool calibrate = false;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") o->workload = next();
    else if (a == "--seed") o->seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") o->seconds = std::atoi(next().c_str());
    else if (a == "--trace") o->trace = next() == "1";
    else if (a == "--workdir") o->workdir = next();
    else if (a == "--spans") o->spans = next();
    else if (a == "--selftest") o->selftest = true;
    else if (a == "--calibrate") o->calibrate = true;
    else return false;
  }
  return o->selftest || o->calibrate || (!o->workload.empty() && o->seconds > 0 && !o->workdir.empty());
}

constexpr int kSetups = 3;  // setups per untraced run; setup_s is their median

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return 1;
}

// Every failure after the inputs are picked still prints a result line,
// with "correct": false, so the caller sees what was attempted.
int Run(const Options& o) {
  const Workload w = FindWorkload(o.workload);
  if (w.name.empty()) return Fail("unknown workload " + o.workload);
  const CpuSample cpu0 = SampleCpu();
  const double ref_before = ReferenceLoopSeconds();
  Checks checks;
  std::string error;

  std::vector<std::string> report;
  Inputs inputs;
  for (auto [use, shape, spec] : {std::make_tuple(w.sci, &kSci, &inputs.sci),
                                  std::make_tuple(w.cur, &kCur, &inputs.cur)}) {
    if (!use) continue;
    const double t0 = Now();
    auto picked = PickSpec(*shape, o.seed);
    if (!picked.ok()) return Fail(picked.status().ToString());
    *spec = picked.value();
    report.push_back(spec->Name() + " generator seed " + std::to_string(spec->seed) +
                     " picked in " + JsonNumber(Now() - t0) + " s");
  }
  auto setup_in = [&](int i, bool traced) {
    const std::string dir = o.workdir + "/setup" + std::to_string(i);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return RunSetup(w, inputs, dir, traced);
  };

  Metrics metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Span> spans;
  std::unique_ptr<Setup> setup;
  Pass pass;
  if (!o.trace) {
    std::vector<double> setup_s;
    Fingerprint first;
    for (int i = 0; i < kSetups && error.empty(); ++i) {
      setup.reset();
      auto s = setup_in(i, false);
      if (!s.ok()) {
        error = "setup: " + s.status().ToString();
        break;
      }
      setup = std::move(s).value();
      setup_s.push_back(setup->seconds);
      report.push_back("setup " + std::to_string(i) + ": " +
                       JsonNumber(setup->seconds) + " s, " + setup->fp.ToString());
      if (i == 0) first = setup->fp;
      if (!(setup->fp == first)) error = "setup counts drifted between setups of one seed";
    }
    if (error.empty()) {
      Status st = RunPass(w, o.seed, o.seconds, setup.get(), false, &checks, &pass);
      if (!st.ok()) error = "pass: " + st.ToString();
    }
    if (error.empty()) {
      for (const wl::Dataset* d : {setup->sci_data.get(), setup->cur_data.get()}) {
        if (d == nullptr) continue;
        report.push_back(d->spec().Name() + ": " + std::to_string(d->versions().size()) +
                         " versions, " + std::to_string(d->num_records()) + " records, " +
                         std::to_string(d->num_edges()) + " version-record pairs");
      }
      report.push_back("engine bytes after the run: " +
                       std::to_string(setup->inst->engine()->db()->TotalByteSize()));
      metrics = EndToEnd(pass, *setup, Median(setup_s));
      report.push_back("counts: " + PassCounts(pass, *setup));
    }
  } else {
    // Untraced pass for the overhead ratio and the determinism guard,
    // then a traced pass on a fresh setup of the same seed. Each pass
    // issues half the ops of an untraced run: tracing and probes can
    // double an op's time, and the run must end within its time limit.
    const int pass_seconds = std::max(1, o.seconds / 2);
    double untraced_rate = 0;
    std::string untraced_counts;
    {
      auto s = setup_in(0, false);
      if (!s.ok()) {
        error = "setup: " + s.status().ToString();
      } else {
        Pass a;
        Status st = RunPass(w, o.seed, pass_seconds, s.value().get(), false, &checks, &a);
        if (!st.ok()) error = "untraced pass: " + st.ToString();
        untraced_rate = OpsPerSecond(a);
        untraced_counts = PassCounts(a, *s.value());
        for (const auto& session : a.sessions) {
          attempted += session->attempted;
          failed += session->failed;
        }
      }
    }
    if (error.empty()) {
      auto s = setup_in(1, true);
      if (!s.ok()) {
        error = "setup: " + s.status().ToString();
      } else {
        setup = std::move(s).value();
        Status st = RunPass(w, o.seed, pass_seconds, setup.get(), true, &checks, &pass);
        if (!st.ok()) error = "traced pass: " + st.ToString();
      }
    }
    LayerSums sums;
    if (error.empty()) {
      Status st = Attribute(pass, &sums, &spans);
      if (!st.ok()) error = "attribution: " + st.ToString();
    }
    if (error.empty()) {
      const std::string counts = PassCounts(pass, *setup);
      report.push_back("counts untraced: " + untraced_counts);
      report.push_back("counts traced:   " + counts);
      if (Clients(w) == 1 && counts != untraced_counts) {
        error = "counts drifted between two passes of one seed";
      }
      const double traced_rate = OpsPerSecond(pass);
      metrics = PerLayer(pass, *setup, sums,
                         traced_rate > 0 ? untraced_rate / traced_rate : 0.0);
    }
  }

  if (error.empty()) {
    for (const auto& s : pass.sessions) {
      attempted += s->attempted;
      failed += s->failed;
    }
    // The engine must hold exactly the records the model predicts.
    for (const CvdModel* m : {setup->sci.get(), setup->cur.get(), setup->cur_base.get()}) {
      if (m != nullptr && EngineRecords(setup->inst.get(), m->name()) != m->distinct_records()) {
        error = "engine record count of " + m->name() + " differs from the model";
      }
    }
  }
  if (error.empty() && w.durable) {
    Status st = CheckRecovery(&setup);
    if (!st.ok()) error = "recovery: " + st.ToString();
  }
  setup.reset();

  const double ref_after = ReferenceLoopSeconds();
  const CpuSample cpu1 = SampleCpu();
  for (const std::string& line : report) std::printf("# %s\n", line.c_str());
  for (int k = 0; k < kOpKinds; ++k) {
    const std::vector<double> v = Values(Samples(pass, k));
    size_t fewest = v.size();
    for (const std::vector<double>& b : Blocks(pass, Samples(pass, k))) {
      fewest = std::min(fewest, SamplesBeyond(b, 90));
    }
    std::printf("# %s: %zu samples, %zu beyond p90 (fewest in a %d-slice block: %zu); "
                "whole-run p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
                kOpNames[k], v.size(), SamplesBeyond(v, 90), kBlocks, fewest,
                Percentile(v, 50), Percentile(v, 90), Percentile(v, 99));
  }
  std::printf("# timed phase %.3f s; fail_frac %.6f; analyst lateness mean %.3f ms max %.3f ms\n",
              pass.t1 - pass.t0, attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              pass.lateness_mean_ms, pass.lateness_max_ms);
  std::printf("# host: steal %.4f, cpu/wall %.3f, reference loop %.4f s before, %.4f s after\n",
              StealShare(cpu0, cpu1), CpuPerWall(cpu0, cpu1), ref_before, ref_after);
  if (checks.count > 0) {
    std::printf("# %lld failed checks, first: %s\n", static_cast<long long>(checks.count),
                checks.first.c_str());
  }
  if (!error.empty()) std::printf("# error: %s\n", error.c_str());
  WriteSpans(o.spans, spans);
  const bool correct = error.empty() && checks.count == 0 && failed == 0 && attempted > 0;
  PrintResult(correct, std::max<int64_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir> [--spans <file>] | --selftest\n");
    return 2;
  }
  if (o.calibrate) {
    perfbench::Calibrate();
    return 0;
  }
  if (o.selftest) {
    std::string why;
    if (!perfbench::SelfTest(&why)) return perfbench::Fail("self-test failed: " + why);
    std::printf("self-test passed\n");
    return 0;
  }
  return perfbench::Run(o);
}
