#include "core/engine_api.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "common/csv.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/data_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/lyresplit.h"
#include "storage/storage_manager.h"

namespace orpheus::core {

namespace {

// Largest `optimize -gamma` storage factor (times the CVD's records).
constexpr double kMaxGammaFactor = 1e6;

Status UsageError(const char* usage) {
  return Status::InvalidArgument(std::string("usage: ") + usage);
}

// Extracts "-flag value" from an argument vector; empty if absent.
std::string FlagValue(const std::vector<std::string>& args,
                      const std::string& flag) {
  for (size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return "";
}

Result<VersionId> ParseVid(std::string_view text, const char* usage) {
  std::optional<int64_t> vid =
      ParseNumber<int64_t>(text, 1, std::numeric_limits<int64_t>::max());
  if (!vid) return UsageError(usage);
  return *vid;
}

// Refuses a token the usage line does not name. Each "-flag" the usage
// names takes the next token as its value (a bracketed "[-flag]"
// takes none); every other token fills the usage's next positional
// slot ("<cvd>", optional "[<n>]", "[recent|slow]"), and the slots not
// in brackets must be filled. Flags a usage requires are left to the
// verb, which knows their alternatives.
Status CheckArgs(const std::vector<std::string>& args, const char* usage) {
  std::vector<std::string> words = SplitWhitespace(usage);
  std::vector<std::pair<std::string, bool>> flags;  // flag, takes a value
  size_t required = 0;
  size_t slots = 0;
  for (size_t w = 1; w < words.size(); ++w) {
    const std::string& word = words[w];
    const size_t start = word.find_first_not_of("[(");
    if (word[start] == '-') {
      const bool valued = word.back() != ']';
      flags.emplace_back(word.substr(start, word.find(']') - start), valued);
      if (valued) ++w;  // the flag's value
    } else if (word != "|") {
      ++slots;
      if (word[0] != '[') ++required;
    }
  }
  size_t filled = 0;
  for (size_t i = 1; i < args.size(); ++i) {
    auto flag = std::find_if(flags.begin(), flags.end(),
                             [&](const auto& f) { return f.first == args[i]; });
    if (flag == flags.end()) {
      ++filled;
    } else if (flag->second && ++i == args.size()) {
      return UsageError(usage);
    }
  }
  if (filled < required || filled > slots) return UsageError(usage);
  return Status::OK();
}

// A statement may run under the shared lock iff it can only read:
// SELECT without INTO (INTO materializes a new catalog table). Every
// other form — DML, DDL, or anything unparsed — is treated as a write.
bool IsReadOnlySql(const std::string& sql) {
  std::vector<std::string> tokens = SplitWhitespace(sql);
  return !tokens.empty() && EqualsIgnoreCase(tokens[0], "SELECT") &&
         std::none_of(tokens.begin(), tokens.end(), [](const std::string& t) {
           return EqualsIgnoreCase(t, "INTO");
         });
}

// The SQL operand of a by-SQL verb: the statement text after the verb
// and the keywords its usage puts before "<sql>" ("explain analyze
// <sql>"; a bracketed "[-json]" is optional).
Result<std::string> SqlOperand(const std::string& line,
                               const std::vector<std::string>& args,
                               const char* usage) {
  std::vector<std::string> words = SplitWhitespace(usage);
  size_t pos = args[0].size();
  size_t next = 1;  // next statement token to match
  for (size_t w = 1; words[w] != "<sql>"; ++w) {
    const bool optional = words[w][0] == '[';
    std::string word =
        optional ? words[w].substr(1, words[w].size() - 2) : words[w];
    if (next < args.size() && EqualsIgnoreCase(args[next], word)) {
      pos = line.find(args[next], pos) + args[next].size();
      ++next;
    } else if (!optional) {
      return UsageError(usage);
    }
  }
  std::string sql(Trim(std::string_view(line).substr(pos)));
  if (sql.empty()) return UsageError(usage);
  return sql;
}

obs::Histogram* LockWaitHist(bool exclusive) {
  static obs::Histogram* sh = obs::GlobalMetrics().GetHistogram(
      "orpheus_lock_wait_seconds",
      "Time spent waiting for the engine-wide lock, by mode.",
      obs::LatencyBuckets(), {{"mode", "shared"}});
  static obs::Histogram* ex = obs::GlobalMetrics().GetHistogram(
      "orpheus_lock_wait_seconds",
      "Time spent waiting for the engine-wide lock, by mode.",
      obs::LatencyBuckets(), {{"mode", "exclusive"}});
  return exclusive ? ex : sh;
}

}  // namespace

// --- The verb table ---------------------------------------------------------

struct EngineApi::Verb {
  LockMode lock;
  // Synopsis for `help` and usage errors; its first word is the verb.
  const char* usage;
  const char* what;  // one-line description for `help`
  Result<std::string> (*run)(const Call& c);
};

const EngineApi::Verb EngineApi::kVerbs[] = {
    // --- Versioning ---------------------------------------------------------
    {LockMode::kExclusive,
     "init <cvd> -f <file.csv> [-pk a,b] [-model rlist|vlist|combined|delta|tpv]",
     "create a CVD from a CSV file",
     [](const Call& c) { return c.api->Init(c); }},
    {LockMode::kExclusive,
     "checkout <cvd> -v <vid>[,<vid>...] (-t <table> | -f <file.csv>)",
     "stage versions as a table or CSV file",
     [](const Call& c) { return c.api->Checkout(c); }},
    {LockMode::kExclusive, "commit (-t <table> | -f <file.csv>) -m <message>",
     "commit a staged table or file as a new version",
     [](const Call& c) { return c.api->Commit(c); }},
    {LockMode::kExclusive, "discard -t <table>",
     "drop a staged table without committing",
     [](const Call& c) -> Result<std::string> {
       std::string table = FlagValue(c.args, "-t");
       if (table.empty()) return UsageError(c.usage);
       ORPHEUS_ASSIGN_OR_RETURN(std::string cvd,
                                c.api->ResolveStagedCvd(c.session->id(), table));
       ORPHEUS_RETURN_NOT_OK(c.api->orpheus_.DiscardStaged(cvd, table));
       return "discarded staged table " + table;
     }},
    {LockMode::kShared, "diff <cvd> <v1> <v2>",
     "records only in one of two versions",
     [](const Call& c) -> Result<std::string> {
       ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, c.api->orpheus_.GetCvd(c.args[1]));
       ORPHEUS_ASSIGN_OR_RETURN(VersionId v1, ParseVid(c.args[2], c.usage));
       ORPHEUS_ASSIGN_OR_RETURN(VersionId v2, ParseVid(c.args[3], c.usage));
       ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk fwd, cvd->Diff(v1, v2));
       ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk bwd, cvd->Diff(v2, v1));
       return "records only in v" + std::to_string(v1) + " (" +
              std::to_string(fwd.num_rows()) + "):\n" + fwd.ToString(20) +
              "records only in v" + std::to_string(v2) + " (" +
              std::to_string(bwd.num_rows()) + "):\n" + bwd.ToString(20);
     }},
    {LockMode::kShared, "ls", "list CVDs",
     [](const Call& c) -> Result<std::string> {
       std::vector<std::string> names = c.api->orpheus_.ListCvds();
       return names.empty() ? "(no CVDs)" : Join(names, "\n");
     }},
    {LockMode::kShared, "graph <cvd>", "version graph as Graphviz dot",
     [](const Call& c) -> Result<std::string> {
       ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, c.api->orpheus_.GetCvd(c.args[1]));
       return cvd->graph().ToDot();
     }},
    {LockMode::kExclusive, "drop <cvd>", "delete a CVD (refused while pinned)",
     [](const Call& c) -> Result<std::string> {
       const std::string& name = c.args[1];
       int others = c.api->registry_.PinsByOthers(name, c.session->id());
       if (others > 0) {
         return Status::FailedPrecondition(
             "cannot drop " + name + ": pinned by " + std::to_string(others) +
             " other session(s)");
       }
       ORPHEUS_RETURN_NOT_OK(c.api->orpheus_.DropCvd(name));
       c.api->registry_.ForgetCvd(name);
       return "dropped " + name;
     }},
    {LockMode::kExclusive, "optimize <cvd> [-gamma <factor>]",
     "partition with LYRESPLIT",
     [](const Call& c) { return c.api->Optimize(c); }},
    // --- SQL: shared for a SELECT without INTO, else exclusive ---------------
    {LockMode::kBySql, "run <sql>", "versioned SQL (VERSION n OF CVD c)",
     [](const Call& c) -> Result<std::string> {
       ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk out, c.api->orpheus_.Run(c.sql));
       return out.ToString(50);
     }},
    {LockMode::kBySql, "sql <sql>", "raw SQL against the backing database",
     [](const Call& c) -> Result<std::string> {
       ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk out,
                                c.api->orpheus_.db()->Execute(c.sql));
       return out.ToString(50);
     }},
    {LockMode::kBySql, "explain analyze <sql>",
     "run the SQL, return its operator profile",
     [](const Call& c) { return c.api->ProfileSql(c.sql, /*json=*/false); }},
    {LockMode::kBySql, "profile [-json] <sql>",
     "same as explain analyze (JSON with -json)",
     [](const Call& c) {
       return c.api->ProfileSql(c.sql, EqualsIgnoreCase(c.args[1], "-json"));
     }},
    // --- Session snapshots ---------------------------------------------------
    {LockMode::kShared, "pin <cvd> [-v <vid>]",
     "pin a version snapshot for this session",
     [](const Call& c) -> Result<std::string> {
       const std::string& name = c.args[1];
       ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, c.api->orpheus_.GetCvd(name));
       VersionId vid = cvd->latest_version();
       std::string vid_text = FlagValue(c.args, "-v");
       if (!vid_text.empty()) {
         ORPHEUS_ASSIGN_OR_RETURN(vid, ParseVid(vid_text, c.usage));
       }
       if (!cvd->graph().GetNode(vid).ok()) {
         return Status::NotFound("no version " + std::to_string(vid) +
                                 " in CVD " + name);
       }
       SessionPin pin{vid, c.api->lock_.epoch()};
       c.api->registry_.Pin(c.session->id(), name, pin);
       return "pinned " + name + " at version " + std::to_string(vid) +
              " (epoch " + std::to_string(pin.epoch) + ")";
     }},
    {LockMode::kNone, "unpin <cvd>", "release this session's pin",
     [](const Call& c) -> Result<std::string> {
       if (!c.api->registry_.Unpin(c.session->id(), c.args[1])) {
         return Status::NotFound("no pin on CVD " + c.args[1] +
                                 " held by this session");
       }
       return "unpinned " + c.args[1];
     }},
    {LockMode::kNone, "pins", "list this session's pins",
     [](const Call& c) -> Result<std::string> {
       std::vector<std::string> lines;
       for (const auto& [cvd, pin] : c.api->registry_.PinsOf(c.session->id())) {
         lines.push_back(cvd + " v" + std::to_string(pin.vid) + " (epoch " +
                         std::to_string(pin.epoch) + ")");
       }
       return lines.empty() ? "(no pins)" : Join(lines, "\n");
     }},
    // --- Storage -------------------------------------------------------------
    {LockMode::kExclusive, "open <dir>",
     "open/create a durable database directory",
     [](const Call& c) -> Result<std::string> {
       OrpheusDB& db = c.api->orpheus_;
       ORPHEUS_RETURN_NOT_OK(db.Open(c.args[1]));
       // Recovery may have replayed a login; mirror it into the session
       // so whoami matches the restored engine state.
       c.session->set_user(db.WhoAmI());
       return "opened durable database at " + c.args[1] + " (" +
              std::to_string(db.ListCvds().size()) + " CVDs)";
     }},
    {LockMode::kExclusive, "checkpoint",
     "fold the WAL into segment files (incremental)",
     [](const Call& c) -> Result<std::string> {
       OrpheusDB& db = c.api->orpheus_;
       ORPHEUS_RETURN_NOT_OK(db.Checkpoint());
       const storage::StorageManager::CheckpointStats& stats =
           db.storage()->last_checkpoint_stats();
       return "checkpointed " + db.storage_dir() + " (" +
              std::to_string(stats.segments_written) + " segments written, " +
              std::to_string(stats.segments_reused) + " reused)";
     }},
    {LockMode::kExclusive, "save <dir>",
     "export: checkpoint into a fresh database directory",
     [](const Call& c) -> Result<std::string> {
       ORPHEUS_RETURN_NOT_OK(c.api->orpheus_.SaveSnapshot(c.args[1]));
       return "saved database to " + c.args[1];
     }},
    // Exclusive so that no query is running while the pool is resized.
    {LockMode::kExclusive, "threads [<n>]",
     "show or set scan parallelism (0 = hardware)",
     [](const Call& c) -> Result<std::string> {
       if (c.args.size() >= 2) {
         std::optional<int64_t> n =
             ParseNumber<int64_t>(c.args[1], 0, kMaxExecThreads);
         if (!n) return UsageError(c.usage);
         SetExecThreads(static_cast<int>(*n));
       }
       return "exec threads: " + std::to_string(ExecThreads());
     }},
    // --- Observability (the registry and trace log synchronize) ------------
    {LockMode::kNone, "metrics", "Prometheus text exposition of all metrics",
     [](const Call& c) -> Result<std::string> {
       // Sampled at scrape time; also registers the family so the very
       // first scrape of a quiet engine is never empty.
       obs::GlobalMetrics()
           .GetGauge("orpheus_commit_epoch",
                     "Engine commit epoch (bumped per successful mutation).")
           ->Set(static_cast<int64_t>(c.api->lock_.epoch()));
       return obs::GlobalMetrics().RenderPrometheus();
     }},
    {LockMode::kNone, "stats", "human-readable metrics + recent/slow ops",
     [](const Call& c) { return c.api->Stats(c); }},
    {LockMode::kNone, "traces [recent|slow] [<n>]",
     "recent-op ring / slow-op log as JSON lines",
     [](const Call& c) { return c.api->Traces(c); }},
    {LockMode::kNone, "slowlog [<ms>]", "show or set the slow-op threshold",
     [](const Call& c) -> Result<std::string> {
       obs::TraceLog& log = obs::GlobalTraceLog();
       if (c.args.size() >= 2) {
         std::optional<double> ms =
             ParseNumber<double>(c.args[1], 0, obs::kMaxSlowOpThresholdMs);
         if (!ms) return UsageError(c.usage);
         log.SetSlowOpThresholdMs(*ms);
         return StrFormat("slow-op threshold set to %g ms", *ms);
       }
       return StrFormat("slow-op threshold: %g ms (%llu slow ops kept)",
                        log.SlowOpThresholdMs(),
                        static_cast<unsigned long long>(log.SlowOps().size()));
     }},
    // --- Users and the session -----------------------------------------------
    {LockMode::kExclusive, "create_user <name>", "register a user",
     [](const Call& c) -> Result<std::string> {
       ORPHEUS_RETURN_NOT_OK(c.api->orpheus_.CreateUser(c.args[1]));
       return "created user " + c.args[1];
     }},
    {LockMode::kExclusive, "config <name>", "log in as a user",
     [](const Call& c) -> Result<std::string> {
       ORPHEUS_RETURN_NOT_OK(c.api->orpheus_.Login(c.args[1]));
       c.session->set_user(c.args[1]);
       return "logged in as " + c.args[1];
     }},
    {LockMode::kNone, "whoami", "this session's user",
     [](const Call& c) -> Result<std::string> { return c.session->user(); }},
    {LockMode::kNone, "help", "this list",
     [](const Call&) -> Result<std::string> { return Help(); }},
    {LockMode::kNone, "exit", "end the session", &EngineApi::Exit},
    {LockMode::kNone, "quit", "same as exit", &EngineApi::Exit},
};

Result<std::string> EngineApi::Exit(const Call& c) {
  c.session->set_exited();
  return std::string("bye");
}

const EngineApi::Verb* EngineApi::FindVerb(std::string_view name) {
  for (const Verb& verb : kVerbs) {
    std::string_view usage = verb.usage;
    if (usage.substr(0, usage.find(' ')) == name) return &verb;
  }
  return nullptr;
}

std::string EngineApi::Help() {
  std::string out = "OrpheusDB commands:\n";
  for (const Verb& verb : kVerbs) {
    // A synopsis too long for the column gets its description below.
    const bool wrap = std::string_view(verb.usage).size() > 34;
    out += StrFormat("  %-34s%s %s\n", verb.usage,
                     wrap ? "\n                                    " : "",
                     verb.what);
  }
  return out;
}

// --- Dispatch ---------------------------------------------------------------

std::shared_ptr<SessionContext> EngineApi::NewSession() {
  return std::make_shared<SessionContext>(next_session_id_.fetch_add(1));
}

template <typename Body>
Result<std::string> EngineApi::RunLocked(LockMode mode, SessionContext* session,
                                         Body&& body) {
  if (mode == LockMode::kNone) return body();
  const bool exclusive = mode == LockMode::kExclusive;
  auto wait_for = [&](auto& lock) {
    obs::TraceSpan wait_span(obs::TraceStage::kLockWait);
    WallTimer wait;
    lock.lock();
    LockWaitHist(exclusive)->Observe(wait.ElapsedSeconds());
  };
  if (!exclusive) {
    std::shared_lock<std::shared_mutex> lock(lock_.mu(), std::defer_lock);
    wait_for(lock);
    obs::TraceSpan exec_span(obs::TraceStage::kExecute);
    return body();
  }
  // The exclusive hold covers the in-memory apply plus the WAL enqueue
  // only. A durability scope collects the tickets of the records this
  // statement enqueued and hands them over before the lock drops; the
  // durable wait happens after, so other sessions' statements can join
  // the commit group while this one blocks on the leader's single
  // fdatasync.
  std::vector<storage::AppendTicket> tickets;
  Result<std::string> result = std::string();
  {
    std::unique_lock<std::shared_mutex> lock(lock_.mu(), std::defer_lock);
    wait_for(lock);
    obs::TraceSpan exec_span(obs::TraceStage::kExecute);
    storage::DurabilityScope scope(orpheus_.storage());
    result = body();
    tickets = scope.Close();
    if (result.ok()) lock_.BumpEpoch();
  }
  if (tickets.empty()) return result;
  obs::TraceSpan sync_span(obs::TraceStage::kGroupCommitSync);
  Status durable = orpheus_.storage()->WaitDurable(tickets);
  if (!durable.ok()) {
    // The in-memory apply succeeded but the record never reached disk;
    // surface the I/O error (the handler's message would claim
    // durability the WAL can't back).
    return result.ok() ? Result<std::string>(durable) : result;
  }
  session->NoteDurableLsn(tickets.back()->lsn);
  return result;
}

Result<std::string> EngineApi::Execute(SessionContext* session,
                                       const std::string& line) {
  session->Touch();
  std::string trimmed(Trim(line));
  if (trimmed.empty() || trimmed[0] == '#') return std::string();
  std::string_view name = std::string_view(trimmed).substr(
      0, trimmed.find_first_of(" \t\n\v\f\r"));
  const Verb* verb = FindVerb(name);
  // One trace scope per statement: every TraceSpan below (and inside
  // storage, which runs on this thread) charges its stage to this op.
  // Only table verbs get their own label, so a typo-spamming client
  // can't blow up the label cardinality (or inject quotes into the
  // exposition).
  obs::ActiveOpScope op_scope(std::string(verb != nullptr ? name : "unknown"),
                              session->id());
  session->NoteOp();
  Result<std::string> result = [&]() -> Result<std::string> {
    if (verb == nullptr) {
      return Status::InvalidArgument("unknown command: " + std::string(name) +
                                     " (try 'help')");
    }
    Call call{this, session, {}, {}, verb->usage};
    LockMode mode = verb->lock;
    {
      obs::TraceSpan parse_span(obs::TraceStage::kParse);
      call.args = SplitWhitespace(trimmed);
      if (mode == LockMode::kBySql) {
        ORPHEUS_ASSIGN_OR_RETURN(call.sql,
                                 SqlOperand(trimmed, call.args, verb->usage));
        mode = IsReadOnlySql(call.sql) ? LockMode::kShared
                                       : LockMode::kExclusive;
      } else {
        ORPHEUS_RETURN_NOT_OK(CheckArgs(call.args, verb->usage));
      }
    }
    return RunLocked(mode, session, [&] { return verb->run(call); });
  }();
  op_scope.set_ok(result.ok());
  return result;
}

void EngineApi::CloseSession(SessionContext* session, bool discard_staged) {
  if (discard_staged) {
    // Best-effort: disconnect cleanup has no caller to report an
    // error to. Only the staging entries recorded under this session
    // are discarded; a table it checked out that another session has
    // committed (and perhaps checked out again) is no longer its own.
    (void)RunLocked(LockMode::kExclusive, session, [&] {
      for (const std::string& name : orpheus_.ListCvds()) {
        Cvd* cvd = orpheus_.GetCvd(name).value();
        std::vector<std::string> own;
        for (const auto& [table, info] : cvd->staged_tables()) {
          if (info.session == session->id()) own.push_back(table);
        }
        for (const std::string& table : own) (void)cvd->DiscardStaged(table);
      }
      return Result<std::string>(std::string());
    });
  }
  registry_.UnpinAll(session->id());
  session->set_exited();
}

// --- Handlers too long for the table -----------------------------------------

Result<std::string> EngineApi::Init(const Call& c) {
  std::string file = FlagValue(c.args, "-f");
  if (file.empty()) return UsageError(c.usage);
  const std::string& name = c.args[1];
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows, ReadCsvFile(file));

  CvdOptions options;
  std::string pk = FlagValue(c.args, "-pk");
  if (!pk.empty()) {
    for (const std::string& col : Split(pk, ',')) {
      options.primary_key.emplace_back(Trim(col));
    }
  }
  std::string model = FlagValue(c.args, "-model");
  if (!model.empty()) {
    ORPHEUS_ASSIGN_OR_RETURN(options.model, DataModelKindFromName(model));
  }
  ORPHEUS_ASSIGN_OR_RETURN(
      Cvd * cvd, orpheus_.InitCvd(name, rows, options, "init from " + file));
  return "initialized CVD " + name + " with version 1 (" +
         std::to_string(cvd->graph().GetNode(1).value()->num_records) +
         " records)";
}

Result<std::string> EngineApi::Checkout(const Call& c) {
  std::string vid_text = FlagValue(c.args, "-v");
  std::string table = FlagValue(c.args, "-t");
  std::string file = FlagValue(c.args, "-f");
  if (vid_text.empty() || (table.empty() && file.empty())) {
    return UsageError(c.usage);
  }
  const std::string& name = c.args[1];
  std::vector<VersionId> vids;
  for (const std::string& piece : Split(vid_text, ',')) {
    if (Trim(piece).empty()) continue;
    ORPHEUS_ASSIGN_OR_RETURN(VersionId vid, ParseVid(Trim(piece), c.usage));
    vids.push_back(vid);
  }
  if (vids.empty()) return UsageError(c.usage);

  if (table.empty()) {
    // The counter restarts with each session, and a reopened durable
    // engine may have replayed csvstage checkouts from an earlier
    // process — skip names that are already taken.
    do {
      table = name + "_csvstage_" + std::to_string(c.session->NextStagingId());
    } while (orpheus_.db()->HasTable(table));
  }
  ORPHEUS_RETURN_NOT_OK(orpheus_.Checkout(name, vids, table, c.session->id()));
  if (!file.empty()) {
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * staged, orpheus_.db()->GetTable(table));
    ORPHEUS_RETURN_NOT_OK(WriteCsvFile(file, staged->data()));
    c.session->AddCsvStaging(file, table);
    return "checked out version(s) " + vid_text + " of " + name + " into " +
           file;
  }
  return "checked out version(s) " + vid_text + " of " + name +
         " into table " + table;
}

Result<std::string> EngineApi::ResolveStagedCvd(uint64_t session,
                                                const std::string& table) {
  std::string any;
  for (const std::string& name : orpheus_.ListCvds()) {
    ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, orpheus_.GetCvd(name));
    auto it = cvd->staged_tables().find(table);
    if (it == cvd->staged_tables().end()) continue;
    if (it->second.session == session) return name;
    if (any.empty()) any = name;
  }
  if (!any.empty()) return any;
  return Status::NotFound("table was not checked out from any CVD: " + table);
}

Result<std::string> EngineApi::Commit(const Call& c) {
  std::string table = FlagValue(c.args, "-t");
  std::string file = FlagValue(c.args, "-f");
  std::string message = FlagValue(c.args, "-m");
  if (message.empty()) message = "(no message)";

  if (!file.empty()) {
    table = c.session->GetCsvStaging(file);
    if (table.empty()) {
      return Status::NotFound("file was not checked out from a CVD: " + file);
    }
  } else if (table.empty()) {
    return UsageError(c.usage);
  }
  ORPHEUS_ASSIGN_OR_RETURN(std::string cvd_name,
                           ResolveStagedCvd(c.session->id(), table));
  if (!file.empty()) {
    // Reload the (possibly externally edited) csv into the staged
    // table, keeping the rid column where rows still carry one.
    ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows, ReadCsvFile(file));
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * staged, orpheus_.db()->GetTable(table));
    if (!rows.schema().Equals(staged->schema())) {
      return Status::InvalidArgument(
          "csv schema does not match the checked-out schema (did the header "
          "change?)");
    }
    staged->mutable_chunk() = std::move(rows);
    c.session->RemoveCsvStaging(file);
  }
  ORPHEUS_ASSIGN_OR_RETURN(VersionId vid,
                           orpheus_.Commit(cvd_name, table, message));
  return "committed version " + std::to_string(vid) + " to " + cvd_name;
}

Result<std::string> EngineApi::Optimize(const Call& c) {
  const std::string& name = c.args[1];
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, orpheus_.GetCvd(name));
  double factor = 2.0;
  std::string gamma_text = FlagValue(c.args, "-gamma");
  if (!gamma_text.empty()) {
    std::optional<double> parsed =
        ParseNumber<double>(gamma_text, 0, kMaxGammaFactor);
    if (!parsed) return UsageError(c.usage);
    factor = *parsed;
  }

  int64_t gamma =
      static_cast<int64_t>(factor * static_cast<double>(cvd->total_records()));
  ORPHEUS_ASSIGN_OR_RETURN(part::LyreSplitResult split,
                           part::LyreSplit::RunForBudget(cvd->graph(), gamma));

  ORPHEUS_RETURN_NOT_OK(orpheus_.Repartition(name, split.partitioning));
  return "partitioned " + name + " into " +
         std::to_string(split.partitioning.num_partitions()) +
         " partitions (delta=" + StrFormat("%.4f", split.delta) +
         ", est. storage=" + std::to_string(split.estimated_storage) +
         " records, est. checkout=" +
         StrFormat("%.1f", split.estimated_checkout) + " records)";
}

Result<std::string> EngineApi::ProfileSql(const std::string& sql, bool json) {
  WallTimer timer;
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk out, orpheus_.Run(sql));
  const double total_s = timer.ElapsedSeconds();
  // The statement's ActiveOpScope installed a collector on this
  // thread; every operator the SQL ran has closed its scope by now, so
  // the snapshot shares those finished subtrees.
  std::shared_ptr<const obs::ProfileNode> plan = obs::SnapshotActiveProfile();
  if (json) {
    std::string s = "{\"sql\":\"" + obs::JsonEscape(sql) + "\"";
    s += ",\"rows\":" + std::to_string(out.num_rows());
    s += StrFormat(",\"total_s\":%.9f", total_s);
    if (plan != nullptr) s += ",\"plan\":" + obs::ProfileJson(*plan);
    s += "}";
    return s;
  }
  if (plan == nullptr) {
    return std::string(
        "(no operator profile: metrics disabled or no operators ran)");
  }
  std::string s = obs::ProfileText(*plan);
  s += StrFormat("%llu row(s) in %.3f ms\n",
                 static_cast<unsigned long long>(out.num_rows()),
                 total_s * 1e3);
  return s;
}

Result<std::string> EngineApi::Traces(const Call& c) {
  obs::TraceLog& log = obs::GlobalTraceLog();
  bool want_recent = true;
  bool want_slow = true;
  size_t limit = 50;
  for (size_t i = 1; i < c.args.size(); ++i) {
    if (c.args[i] == "recent") {
      want_slow = false;
    } else if (c.args[i] == "slow") {
      want_recent = false;
    } else {
      std::optional<int64_t> n =
          ParseNumber<int64_t>(c.args[i], 0, 1 << 30);
      if (!n) return UsageError(c.usage);
      limit = static_cast<size_t>(*n);
    }
  }
  std::vector<obs::OpTrace> recent = log.Recent();
  std::vector<obs::OpTrace> slow = log.SlowOps();
  // One JSON object per line: a meta header, then the requested
  // entries (oldest first, capped at `limit` newest per kind). Slow
  // entries carry their operator profile tree; the recent ring stays
  // compact.
  std::string out =
      StrFormat("{\"meta\":true,\"slow_op_threshold_ms\":%g,"
                "\"total_recorded\":%llu,\"recent\":%llu,\"slow\":%llu}\n",
                log.SlowOpThresholdMs(),
                static_cast<unsigned long long>(log.TotalRecorded()),
                static_cast<unsigned long long>(recent.size()),
                static_cast<unsigned long long>(slow.size()));
  auto render = [&](const std::vector<obs::OpTrace>& ops, const char* kind,
                    bool with_profile) {
    size_t start = ops.size() > limit ? ops.size() - limit : 0;
    for (size_t i = start; i < ops.size(); ++i) {
      out += std::string("{\"kind\":\"") + kind + "\"," +
             obs::OpTraceJson(ops[i], with_profile).substr(1) + "\n";
    }
  };
  if (want_recent) render(recent, "recent", /*with_profile=*/false);
  if (want_slow) render(slow, "slow", /*with_profile=*/true);
  return out;
}

Result<std::string> EngineApi::Stats(const Call& c) {
  obs::TraceLog& log = obs::GlobalTraceLog();
  std::string out = "== engine stats (epoch " + std::to_string(lock_.epoch()) +
                    ", slow-op threshold " +
                    StrFormat("%.0f", log.SlowOpThresholdMs()) + " ms) ==\n";
  for (const obs::MetricPoint& p : obs::GlobalMetrics().Snapshot()) {
    if (p.type == obs::MetricType::kHistogram) {
      out += StrFormat("%-55s count=%llu sum=%.6fs\n", p.FlatName().c_str(),
                       static_cast<unsigned long long>(p.count), p.sum);
    } else {
      out += StrFormat("%-55s %.0f\n", p.FlatName().c_str(), p.value);
    }
  }
  out += "\n== this session ==\nid " + std::to_string(c.session->id()) +
         ", user " + c.session->user() + ", ops " +
         std::to_string(c.session->ops_executed()) + "\n";

  auto render_ops = [](const std::vector<obs::OpTrace>& ops, size_t max_rows) {
    std::string s =
        "id       sess verb         total_ms parse    lockwait executed "
        "walenq   gcsync   ckpt     ok\n";
    size_t start = ops.size() > max_rows ? ops.size() - max_rows : 0;
    for (size_t i = start; i < ops.size(); ++i) {
      const obs::OpTrace& op = ops[i];
      s += StrFormat("%-8llu %-4llu %-12s %8.2f",
                     static_cast<unsigned long long>(op.id),
                     static_cast<unsigned long long>(op.session_id),
                     op.verb.c_str(), op.total_s * 1e3);
      for (int stage = 0; stage < obs::kTraceStageCount; ++stage) {
        s += StrFormat(" %8.2f", op.stage_s[stage] * 1e3);
      }
      s += op.ok ? " ok\n" : " ERR\n";
    }
    return s;
  };
  out += "\n== recent ops (stage times in ms; " +
         std::to_string(log.TotalRecorded()) + " recorded) ==\n";
  out += render_ops(log.Recent(), 10);
  std::vector<obs::OpTrace> slow = log.SlowOps();
  out += "\n== slow ops (>= " + StrFormat("%.0f", log.SlowOpThresholdMs()) +
         " ms; " + std::to_string(slow.size()) + " kept) ==\n";
  if (slow.empty()) {
    out += "(none)\n";
  } else {
    out += render_ops(slow, 20);
  }
  return out;
}

}  // namespace orpheus::core
