// EngineApi: the transport-free command surface of OrpheusDB.
//
// This is the layer both front-ends dispatch into — the in-process CLI
// (cli::CommandProcessor wraps one EngineApi + one SessionContext) and
// the socket server (one EngineApi shared by every connection). It
// owns the engine (OrpheusDB), the engine-wide reader/writer lock, and
// the snapshot-pin registry, and it is the ONLY supported way to drive
// the engine from more than one thread.
//
// Concurrency contract (see concurrency.h for the primitives):
//  * Every verb is one entry of the verb table, kVerbs in
//    engine_api.cc: its lock mode, usage line and handler. Dispatch,
//    `help`, usage errors, the check that refuses tokens a usage line
//    does not name, and the per-verb metric labels all derive from it. Lock modes: none (session-local or internally
//    synchronized state), shared (read-only; overlaps other readers),
//    exclusive (mutating; the WAL records a statement enqueues while
//    holding it form a correct total order), and by-SQL (shared iff
//    the SQL is a SELECT without INTO).
//  * Durability is group commit: on a durable engine the exclusive
//    hold covers only the in-memory apply plus the WAL enqueue, with
//    a storage::DurabilityScope collecting the statement's tickets;
//    Execute then releases the lock and blocks in
//    StorageManager::WaitDurable until a group leader has written the
//    record — with the records of every other session that reached
//    the write path meanwhile — in one write + one fdatasync. A lone
//    statement is a group of one. The durability point of a mutating
//    statement is "Execute returned OK".
//  * Committed versions are immutable, so a reader that pinned a
//    version keeps observing exactly that version's records while
//    writers commit — `pin <cvd>` records the (version, epoch) pair
//    and guards the CVD against `drop` by other sessions.
//  * Direct OrpheusDB access via orpheus() bypasses the lock and is
//    only safe while no other session is executing (setup, tests,
//    single-threaded tools).

#ifndef ORPHEUS_CORE_ENGINE_API_H_
#define ORPHEUS_CORE_ENGINE_API_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/concurrency.h"
#include "core/orpheus.h"

namespace orpheus::core {

class EngineApi {
 public:
  EngineApi() = default;
  EngineApi(const EngineApi&) = delete;
  EngineApi& operator=(const EngineApi&) = delete;

  // Creates a session context with a fresh id. Sessions are cheap;
  // the caller owns the lifetime (the server's SessionManager, or the
  // CommandProcessor for the CLI's single implicit session).
  std::shared_ptr<SessionContext> NewSession();

  // Ends a session: releases its pins and (optionally) discards every
  // staged table whose staging entry records this session — the server
  // does this on disconnect so abandoned checkouts don't leak. Like
  // every discard, this is not logged; it is durable at the next
  // checkpoint.
  void CloseSession(SessionContext* session, bool discard_staged);

  // Executes one command line on behalf of `session`; returns the text
  // to display. Safe to call concurrently from many threads, one call
  // per session at a time.
  Result<std::string> Execute(SessionContext* session, const std::string& line);

  // The engine. Lock-free access — see the class comment.
  OrpheusDB* orpheus() { return &orpheus_; }

  EngineLock* lock() { return &lock_; }
  SnapshotRegistry* registry() { return &registry_; }

 private:
  enum class LockMode { kNone, kShared, kExclusive, kBySql };
  // One invocation of a verb: the engine and session it runs against,
  // the statement's whitespace tokens (args[0] is the verb), the SQL
  // operand of a by-SQL verb (spacing kept), and the verb's usage line
  // for error messages.
  struct Call {
    EngineApi* api;
    SessionContext* session;
    std::vector<std::string> args;
    std::string sql;
    const char* usage;
  };
  struct Verb;  // one verb-table entry (engine_api.cc)
  static const Verb kVerbs[];
  static const Verb* FindVerb(std::string_view name);
  static std::string Help();

  // Runs `body` under `mode` (kNone, kShared or kExclusive), charging
  // the wait and the body to their trace stages. An exclusive body's
  // WAL records are waited durable after the lock drops.
  template <typename Body>
  Result<std::string> RunLocked(LockMode mode, SessionContext* session,
                                Body&& body);

  // Handlers kept out of the verb table, being shared (Exit) or long;
  // called with the verb's engine lock held.
  static Result<std::string> Exit(const Call& c);
  Result<std::string> Init(const Call& c);
  Result<std::string> Checkout(const Call& c);
  Result<std::string> Commit(const Call& c);
  Result<std::string> Optimize(const Call& c);
  Result<std::string> Stats(const Call& c);
  Result<std::string> Traces(const Call& c);
  // Runs `sql` and returns its operator profile tree instead of its
  // rows — the `explain analyze` / `profile` verbs.
  Result<std::string> ProfileSql(const std::string& sql, bool json);

  // Resolves which CVD owns a staged table, in one pass over the CVDs'
  // staging areas: the entry `session` checked out first, else any
  // CVD's entry (so a session can commit a table another session
  // staged, or one a checkpoint restored).
  Result<std::string> ResolveStagedCvd(uint64_t session,
                                       const std::string& table);

  OrpheusDB orpheus_;
  EngineLock lock_;
  SnapshotRegistry registry_;
  std::atomic<uint64_t> next_session_id_{1};
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_ENGINE_API_H_
