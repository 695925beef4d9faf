// Job — one admitted unit of work flowing through the async executor's
// queues (exec/executor.h).
//
// A job OWNS everything it needs: inline query tables are copied in at
// submit time, so the caller's Table pointer only has to outlive the
// Submit call itself, not the asynchronous execution. The request
// structs are stored with `table = nullptr`; the dispatcher re-points
// them at the owned copy when it builds a batch (a pointer into the job
// itself would dangle every time the job moves through the queue).
//
// Exactly one promise per job is ever satisfied, matching its kind.
// Admission rejection satisfies it with Status::ResourceExhausted
// before the job ever enters a queue; shutdown drains the queues, so an
// admitted job's promise is never abandoned.
#ifndef TABBIN_EXEC_JOB_H_
#define TABBIN_EXEC_JOB_H_

#include <future>
#include <string>
#include <vector>

#include "service/service_types.h"
#include "table/table.h"
#include "util/status.h"

namespace tabbin {

/// \brief What a job asks of the serving layer. The three Similar*
/// kinds are coalescable: consecutive jobs of the same kind already
/// queued together execute as ONE batched ranking pass. Ask and the
/// write kinds always execute singly.
enum class JobKind {
  kSimilarColumns,
  kSimilarTables,
  kSimilarEntities,
  kAsk,
  kAddTables,
  kRemoveTable,
};

struct Job {
  JobKind kind = JobKind::kSimilarColumns;

  // Read-lane payloads (one active, per kind). The embedded `table`
  // pointers are always null in storage; see file comment.
  ColumnQueryRequest col;
  TableQueryRequest tbl;
  EntityQueryRequest ent;
  AskRequest ask;
  Table query_table;  // owned copy of an inline query table
  bool has_query_table = false;

  // Write-lane payloads.
  std::vector<Table> add_tables;
  std::string remove_id;

  // One per response type; only the one matching `kind` is used.
  std::promise<Result<QueryResponse>> query_promise;
  std::promise<Result<AskResponse>> ask_promise;
  std::promise<Result<AddReport>> add_promise;
  std::promise<Status> remove_promise;
};

}  // namespace tabbin

#endif  // TABBIN_EXEC_JOB_H_
