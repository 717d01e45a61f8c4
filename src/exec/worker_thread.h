// WorkerThread: the one way to start a thread that works for a query. The
// thread takes the spawning thread's query id and memory governor with it,
// so its scoped metric writes, network byte charges and operator memory
// land on the right query, and it acts for one node, so its spans and
// metrics are attributed to that node.

#ifndef HYBRIDJOIN_EXEC_WORKER_THREAD_H_
#define HYBRIDJOIN_EXEC_WORKER_THREAD_H_

#include <functional>
#include <thread>
#include <utility>

#include "common/query_scope.h"
#include "exec/memory_governor.h"
#include "net/network.h"
#include "trace/tracer.h"

namespace hybridjoin {

/// A thread acting for `node` in the spawning thread's query: it installs
/// the spawner's QueryScope and MemoryGovernor::Scope, then a
/// trace::ThreadScope(node, role), around `fn`. `role` must outlive the
/// thread (a literal or trace::InternedRole). Joined by Join() or at
/// destruction.
class WorkerThread {
 public:
  WorkerThread(NodeId node, const char* role, std::function<void()> fn)
      : thread_([node, role, fn = std::move(fn),
                 query_id = QueryScope::Current(),
                 governor = MemoryGovernor::Current()] {
          QueryScope query_scope(query_id);
          MemoryGovernor::Scope governor_scope(governor);
          trace::ThreadScope thread_scope(node, role);
          fn();
        }) {}
  ~WorkerThread() { Join(); }

  WorkerThread(WorkerThread&&) = default;
  WorkerThread& operator=(WorkerThread&&) = delete;

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXEC_WORKER_THREAD_H_
