#ifndef DSKG_SERVER_SERVER_H_
#define DSKG_SERVER_SERVER_H_

/// \file server.h
/// The network serving tier: a TCP front end over the online store.
///
/// Shape (KVell's injector/worker split, applied to the read path):
///
///     clients ──▶ acceptor/IO thread ──▶ bounded request queue ──▶
///                 (poll, frame decode,    (admission control)
///                  cheap rejects)
///                                         worker threads on a
///                                         ThreadPool, popping
///                                         BATCHES of requests
///                                         run through the server's
///                                         one core::Session
///
/// * **One query front end.** Every wire request runs through the
///   server's `core::Session`, the same path an embedded caller takes: a
///   PREPARE is `Session::Prepare` (parse once, cached by text; the plan
///   is built at the first EXECUTE), an EXECUTE copies the statement's
///   `core::PreparedQuery`, binds it and calls `ExecuteAll` or
///   `OpenCursor`, and a server cursor is a `core::Cursor`. Plans are
///   therefore shared by every connection through the Session's cache:
///   N tenants preparing one template parse it once and plan it once per
///   plan epoch, and wire answers equal in-process answers by
///   construction.
/// * **Connection handling is cheap.** A single IO thread accepts,
///   reads, and decodes frames (`server/protocol.h`); it never parses,
///   plans, or executes. Malformed frames drop the connection; a PING
///   is answered inline.
/// * **Admission control.** Decoded requests enter a bounded queue
///   (`max_queue_depth`). When the queue is full the IO thread answers
///   RESOURCE_EXHAUSTED *immediately* — overload degrades into cheap,
///   explicit rejections the client can back off on, never into an
///   unbounded queue or a stalled socket.
/// * **Request batching.** A worker pops up to `max_batch` requests and
///   handles them in turn while holding one `OnlineStore::Read()` pin
///   for the batch. Each execution pins its own snapshot inside the
///   Session and releases it on return; the batch pin keeps the term ids
///   of every result valid until its reply is encoded (see
///   `ExecuteBatch`).
/// * **Multi-tenant sessions.** Each connection carries its own
///   statement and cursor tables (ids are per-connection): a map of
///   `core::PreparedQuery` handles and a map of `core::Cursor`s. A
///   cursor owns its epoch pin: FETCH streams the snapshot the cursor
///   was opened on no matter how many updates publish meanwhile.
/// * **Responses may interleave.** Workers complete out of order;
///   responses carry the request's id. Writes to one connection are
///   serialized by a per-connection mutex.
///
/// A side admin listener speaks just enough HTTP/1.0 for scraping:
/// `GET /metrics` (Prometheus `MetricsRegistry::DumpText()`),
/// `GET /healthz`, and `GET /debug/slow` (the slow-query log as JSON;
/// entries are tagged `conn=<id>` so slow templates attribute to a
/// tenant).
///
/// Graceful shutdown (`Stop()`, or SIGINT/SIGTERM after
/// `InstallSignalShutdown`): stop accepting, drain the queue and every
/// in-flight request, answer what was admitted, close connections, and
/// — when the store is durable and `checkpoint_on_shutdown` is set —
/// take a final checkpoint so restart replays nothing.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/online_store.h"
#include "core/session.h"
#include "server/protocol.h"

namespace dskg::server {

struct ServerConfig {
  /// TCP port for the query listener; 0 picks an ephemeral port (read
  /// it back from `port()` after `Start`).
  uint16_t port = 0;

  /// Port for the admin HTTP listener (/metrics, /healthz,
  /// /debug/slow); 0 picks an ephemeral port.
  uint16_t admin_port = 0;

  /// Disables the admin listener entirely.
  bool enable_admin = true;

  /// Worker threads executing request batches.
  int workers = 4;

  /// Admission bound: decoded requests waiting for a worker. A full
  /// queue answers RESOURCE_EXHAUSTED instead of queueing. 0 rejects
  /// every request (useful in tests; a real deployment wants >= the
  /// expected burst).
  size_t max_queue_depth = 256;

  /// Requests one worker executes under a single epoch pin.
  size_t max_batch = 16;

  /// Slow-query threshold wired into the global registry at Start();
  /// <= 0 leaves the registry's current threshold alone.
  double slow_query_ms = 0;

  /// Take a final `OnlineStore::SaveSnapshot()` checkpoint during
  /// `Stop()` (durable stores only).
  bool checkpoint_on_shutdown = false;

  /// Test hook: when set, workers invoke this once per popped batch
  /// *before* executing it (lets tests hold workers to fill the queue
  /// deterministically). Never set in production.
  std::function<void()> test_batch_hook;
};

/// The serving front end. One instance serves one `OnlineStore`.
/// Thread-safe to the extent the store is: any number of concurrent
/// client connections; updates keep going through the store's single
/// injector elsewhere in the process.
class Server {
 public:
  Server(core::OnlineStore* store, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds both listeners and starts the IO thread, the worker pool and
  /// the admin thread. IoError when a port cannot be bound.
  Status Start();

  /// Graceful shutdown: stops accepting, drains admitted requests,
  /// closes every connection, joins all threads, and (when configured)
  /// checkpoints the store. Idempotent.
  void Stop();

  bool started() const { return started_.load(std::memory_order_acquire); }
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// Bound ports (valid after a successful Start()).
  uint16_t port() const { return port_; }
  uint16_t admin_port() const { return admin_port_; }

  /// The Session every wire request runs through (its plan cache is
  /// shared by all connections; exposed for tests and stats).
  core::Session& session() { return session_; }

  /// Monotone serving counters (exact; mirrored as `server.*` metrics).
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t requests_admitted = 0;
    uint64_t requests_rejected = 0;  ///< admission-control rejections
    uint64_t responses_sent = 0;
    uint64_t errors_sent = 0;  ///< ERROR frames (includes rejections)
    uint64_t batches = 0;      ///< worker batches executed
  };
  Stats stats() const;

 private:
  struct Connection;
  struct WorkItem;

  // IO-thread side.
  void IoLoop();
  void AcceptOne();
  void ReadFrom(const std::shared_ptr<Connection>& conn);
  void DispatchFrame(const std::shared_ptr<Connection>& conn,
                     const Frame& frame);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  /// Marks the connection dead and shuts the socket down (any thread).
  /// The fd itself stays open until the last shared_ptr drops, so
  /// concurrent senders can never hit a recycled descriptor.
  void AbortConnection(const std::shared_ptr<Connection>& conn);

  // Worker side.
  void WorkerLoop();
  void ExecuteBatch(std::vector<WorkItem>* batch);
  /// `dict` decodes result rows; the caller's pin keeps their ids valid.
  void HandleItem(const WorkItem& item, const rdf::Dictionary& dict);
  Status HandlePrepare(const WorkItem& item);
  Status HandleExecute(const WorkItem& item, const rdf::Dictionary& dict);
  Status HandleFetch(const WorkItem& item, const rdf::Dictionary& dict);
  Status HandleClose(const WorkItem& item, bool cursor);

  // Response plumbing. Workers send with may_block=true (bounded
  // flow-control waits); the IO thread sends with may_block=false — it
  // must never stall on one peer's full socket buffer, so a would-block
  // there drops the connection instead.
  void SendBytes(const std::shared_ptr<Connection>& conn,
                 const std::vector<uint8_t>& bytes, bool may_block = true);
  void SendError(const std::shared_ptr<Connection>& conn, uint32_t request_id,
                 const Status& status, bool may_block = true);

  // Admin listener.
  void AdminLoop();
  std::string AdminRespond(const std::string& path) const;

  core::OnlineStore* store_;
  ServerConfig cfg_;
  core::Session session_;

  int listen_fd_ = -1;
  int admin_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe: wakes poll() on Stop()
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  std::thread io_thread_;
  std::thread admin_thread_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<void>> worker_done_;

  // Connections are owned by the IO thread's table; workers hold
  // shared_ptrs through queued items, so a connection that drops mid-
  // request stays valid until drained. Disconnecting shuts the socket
  // down but closes the fd only in ~Connection (last reference): an
  // in-flight send fails with EPIPE rather than racing a close() and
  // writing into a recycled descriptor owned by a newer client.
  std::mutex conns_mu_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  std::atomic<uint64_t> next_conn_id_{1};

  // The bounded request queue (admission control) and drain tracking.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;   ///< signals workers: work or stop
  std::condition_variable drain_cv_;   ///< signals Stop(): all drained
  std::deque<WorkItem> queue_;
  size_t in_flight_ = 0;  ///< popped but not yet answered

  // Telemetry: this server's counts behind `stats()`, each also added to
  // the global `server.*` counter of the same name, plus the gauges and
  // histograms.
  struct Metrics {
    Metrics();  // resolves the global `server.*` metrics
    telemetry::LocalCount accepted, admitted, rejected, responses, errors,
        batches;
    telemetry::Gauge* open_connections;
    telemetry::Gauge* queue_depth;
    telemetry::Histogram* request_us;
    telemetry::Histogram* batch_size;
  };
  Metrics metrics_;
};

/// Routes SIGINT/SIGTERM to `server->Stop()` via a self-pipe and a
/// watcher thread (`Stop` is nowhere near async-signal-safe, so the
/// handler only writes one byte). The watcher exits when the server
/// stops. Install at most one server at a time; passing nullptr
/// restores the default disposition.
void InstallSignalShutdown(Server* server);

}  // namespace dskg::server

#endif  // DSKG_SERVER_SERVER_H_
