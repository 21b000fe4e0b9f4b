#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/query_processor.h"
#include "rdf/dictionary.h"
#include "sparql/bindings.h"

namespace dskg::server {

namespace {

telemetry::MetricsRegistry& Registry() {
  return telemetry::MetricsRegistry::Global();
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Binds a loopback listener on `port` (0 = ephemeral) and reports the
/// bound port back through `*bound`.
Result<int> Listen(uint16_t port, uint16_t* bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket(): " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const Status s = Status::IoError("bind(port " + std::to_string(port) +
                                     "): " + strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 128) != 0) {
    const Status s = Status::IoError("listen(): " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound = ntohs(addr.sin_port);
  SetNonBlocking(fd);
  return fd;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

/// Encodes a ROWS response. `rows` may be null (cursor-open ack: header
/// only, zero rows).
void EncodeRows(std::vector<uint8_t>* out, uint32_t request_id,
                uint32_t cursor_id, bool done, core::Route route,
                const core::QueryExecution& ex,
                const std::vector<std::string>& columns,
                const sparql::BindingTable* rows,
                const rdf::Dictionary& dict) {
  WireWriter w(out);
  const size_t start = w.BeginFrame(MsgType::kRows, request_id);
  w.PutU32(cursor_id);
  w.PutU8(done ? 1 : 0);
  w.PutString(core::RouteName(route));
  w.PutF64(ex.rel_micros);
  w.PutF64(ex.graph_micros);
  w.PutF64(ex.migrate_micros);
  w.PutF64(ex.graph_io_micros);
  w.PutF64(ex.graph_cpu_micros);
  w.PutU16(static_cast<uint16_t>(columns.size()));
  for (const std::string& c : columns) w.PutString(c);
  const size_t n_rows = rows != nullptr ? rows->NumRows() : 0;
  w.PutU32(static_cast<uint32_t>(n_rows));
  for (size_t r = 0; r < n_rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      w.PutString(dict.TermOf(rows->At(r, c)));
    }
  }
  w.FinishFrame(start);
}

}  // namespace

// ---- connection & work-item state -------------------------------------------

struct Server::Connection {
  int fd = -1;
  uint64_t id = 0;
  std::string label;  ///< "conn=<id>": tags this tenant's slow queries
  std::vector<uint8_t> rbuf;
  std::atomic<bool> dead{false};

  /// The fd closes only when the LAST reference drops. Disconnection
  /// (`CloseConnection`) merely shuts the socket down: a worker mid-send
  /// on a queued shared_ptr keeps holding the same fd number — its
  /// writes fail with EPIPE instead of landing on a recycled descriptor
  /// belonging to a newly accepted client.
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  std::mutex write_mu;  ///< serializes response frames onto the socket

  /// Per-tenant session state: statements are client-numbered, cursors
  /// server-numbered. Guarded by `state_mu` (workers race on EXECUTE vs
  /// FETCH vs CLOSE for one connection). A null cursor is checked out by
  /// a FETCH in progress.
  std::mutex state_mu;
  std::unordered_map<uint32_t, core::PreparedQuery> stmts;
  std::unordered_map<uint32_t, std::unique_ptr<core::Cursor>> cursors;
  uint32_t next_cursor_id = 1;

  /// A copy of statement `id`: it shares the cached plan, and its
  /// bindings are the caller's own.
  Result<core::PreparedQuery> Statement(uint32_t id) {
    std::lock_guard<std::mutex> lk(state_mu);
    auto it = stmts.find(id);
    if (it == stmts.end()) {
      return Status::NotFound("no statement with id " + std::to_string(id));
    }
    return it->second;
  }
};

struct Server::WorkItem {
  std::shared_ptr<Connection> conn;
  MsgType type = MsgType::kPing;
  uint32_t request_id = 0;
  std::vector<uint8_t> body;
  double enqueue_us = 0;
};

// ---- construction -----------------------------------------------------------

Server::Metrics::Metrics()
    : accepted(Registry().counter("server.connections.accepted")),
      admitted(Registry().counter("server.requests.admitted")),
      rejected(Registry().counter("server.requests.rejected")),
      responses(Registry().counter("server.responses")),
      errors(Registry().counter("server.errors")),
      batches(Registry().counter("server.batches")),
      open_connections(Registry().gauge("server.connections.open")),
      queue_depth(Registry().gauge("server.queue.depth")),
      request_us(Registry().histogram("server.request_us")),
      batch_size(Registry().histogram("server.batch_size")) {}

Server::Server(core::OnlineStore* store, ServerConfig config)
    : store_(store), cfg_(std::move(config)), session_(store) {}

Server::~Server() {
  if (started()) Stop();
}

Status Server::Start() {
  if (started()) return Status::FailedPrecondition("server already started");
  if (cfg_.slow_query_ms > 0) {
    telemetry::MetricsRegistry::Global().slow_queries().set_threshold_ms(
        cfg_.slow_query_ms);
  }
  if (::pipe(wake_pipe_) != 0) {
    return Status::IoError("pipe(): " + std::string(strerror(errno)));
  }
  SetNonBlocking(wake_pipe_[0]);
  DSKG_ASSIGN_OR_RETURN(listen_fd_, Listen(cfg_.port, &port_));
  if (cfg_.enable_admin) {
    DSKG_ASSIGN_OR_RETURN(admin_fd_, Listen(cfg_.admin_port, &admin_port_));
  }
  const int workers = std::max(1, cfg_.workers);
  pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(workers));
  worker_done_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    worker_done_.push_back(pool_->Submit([this] { WorkerLoop(); }));
  }
  io_thread_ = std::thread([this] { IoLoop(); });
  if (cfg_.enable_admin) {
    admin_thread_ = std::thread([this] { AdminLoop(); });
  }
  started_.store(true, std::memory_order_release);
  return Status::OK();
}

void Server::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Second caller (e.g. the signal watcher racing an explicit Stop):
    // wait for the first to finish.
    while (!stopped()) std::this_thread::yield();
    return;
  }
  // Wake poll()ers: the IO thread stops accepting and reading, the
  // admin thread exits after its current exchange.
  char byte = 1;
  (void)!::write(wake_pipe_[1], &byte, 1);
  if (io_thread_.joinable()) io_thread_.join();

  // Drain: everything admitted before the listener closed gets its
  // response. New arrivals are impossible (no reader).
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    drain_cv_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
  }
  queue_cv_.notify_all();  // workers observe stopping_ + empty and exit
  for (std::future<void>& f : worker_done_) f.get();
  worker_done_.clear();
  pool_.reset();

  // Tear down connections (destroys cursors, releasing their pins; each
  // fd closes when its Connection's last reference drops).
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto& [fd, conn] : conns_) AbortConnection(conn);
    conns_.clear();
  }
  metrics_.open_connections->Set(0);

  if (admin_thread_.joinable()) {
    (void)!::write(wake_pipe_[1], &byte, 1);
    admin_thread_.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (admin_fd_ >= 0) ::close(admin_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  listen_fd_ = admin_fd_ = wake_pipe_[0] = wake_pipe_[1] = -1;

  if (cfg_.checkpoint_on_shutdown && store_->durable()) {
    const Status s = store_->SaveSnapshot();
    if (!s.ok()) {
      std::fprintf(stderr, "dskg_server: final checkpoint failed: %s\n",
                   s.message().c_str());
    }
  }
  stopped_.store(true, std::memory_order_release);
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections_accepted = metrics_.accepted.value();
  s.requests_admitted = metrics_.admitted.value();
  s.requests_rejected = metrics_.rejected.value();
  s.responses_sent = metrics_.responses.value();
  s.errors_sent = metrics_.errors.value();
  s.batches = metrics_.batches.value();
  return s;
}

// ---- IO thread --------------------------------------------------------------

void Server::IoLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Connection>> polled;
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      polled.reserve(conns_.size());
      for (auto& [fd, conn] : conns_) {
        fds.push_back({fd, POLLIN, 0});
        polled.push_back(conn);
      }
    }
    const int n = ::poll(fds.data(), fds.size(), /*timeout_ms=*/200);
    if (n < 0 && errno != EINTR) break;
    if (stopping_.load(std::memory_order_acquire)) break;
    if (n <= 0) continue;
    if (fds[0].revents & POLLIN) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof drain) > 0) {
      }
    }
    if (fds[1].revents & POLLIN) AcceptOne();
    for (size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        ReadFrom(polled[i - 2]);
      }
    }
  }
}

void Server::AcceptOne() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (drained) or transient error
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->label = "conn=" + std::to_string(conn->id);
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.emplace(fd, std::move(conn));
      metrics_.open_connections->Set(static_cast<int64_t>(conns_.size()));
    }
    metrics_.accepted.Add();
  }
}

void Server::ReadFrom(const std::shared_ptr<Connection>& conn) {
  uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn->rbuf.insert(conn->rbuf.end(), buf, buf + n);
      if (static_cast<ssize_t>(sizeof buf) > n) break;  // drained
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn);  // orderly close or hard error
    return;
  }
  // Decode every complete frame in the buffer.
  size_t off = 0;
  for (;;) {
    Frame frame;
    const int64_t used =
        DecodeFrame(conn->rbuf.data() + off, conn->rbuf.size() - off, &frame);
    if (used == 0) break;
    if (used < 0) {  // protocol violation: drop the peer
      CloseConnection(conn);
      return;
    }
    DispatchFrame(conn, frame);
    off += static_cast<size_t>(used);
  }
  if (off > 0) {
    conn->rbuf.erase(conn->rbuf.begin(),
                     conn->rbuf.begin() + static_cast<ptrdiff_t>(off));
  }
}

void Server::DispatchFrame(const std::shared_ptr<Connection>& conn,
                           const Frame& frame) {
  if (frame.type == MsgType::kPing) {  // answered inline, never queued
    std::vector<uint8_t> out;
    WireWriter w(&out);
    w.FinishFrame(w.BeginFrame(MsgType::kPong, frame.request_id));
    SendBytes(conn, out, /*may_block=*/false);
    return;
  }
  switch (frame.type) {
    case MsgType::kPrepare:
    case MsgType::kExecute:
    case MsgType::kFetch:
    case MsgType::kCloseStmt:
    case MsgType::kCloseCursor:
      break;
    default:
      SendError(conn, frame.request_id,
                Status::InvalidArgument(
                    "unknown request type " +
                    std::to_string(static_cast<int>(frame.type))),
                /*may_block=*/false);
      return;
  }
  WorkItem item;
  item.conn = conn;
  item.type = frame.type;
  item.request_id = frame.request_id;
  item.body.assign(frame.body, frame.body + frame.body_size);
  item.enqueue_us = telemetry::MetricsRegistry::Global().NowMicros();
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    if (queue_.size() >= cfg_.max_queue_depth) {
      lk.unlock();
      metrics_.rejected.Add();
      SendError(conn, frame.request_id,
                Status::CapacityExceeded(
                    "server overloaded: request queue full (depth " +
                    std::to_string(cfg_.max_queue_depth) + ")"),
                /*may_block=*/false);
      return;
    }
    queue_.push_back(std::move(item));
    metrics_.queue_depth->Set(static_cast<int64_t>(queue_.size()));
  }
  metrics_.admitted.Add();
  queue_cv_.notify_one();
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn) {
  AbortConnection(conn);
  std::lock_guard<std::mutex> lk(conns_mu_);
  conns_.erase(conn->fd);
  metrics_.open_connections->Set(static_cast<int64_t>(conns_.size()));
}

void Server::AbortConnection(const std::shared_ptr<Connection>& conn) {
  conn->dead.store(true, std::memory_order_relaxed);
  // Shut down rather than close: the fd number stays reserved until the
  // last shared_ptr drops (~Connection), so a worker mid-send can never
  // write into a recycled descriptor. The shutdown also makes the IO
  // thread's next recv() return 0, reaping the connection table entry.
  ::shutdown(conn->fd, SHUT_RDWR);
}

// ---- workers ----------------------------------------------------------------

void Server::WorkerLoop() {
  for (;;) {
    std::vector<WorkItem> batch;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] {
        return stopping_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;
      }
      const size_t n = std::min(std::max<size_t>(cfg_.max_batch, 1),
                                queue_.size());
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ += n;
      metrics_.queue_depth->Set(static_cast<int64_t>(queue_.size()));
    }
    if (cfg_.test_batch_hook) cfg_.test_batch_hook();
    ExecuteBatch(&batch);
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      in_flight_ -= batch.size();
      if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

void Server::ExecuteBatch(std::vector<WorkItem>* batch) {
  metrics_.batches.Add();
  auto& reg = telemetry::MetricsRegistry::Global();
  if (reg.enabled()) {
    metrics_.batch_size->Record(static_cast<double>(batch->size()));
  }
  // One pin for the whole batch. Each execution pins its own snapshot
  // inside the Session and drops it when `ExecuteAll` returns, but the
  // result holds term ids, and a released id can be recycled, its text
  // overwritten, two drained batches later (`rdf::Dictionary`). While
  // this pin is held no batch can drain, so every result's ids still
  // name their terms when its reply is encoded.
  const core::OnlineStore::ReadGuard guard = store_->Read();
  for (const WorkItem& item : *batch) HandleItem(item, guard.store().dict());
}

void Server::HandleItem(const WorkItem& item, const rdf::Dictionary& dict) {
  if (item.conn->dead.load(std::memory_order_relaxed)) return;
  // Slow queries recorded while handling this request name its tenant.
  telemetry::RequestLabelScope label(item.conn->label);
  Status s;
  switch (item.type) {
    case MsgType::kPrepare: s = HandlePrepare(item); break;
    case MsgType::kExecute: s = HandleExecute(item, dict); break;
    case MsgType::kFetch: s = HandleFetch(item, dict); break;
    case MsgType::kCloseStmt: s = HandleClose(item, /*cursor=*/false); break;
    case MsgType::kCloseCursor: s = HandleClose(item, /*cursor=*/true); break;
    default: s = Status::Internal("unreachable request type");
  }
  if (!s.ok()) SendError(item.conn, item.request_id, s);
  auto& reg = telemetry::MetricsRegistry::Global();
  if (reg.enabled()) {
    metrics_.request_us->Record(reg.NowMicros() - item.enqueue_us);
  }
}

Status Server::HandlePrepare(const WorkItem& item) {
  WireReader r(item.body.data(), item.body.size());
  uint32_t stmt_id = 0;
  std::string text;
  if (!r.GetU32(&stmt_id) || !r.GetString(&text) || !r.AtEnd()) {
    return Status::InvalidArgument("malformed PREPARE frame");
  }
  DSKG_ASSIGN_OR_RETURN(core::PreparedQuery prepared, session_.Prepare(text));
  std::vector<uint8_t> out;
  WireWriter w(&out);
  const size_t start = w.BeginFrame(MsgType::kPrepared, item.request_id);
  w.PutU32(stmt_id);
  w.PutU16(static_cast<uint16_t>(prepared.parameters().size()));
  for (const std::string& p : prepared.parameters()) w.PutString(p);
  w.FinishFrame(start);
  {
    std::lock_guard<std::mutex> lk(item.conn->state_mu);
    // Re-PREPARE of an id overwrites it.
    item.conn->stmts.insert_or_assign(stmt_id, std::move(prepared));
  }
  SendBytes(item.conn, out);
  return Status::OK();
}

Status Server::HandleExecute(const WorkItem& item,
                             const rdf::Dictionary& dict) {
  WireReader r(item.body.data(), item.body.size());
  uint32_t stmt_id = 0;
  uint8_t open_cursor = 0;
  uint16_t n_bindings = 0;
  if (!r.GetU32(&stmt_id) || !r.GetU8(&open_cursor) ||
      !r.GetU16(&n_bindings)) {
    return Status::InvalidArgument("malformed EXECUTE frame");
  }
  std::vector<std::pair<std::string, std::string>> bindings(n_bindings);
  for (auto& [name, term] : bindings) {
    if (!r.GetString(&name) || !r.GetString(&term)) {
      return Status::InvalidArgument("malformed EXECUTE frame");
    }
  }
  if (!r.AtEnd()) return Status::InvalidArgument("malformed EXECUTE frame");

  DSKG_ASSIGN_OR_RETURN(core::PreparedQuery prepared,
                        item.conn->Statement(stmt_id));
  for (const auto& [name, term] : bindings) {
    DSKG_RETURN_NOT_OK(prepared.Bind(name, term));
  }

  if (open_cursor != 0) {
    // The cursor owns its pin until it is drained or closed.
    DSKG_ASSIGN_OR_RETURN(core::Cursor cursor, prepared.OpenCursor());
    const core::Route route = cursor.route();
    const std::vector<std::string> columns = cursor.columns();
    uint32_t cursor_id = 0;
    {
      std::lock_guard<std::mutex> lk(item.conn->state_mu);
      cursor_id = item.conn->next_cursor_id++;
      item.conn->cursors.emplace(
          cursor_id, std::make_unique<core::Cursor>(std::move(cursor)));
    }
    // Ack with the cursor id and the header; rows (and charges, which
    // accrue as the cursor advances) arrive via FETCH.
    std::vector<uint8_t> out;
    EncodeRows(&out, item.request_id, cursor_id, /*done=*/false, route,
               core::QueryExecution{}, columns, /*rows=*/nullptr, dict);
    SendBytes(item.conn, out);
    return Status::OK();
  }

  DSKG_ASSIGN_OR_RETURN(core::QueryExecution exec, prepared.ExecuteAll());
  std::vector<uint8_t> out;
  EncodeRows(&out, item.request_id, /*cursor_id=*/0, /*done=*/true,
             exec.route, exec, exec.result.columns, &exec.result, dict);
  // A frame past kMaxFrameBytes is a protocol violation the client's
  // decoder rightly drops the connection over — reject it here instead
  // and point at the streaming path.
  if (out.size() - sizeof(uint32_t) > kMaxFrameBytes) {  // len prefix excluded
    return Status::CapacityExceeded(
        "result encodes to " + std::to_string(out.size()) +
        " bytes, past the " + std::to_string(kMaxFrameBytes) +
        "-byte frame bound; re-EXECUTE with open_cursor=1 and stream it "
        "with FETCH");
  }
  SendBytes(item.conn, out);
  return Status::OK();
}

Status Server::HandleFetch(const WorkItem& item, const rdf::Dictionary& dict) {
  WireReader r(item.body.data(), item.body.size());
  uint32_t cursor_id = 0, max_rows = 0;
  if (!r.GetU32(&cursor_id) || !r.GetU32(&max_rows) || !r.AtEnd()) {
    return Status::InvalidArgument("malformed FETCH frame");
  }
  if (max_rows == 0) max_rows = 1024;
  // Check the cursor OUT of the table (a null entry marks it busy) so
  // state_mu is never held across Next(), encoding, or a flow-controlled
  // send — a slow-reading peer must not block the connection's other
  // PREPARE/EXECUTE/CLOSE requests. A cursor is single-consumer by
  // construction; a concurrent FETCH on the same id is a client error.
  std::unique_ptr<core::Cursor> cur;
  {
    std::lock_guard<std::mutex> lk(item.conn->state_mu);
    auto it = item.conn->cursors.find(cursor_id);
    if (it == item.conn->cursors.end()) {
      return Status::NotFound("no cursor with id " + std::to_string(cursor_id));
    }
    if (it->second == nullptr) {
      return Status::FailedPrecondition("cursor " + std::to_string(cursor_id) +
                                        " is busy in a concurrent FETCH");
    }
    cur = std::move(it->second);
  }
  // `Next` reads the snapshot the cursor pinned at open, whatever has
  // published since; that pin also keeps the chunk's ids valid for `dict`.
  sparql::BindingTable chunk;
  bool done = false;
  Status status = cur->Next(&chunk, max_rows, &done);
  std::vector<uint8_t> out;
  if (status.ok()) {
    EncodeRows(&out, item.request_id, cursor_id, done, cur->route(),
               cur->Execution(), cur->columns(), &chunk, dict);  // cumulative
    if (out.size() - sizeof(uint32_t) > kMaxFrameBytes) {
      status = Status::CapacityExceeded(
          "chunk of " + std::to_string(max_rows) + " rows encodes to " +
          std::to_string(out.size()) + " bytes, past the " +
          std::to_string(kMaxFrameBytes) +
          "-byte frame bound; FETCH fewer rows");
    }
  }
  {
    // Check the cursor back in — unless it finished, or a concurrent
    // CLOSE_CURSOR erased the busy marker (then it dies here).
    std::lock_guard<std::mutex> lk(item.conn->state_mu);
    auto it = item.conn->cursors.find(cursor_id);
    if (it != item.conn->cursors.end() && it->second == nullptr) {
      if (status.ok() && done) {
        item.conn->cursors.erase(it);
      } else {
        it->second = std::move(cur);
      }
    }
  }
  DSKG_RETURN_NOT_OK(status);
  SendBytes(item.conn, out);
  return Status::OK();
}

Status Server::HandleClose(const WorkItem& item, bool cursor) {
  WireReader r(item.body.data(), item.body.size());
  uint32_t id = 0;
  if (!r.GetU32(&id) || !r.AtEnd()) {
    return Status::InvalidArgument("malformed CLOSE frame");
  }
  {
    std::lock_guard<std::mutex> lk(item.conn->state_mu);
    if (cursor) {
      item.conn->cursors.erase(id);
    } else {
      item.conn->stmts.erase(id);
    }
  }
  std::vector<uint8_t> out;
  WireWriter w(&out);
  w.FinishFrame(w.BeginFrame(MsgType::kPong, item.request_id));
  SendBytes(item.conn, out);
  return Status::OK();
}

// ---- response plumbing ------------------------------------------------------

void Server::SendBytes(const std::shared_ptr<Connection>& conn,
                       const std::vector<uint8_t>& bytes, bool may_block) {
  if (conn->dead.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lk(conn->write_mu);
  if (conn->dead.load(std::memory_order_relaxed)) return;
  size_t off = 0;
  int stalled_ms = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(conn->fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      stalled_ms = 0;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Flow control: the peer is slow. A worker waits for writability,
      // bounded, so a peer that never reads cannot wedge it forever. The
      // IO thread NEVER waits (may_block=false — its replies are tiny,
      // and one backed-up peer must not stall accepts and reads for
      // every other connection): a would-block there drops the peer.
      if (!may_block || stalled_ms >= 5000) {
        AbortConnection(conn);
        return;
      }
      pollfd p{conn->fd, POLLOUT, 0};
      (void)::poll(&p, 1, 50);
      stalled_ms += 50;
      continue;
    }
    AbortConnection(conn);
    return;
  }
  metrics_.responses.Add();
}

void Server::SendError(const std::shared_ptr<Connection>& conn,
                       uint32_t request_id, const Status& status,
                       bool may_block) {
  metrics_.errors.Add();
  // Error text can embed client-supplied query text; cap it so the
  // ERROR frame itself can never breach kMaxFrameBytes.
  constexpr size_t kMaxErrorText = 4096;
  std::vector<uint8_t> out;
  if (status.message().size() > kMaxErrorText) {
    EncodeError(&out, request_id,
                Status(status.code(),
                       status.message().substr(0, kMaxErrorText) + "..."));
  } else {
    EncodeError(&out, request_id, status);
  }
  SendBytes(conn, out, may_block);
}

// ---- admin listener ---------------------------------------------------------

std::string Server::AdminRespond(const std::string& path) const {
  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  std::string code = "200 OK";
  auto& reg = telemetry::MetricsRegistry::Global();
  if (path == "/healthz") {
    body = "ok\n";
  } else if (path == "/metrics") {
    body = reg.DumpText();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/debug/slow") {
    content_type = "application/json";
    body = "{\"threshold_ms\": " +
           std::to_string(reg.slow_queries().threshold_ms()) +
           ", \"total\": " + std::to_string(reg.slow_queries().total()) +
           ", \"entries\": [";
    bool first = true;
    for (const telemetry::SlowQueryLog::Entry& e :
         reg.slow_queries().Snapshot()) {
      if (!first) body += ", ";
      first = false;
      body += "{\"seq\": " + std::to_string(e.seq) +
              ", \"wall_ms\": " + std::to_string(e.wall_ms) + ", \"route\": \"";
      AppendJsonEscaped(&body, e.route);
      body += "\", \"text\": \"";
      AppendJsonEscaped(&body, e.text);
      body += "\"}";
    }
    body += "]}\n";
  } else {
    code = "404 Not Found";
    body = "not found\n";
  }
  return "HTTP/1.0 " + code + "\r\nContent-Type: " + content_type +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

void Server::AdminLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{wake_pipe_[0], POLLIN, 0}, {admin_fd_, POLLIN, 0}};
    const int n = ::poll(fds, 2, 200);
    if (stopping_.load(std::memory_order_acquire)) return;
    if (n <= 0 || !(fds[1].revents & POLLIN)) continue;
    const int fd = ::accept(admin_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // One short-lived blocking exchange per scrape connection.
    timeval tv{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    std::string req;
    char buf[4096];
    while (req.find("\r\n\r\n") == std::string::npos && req.size() < 16384) {
      const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
      if (got <= 0) break;
      req.append(buf, static_cast<size_t>(got));
    }
    // "GET <path> HTTP/1.x"
    std::string path = "/";
    if (req.rfind("GET ", 0) == 0) {
      const size_t end = req.find(' ', 4);
      if (end != std::string::npos) path = req.substr(4, end - 4);
    }
    const std::string resp = AdminRespond(path);
    size_t off = 0;
    while (off < resp.size()) {
      const ssize_t w =
          ::send(fd, resp.data() + off, resp.size() - off, MSG_NOSIGNAL);
      if (w <= 0) break;
      off += static_cast<size_t>(w);
    }
    ::close(fd);
  }
}

// ---- signal-driven shutdown -------------------------------------------------

namespace {

std::atomic<Server*> g_signal_server{nullptr};
int g_signal_pipe[2] = {-1, -1};

/// Holds the watcher thread. A joinable std::thread with static storage
/// would std::terminate at exit when the program forgets
/// InstallSignalShutdown(nullptr); this wrapper's destructor quits and
/// joins it instead. (Declared after g_signal_pipe, so the pipe fds are
/// still valid when the destructor writes the quit byte.)
struct SignalWatcher {
  std::thread thread;

  ~SignalWatcher() { StopAndJoin(); }

  void StopAndJoin() {
    if (!thread.joinable()) return;
    const char byte = 'q';
    (void)!::write(g_signal_pipe[1], &byte, 1);
    thread.join();
  }
};
SignalWatcher g_signal_watcher;

extern "C" void DskgSignalHandler(int /*signo*/) {
  // Async-signal-safe: one byte through the pipe, nothing else.
  const char byte = 's';
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

void InstallSignalShutdown(Server* server) {
  if (server == nullptr) {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_signal_server.store(nullptr, std::memory_order_release);
    if (g_signal_watcher.thread.joinable()) {
      g_signal_watcher.StopAndJoin();
      ::close(g_signal_pipe[0]);
      ::close(g_signal_pipe[1]);
      g_signal_pipe[0] = g_signal_pipe[1] = -1;
    }
    return;
  }
  if (g_signal_pipe[0] < 0 && ::pipe(g_signal_pipe) != 0) return;
  g_signal_server.store(server, std::memory_order_release);
  if (!g_signal_watcher.thread.joinable()) {
    g_signal_watcher.thread = std::thread([] {
      for (;;) {
        char byte = 0;
        const ssize_t n = ::read(g_signal_pipe[0], &byte, 1);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0 || byte == 'q') return;
        if (Server* s = g_signal_server.load(std::memory_order_acquire)) {
          s->Stop();
        }
      }
    });
  }
  std::signal(SIGINT, DskgSignalHandler);
  std::signal(SIGTERM, DskgSignalHandler);
}

}  // namespace dskg::server
