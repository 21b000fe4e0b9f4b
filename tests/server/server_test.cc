// Serving-tier tests: protocol codec roundtrips, wire results
// bit-identical to a direct core::Session oracle (inline and streamed),
// Status -> wire error mapping, admission-control overload behaviour,
// many concurrent socket clients vs a serial oracle (TSan-registered),
// plan re-validation in the server's Session under concurrent
// ApplyUpdates,
// graceful signal-driven shutdown with a final checkpoint, and the
// admin HTTP listener.

#include "server/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "core/online_store.h"
#include "core/session.h"
#include "core/update.h"
#include "persist/wal.h"
#include "server/client.h"
#include "server/protocol.h"
#include "test_util.h"

namespace dskg::server {
namespace {

using core::OnlineStore;
using core::Session;
using core::UpdateBatch;
using core::UpdateOp;

constexpr const char* kFlagshipParam =
    "SELECT ?p WHERE { ?p bornIn $city . "
    "?p advisor ?a . ?a bornIn $city . }";
constexpr const char* kScanAll = "SELECT ?p ?c WHERE { ?p bornIn ?c . }";

std::string ScratchDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("dskg_server_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Wire-shaped rows (term text) from an oracle execution.
std::vector<std::vector<std::string>> WireRows(
    const sparql::BindingTable& t, const rdf::Dictionary& dict) {
  std::vector<std::vector<std::string>> rows(t.NumRows());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    rows[r].resize(t.NumColumns());
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      rows[r][c] = std::string(dict.TermOf(t.At(r, c)));
    }
  }
  return rows;
}

void ExpectChargesEqual(const RowsResult& wire,
                        const core::QueryExecution& oracle) {
  EXPECT_DOUBLE_EQ(wire.rel_us, oracle.rel_micros);
  EXPECT_DOUBLE_EQ(wire.graph_us, oracle.graph_micros);
  EXPECT_DOUBLE_EQ(wire.migrate_us, oracle.migrate_micros);
  EXPECT_DOUBLE_EQ(wire.graph_io_us, oracle.graph_io_micros);
  EXPECT_DOUBLE_EQ(wire.graph_cpu_us, oracle.graph_cpu_micros);
}

// ---- protocol codec ---------------------------------------------------------

TEST(ProtocolTest, WriterReaderRoundTrip) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  const size_t start = w.BeginFrame(MsgType::kExecute, 42);
  w.PutU8(7);
  w.PutU16(65534);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutF64(3.25);
  w.PutString("hello $city");
  w.FinishFrame(start);

  Frame frame;
  const int64_t used = DecodeFrame(buf.data(), buf.size(), &frame);
  ASSERT_EQ(used, static_cast<int64_t>(buf.size()));
  EXPECT_EQ(frame.type, MsgType::kExecute);
  EXPECT_EQ(frame.request_id, 42u);

  WireReader r(frame.body, frame.body_size);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  double f64;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU16(&u16));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetF64(&f64));
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 65534);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(f64, 3.25);
  EXPECT_EQ(s, "hello $city");
  EXPECT_TRUE(r.AtEnd());
  // Over-reading poisons instead of walking off the buffer.
  EXPECT_FALSE(r.GetU8(&u8));
  EXPECT_FALSE(r.ok());
}

TEST(ProtocolTest, DecodeFrameShortAndViolations) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.FinishFrame(w.BeginFrame(MsgType::kPing, 9));

  Frame frame;
  // Every proper prefix is a short read, not an error.
  for (size_t n = 0; n < buf.size(); ++n) {
    EXPECT_EQ(DecodeFrame(buf.data(), n, &frame), 0) << n;
  }
  // A runt payload length (< header) is a violation.
  std::vector<uint8_t> runt = {3, 0, 0, 0, 1, 0, 0};
  EXPECT_EQ(DecodeFrame(runt.data(), runt.size(), &frame), -1);
  // An oversized length is a violation even before the body arrives.
  std::vector<uint8_t> huge = {0xff, 0xff, 0xff, 0xff, 1};
  EXPECT_EQ(DecodeFrame(huge.data(), huge.size(), &frame), -1);
}

TEST(ProtocolTest, StatusWireMappingRoundTrips) {
  const Status statuses[] = {
      Status::InvalidArgument("a"), Status::NotFound("b"),
      Status::AlreadyExists("c"),   Status::CapacityExceeded("d"),
      Status::Cancelled("e"),       Status::FailedPrecondition("f"),
      Status::ParseError("g"),      Status::IoError("h"),
      Status::Internal("i")};
  for (const Status& s : statuses) {
    const WireError code = WireErrorFromStatus(s);
    const Status back = StatusFromWire(code, s.message());
    EXPECT_EQ(back.code(), s.code()) << WireErrorName(code);
    EXPECT_EQ(back.message(), s.message());
  }
  EXPECT_EQ(WireErrorFromStatus(Status::CapacityExceeded("x")),
            WireError::kResourceExhausted);
}

// ---- end-to-end fixture -----------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : ds_(testing::SmallPeopleGraph()) {}

  void StartServer(ServerConfig cfg = {},
                   core::DualStoreConfig store_cfg = {}) {
    store_ = std::make_unique<OnlineStore>(ds_, store_cfg);
    server_ = std::make_unique<Server>(store_.get(), std::move(cfg));
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connect() {
    auto c = Client::Connect(server_->port());
    EXPECT_TRUE(c.ok()) << c.status();
    return std::move(c).ValueOrDie();
  }

  rdf::Dataset ds_;
  std::unique_ptr<OnlineStore> store_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingPong) {
  StartServer();
  Client client = Connect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, ExecuteMatchesSessionOracleBitIdentically) {
  StartServer();
  Client client = Connect();

  auto params = client.Prepare(1, kFlagshipParam);
  ASSERT_TRUE(params.ok()) << params.status();
  EXPECT_EQ(*params, std::vector<std::string>{"city"});

  // The oracle runs the exact same store shape in-process.
  rdf::Dataset oracle_ds = testing::SmallPeopleGraph();
  OnlineStore oracle_store(oracle_ds, {});
  Session oracle(&oracle_store);
  auto oracle_prep = oracle.Prepare(kFlagshipParam);
  ASSERT_TRUE(oracle_prep.ok());

  for (const char* city : {"berlin", "paris"}) {
    auto wire = client.Execute(1, {{"city", city}});
    ASSERT_TRUE(wire.ok()) << wire.status();
    ASSERT_TRUE(oracle_prep->Bind("city", city).ok());
    auto local = oracle_prep->ExecuteAll();
    ASSERT_TRUE(local.ok());

    EXPECT_EQ(wire->route, core::RouteName(local->route));
    EXPECT_EQ(wire->columns, local->result.columns);
    // Render through the oracle STORE's dict — OnlineStore clones the
    // dataset into its own dictionary, whose ids can differ from
    // oracle_ds's.
    EXPECT_EQ(wire->rows,
              WireRows(local->result, oracle_store.Read().store().dict()));
    ExpectChargesEqual(*wire, *local);
    EXPECT_TRUE(wire->done);
    EXPECT_EQ(wire->cursor_id, 0u);
  }
}

TEST_F(ServerTest, CursorStreamsSameRowsAndCumulativeCharges) {
  StartServer();
  Client client = Connect();
  ASSERT_TRUE(client.Prepare(2, kScanAll).ok());

  auto inline_r = client.Execute(2);
  ASSERT_TRUE(inline_r.ok());
  ASSERT_GT(inline_r->rows.size(), 2u);

  auto opened = client.OpenCursor(2);
  ASSERT_TRUE(opened.ok());
  EXPECT_GT(opened->cursor_id, 0u);
  EXPECT_FALSE(opened->done);
  EXPECT_EQ(opened->columns, inline_r->columns);
  EXPECT_TRUE(opened->rows.empty());

  std::vector<std::vector<std::string>> streamed;
  RowsResult last;
  last.done = false;
  while (!last.done) {
    auto chunk = client.Fetch(opened->cursor_id, 2);
    ASSERT_TRUE(chunk.ok()) << chunk.status();
    last = std::move(chunk).ValueOrDie();
    streamed.insert(streamed.end(), last.rows.begin(), last.rows.end());
  }
  EXPECT_EQ(streamed, inline_r->rows);
  // A fully drained cursor has charged exactly what inline execution
  // charges.
  ExpectChargesEqual(last, [&] {
    core::QueryExecution ex;
    ex.rel_micros = inline_r->rel_us;
    ex.graph_micros = inline_r->graph_us;
    ex.migrate_micros = inline_r->migrate_us;
    ex.graph_io_micros = inline_r->graph_io_us;
    ex.graph_cpu_micros = inline_r->graph_cpu_us;
    return ex;
  }());
  // The drained cursor is gone server-side.
  auto again = client.Fetch(opened->cursor_id, 2);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsNotFound());
}

// A wire cursor runs the same open step and drain as an inline EXECUTE:
// drained by FETCH, it counts its route once and records one simulated
// sample equal to the in-process ExecuteAll total.
TEST_F(ServerTest, DrainedWireCursorRecordsRouteAndSimOnce) {
  auto& reg = telemetry::MetricsRegistry::Global();
  reg.set_enabled(true);
  core::DualStoreConfig store_cfg;
  store_cfg.graph_capacity_triples = ds_.num_triples();
  StartServer({}, store_cfg);
  // bornIn and advisor resident: the flagship runs in the graph store,
  // the scan over `likes` in the relational store.
  ASSERT_TRUE(store_
                  ->TuneExclusive([](core::DualStore* s) {
                    CostMeter meter;
                    for (const char* pred : {"bornIn", "advisor"}) {
                      DSKG_RETURN_NOT_OK(s->MigratePartition(
                          s->dict().Lookup(pred), &meter));
                    }
                    return Status::OK();
                  })
                  .ok());
  Session oracle(store_.get());
  Client client = Connect();

  struct Case {
    uint32_t stmt;
    const char* text;
    core::Route route;
  };
  const Case cases[] = {
      {1, kFlagshipParam, core::Route::kGraphOnly},
      {2, "SELECT ?p ?f WHERE { ?p bornIn $city . ?p likes ?f . }",
       core::Route::kRelationalOnly},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    ASSERT_TRUE(client.Prepare(c.stmt, c.text).ok());
    auto local = oracle.Prepare(c.text);
    ASSERT_TRUE(local.ok());
    ASSERT_TRUE(local->Bind("city", "berlin").ok());
    auto exec = local->ExecuteAll();
    ASSERT_TRUE(exec.ok()) << exec.status();
    ASSERT_EQ(exec->route, c.route);

    const std::string route = core::RouteName(c.route);
    telemetry::Counter* count = reg.counter("query.route." + route);
    telemetry::Histogram* sim = reg.histogram("query.sim_us." + route);
    sim->Reset();
    const uint64_t count0 = count->value();
    auto opened = client.OpenCursor(c.stmt, {{"city", "berlin"}});
    ASSERT_TRUE(opened.ok()) << opened.status();
    bool done = false;
    while (!done) {
      auto chunk = client.Fetch(opened->cursor_id, 1);
      ASSERT_TRUE(chunk.ok()) << chunk.status();
      done = chunk->done;
    }
    EXPECT_EQ(count->value(), count0 + 1);
    EXPECT_EQ(sim->count(), 1u);
    EXPECT_EQ(sim->sum(), exec->total_micros());
  }
}

TEST_F(ServerTest, ErrorsMapToWireCodes) {
  StartServer();
  Client client = Connect();

  auto parse = client.Prepare(1, "SELEC nope");
  ASSERT_FALSE(parse.ok());
  EXPECT_TRUE(parse.status().IsParseError());

  auto no_stmt = client.Execute(99);
  ASSERT_FALSE(no_stmt.ok());
  EXPECT_TRUE(no_stmt.status().IsNotFound());

  ASSERT_TRUE(client.Prepare(1, kFlagshipParam).ok());
  auto unbound = client.Execute(1);
  ASSERT_FALSE(unbound.ok());
  EXPECT_TRUE(unbound.status().IsFailedPrecondition());

  auto bad_param = client.Execute(1, {{"town", "berlin"}});
  ASSERT_FALSE(bad_param.ok());
  EXPECT_TRUE(bad_param.status().IsInvalidArgument());

  auto unknown_term = client.Execute(1, {{"city", "atlantis"}});
  ASSERT_FALSE(unknown_term.ok());
  EXPECT_TRUE(unknown_term.status().IsNotFound());

  // The connection survives every one of those errors.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, ZeroDepthQueueRejectsWithResourceExhausted) {
  ServerConfig cfg;
  cfg.max_queue_depth = 0;  // admission admits nothing, deterministically
  StartServer(cfg);
  Client client = Connect();

  auto r = client.Prepare(1, kFlagshipParam);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCapacityExceeded()) << r.status();
  // Rejection is an answer, not a stall: the connection still serves
  // PING (which bypasses the queue).
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(server_->stats().requests_rejected, 1u);
  EXPECT_EQ(server_->stats().requests_admitted, 0u);
}

TEST_F(ServerTest, OverloadShedsExcessButAnswersEverything) {
  // One worker held on a gate while a pipelined client floods the
  // 4-deep queue: every request gets an answer — some ROWS, the
  // overflow RESOURCE_EXHAUSTED — and nothing hangs.
  std::atomic<bool> gate{false};
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.max_queue_depth = 4;
  cfg.test_batch_hook = [&gate] {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  StartServer(cfg);
  Client client = Connect();
  // Prepare goes through the queue too: open the gate for it, then
  // close it for the flood.
  gate.store(true);
  ASSERT_TRUE(client.Prepare(1, kScanAll).ok());
  gate.store(false);

  constexpr int kFlood = 40;
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(client.SendExecute(1000 + i, 1, {}).ok());
  }
  gate.store(true);

  int rows_ok = 0, rejected = 0;
  for (int i = 0; i < kFlood; ++i) {
    auto resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << resp.status();
    if (resp->type == MsgType::kRows) {
      ++rows_ok;
    } else {
      ASSERT_EQ(resp->type, MsgType::kError);
      EXPECT_TRUE(resp->error.IsCapacityExceeded()) << resp->error;
      ++rejected;
    }
  }
  EXPECT_EQ(rows_ok + rejected, kFlood);
  EXPECT_GT(rejected, 0);  // the 4-deep queue cannot hold a 40-burst
  EXPECT_GT(rows_ok, 0);
  EXPECT_EQ(server_->stats().requests_rejected,
            static_cast<uint64_t>(rejected));
}

// TSan-registered: many real-socket client threads vs a serial
// single-Session oracle — rows and simulated charges bit-identical.
TEST_F(ServerTest, ConcurrentClientsMatchSerialOracle) {
  ServerConfig cfg;
  cfg.workers = 4;
  cfg.max_batch = 8;
  StartServer(cfg);

  struct Expected {
    std::string text;
    std::vector<std::pair<std::string, std::string>> bindings;
    std::vector<std::vector<std::string>> rows;
    double charges[5];
  };
  const std::vector<std::pair<std::string, std::string>> cases[] = {
      {{"city", "berlin"}}, {{"city", "paris"}}, {}};
  std::vector<Expected> expected;
  {
    rdf::Dataset oracle_ds = testing::SmallPeopleGraph();
    OnlineStore oracle_store(oracle_ds, {});
    Session oracle(&oracle_store);
    for (const auto& binds : cases) {
      Expected e;
      e.text = binds.empty() ? kScanAll : kFlagshipParam;
      e.bindings = binds;
      auto prep = oracle.Prepare(e.text);
      ASSERT_TRUE(prep.ok());
      for (const auto& [n, t] : binds) ASSERT_TRUE(prep->Bind(n, t).ok());
      auto ex = prep->ExecuteAll();
      ASSERT_TRUE(ex.ok());
      e.rows = WireRows(ex->result, oracle_store.Read().store().dict());
      e.charges[0] = ex->rel_micros;
      e.charges[1] = ex->graph_micros;
      e.charges[2] = ex->migrate_micros;
      e.charges[3] = ex->graph_io_micros;
      e.charges[4] = ex->graph_cpu_micros;
      expected.push_back(std::move(e));
    }
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client_r = Client::Connect(server_->port());
      if (!client_r.ok()) {
        ++failures;
        return;
      }
      Client client = std::move(client_r).ValueOrDie();
      for (size_t s = 0; s < expected.size(); ++s) {
        if (!client.Prepare(static_cast<uint32_t>(s + 1),
                            expected[s].text)
                 .ok()) {
          ++failures;
          return;
        }
      }
      for (int i = 0; i < kIters; ++i) {
        const Expected& e = expected[(t + i) % expected.size()];
        const uint32_t stmt =
            static_cast<uint32_t>(((t + i) % expected.size()) + 1);
        auto r = client.Execute(stmt, e.bindings);
        if (!r.ok() || r->rows != e.rows || r->rel_us != e.charges[0] ||
            r->graph_us != e.charges[1] || r->migrate_us != e.charges[2] ||
            r->graph_io_us != e.charges[3] ||
            r->graph_cpu_us != e.charges[4]) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // The server's Session parsed each text far fewer times than the
  // 8 x 25 executions that used it.
  const auto cache_stats = server_->session().stats();
  EXPECT_GE(cache_stats.cache_hits, 1u);
  EXPECT_LE(cache_stats.prepares, static_cast<uint64_t>(expected.size()) * 4);
}

// TSan-registered: plan invalidation in the server's Session under a
// concurrent ApplyUpdates stream — stale plan_epoch entries re-prepare
// transparently, and every wire answer equals the pre- or post-publish
// oracle, never a torn state.
TEST_F(ServerTest, PlanCacheInvalidationUnderConcurrentUpdates) {
  ServerConfig cfg;
  cfg.workers = 2;
  StartServer(cfg);

  // Oracle rows before and after each update wave. The flagship
  // berlin query grows by one row per inserted (person, advisor) pair.
  auto count_rows = [&](Client* c) -> size_t {
    auto r = c->Execute(1, {{"city", "berlin"}});
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->rows.size() : 0;
  };

  Client client = Connect();
  ASSERT_TRUE(client.Prepare(1, kFlagshipParam).ok());
  const size_t before = count_rows(&client);
  ASSERT_EQ(before, 1u);

  constexpr int kWaves = 6;
  std::atomic<bool> stop_readers{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      auto client_r = Client::Connect(server_->port());
      if (!client_r.ok()) {
        ++failures;
        return;
      }
      Client c = std::move(client_r).ValueOrDie();
      if (!c.Prepare(1, kFlagshipParam).ok()) {
        ++failures;
        return;
      }
      while (!stop_readers.load(std::memory_order_acquire)) {
        auto r = c.Execute(1, {{"city", "berlin"}});
        if (!r.ok()) {
          // A binding may reference a term the pinned snapshot does not
          // hold yet; that surfaces as NotFound, which is a correct
          // answer, not a torn one.
          if (!r.status().IsNotFound()) ++failures;
          continue;
        }
        // Any prefix state is legal; torn states are not.
        if (r->rows.size() < 1 || r->rows.size() > 1 + kWaves) ++failures;
      }
    });
  }

  // The single injector publishes kWaves batches while readers hammer.
  for (int wave = 0; wave < kWaves; ++wave) {
    UpdateBatch batch;
    const std::string who = "newcomer" + std::to_string(wave);
    batch.ops.push_back(UpdateOp::Insert(who, "bornIn", "berlin"));
    batch.ops.push_back(UpdateOp::Insert(who, "advisor", "alice"));
    ASSERT_TRUE(store_->ApplyUpdates(batch).ok());
  }
  stop_readers.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Post-update executes see every wave, through a re-prepared plan.
  EXPECT_EQ(count_rows(&client), 1u + kWaves);
  EXPECT_GE(server_->session().stats().replans, 1u);
}

TEST_F(ServerTest, SignalShutdownDrainsInFlightAndCheckpoints) {
  const std::string dir = ScratchDir("graceful");
  persist::DurabilityOptions dur;
  dur.dir = dir;

  rdf::Dataset ds = testing::SmallPeopleGraph();
  OnlineStore store(ds, {}, dur);
  ASSERT_TRUE(store.poison_status().ok());
  // An applied batch moves the durability watermark, so the shutdown
  // checkpoint writes a NEW snapshot file we can assert on.
  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Insert("eve", "bornIn", "berlin"));
  ASSERT_TRUE(store.ApplyUpdates(batch).ok());
  const size_t snapshots_before = [&] {
    size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().filename().string().rfind("snapshot", 0) == 0) ++n;
    }
    return n;
  }();

  std::atomic<bool> gate{false};
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.checkpoint_on_shutdown = true;
  cfg.test_batch_hook = [&gate] {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Server server(&store, cfg);
  ASSERT_TRUE(server.Start().ok());
  InstallSignalShutdown(&server);

  auto client_r = Client::Connect(server.port());
  ASSERT_TRUE(client_r.ok());
  Client client = std::move(client_r).ValueOrDie();
  gate.store(true);
  ASSERT_TRUE(client.Prepare(1, kScanAll).ok());
  gate.store(false);

  // Five requests go in while the worker is held; all must be answered
  // during the drain.
  constexpr int kInFlight = 5;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client.SendExecute(500 + i, 1, {}).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_EQ(std::raise(SIGTERM), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.store(true);  // release the worker: the drain can proceed

  int answered = 0;
  for (int i = 0; i < kInFlight; ++i) {
    auto resp = client.Receive();
    if (!resp.ok()) break;  // server closed after the drain
    if (resp->type == MsgType::kRows) ++answered;
  }
  EXPECT_EQ(answered, kInFlight);

  for (int i = 0; i < 500 && !server.stopped(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(server.stopped());
  InstallSignalShutdown(nullptr);

  size_t snapshots_after = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("snapshot", 0) == 0) {
      ++snapshots_after;
    }
  }
  EXPECT_GT(snapshots_after, snapshots_before)
      << "shutdown did not write a final checkpoint";
}

TEST_F(ServerTest, AdminListenerServesMetricsHealthAndSlowLog) {
  auto& slow = telemetry::MetricsRegistry::Global().slow_queries();
  slow.Clear();
  const double saved_threshold = slow.threshold_ms();

  ServerConfig cfg;
  cfg.slow_query_ms = 1e-6;  // everything is "slow": the log must fill
  StartServer(cfg);
  Client client = Connect();
  ASSERT_TRUE(client.Prepare(1, kScanAll).ok());
  ASSERT_TRUE(client.Execute(1).ok());

  auto health = Client::HttpGet(server_->admin_port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(*health, "ok\n");

  auto metrics = Client::HttpGet(server_->admin_port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("# TYPE server_requests_admitted counter"),
            std::string::npos);
  EXPECT_NE(metrics->find("server_batches"), std::string::npos);
  EXPECT_NE(metrics->find("server_request_us_count"), std::string::npos);

  // The slow-query log captured the wire-level text, tagged with the
  // tenant connection.
  auto slow_dump = Client::HttpGet(server_->admin_port(), "/debug/slow");
  ASSERT_TRUE(slow_dump.ok()) << slow_dump.status();
  EXPECT_NE(slow_dump->find("\"entries\""), std::string::npos);
  EXPECT_NE(slow_dump->find("conn="), std::string::npos);
  EXPECT_NE(slow_dump->find("bornIn"), std::string::npos);

  auto missing = Client::HttpGet(server_->admin_port(), "/nope");
  EXPECT_FALSE(missing.ok());

  slow.set_threshold_ms(saved_threshold);
  slow.Clear();
}

TEST_F(ServerTest, MalformedFrameDropsConnectionOthersSurvive) {
  StartServer();
  Client bystander = Connect();
  ASSERT_TRUE(bystander.Ping().ok());

  // Hand-craft a connection that sends an oversize length prefix — a
  // protocol violation the server answers by dropping the offender.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const uint8_t bad[] = {0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0};
  ASSERT_EQ(::send(fd, bad, sizeof(bad), 0),
            static_cast<ssize_t>(sizeof(bad)));
  // The server closes us: recv drains to EOF rather than hanging.
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[64];
  ssize_t n;
  do {
    n = ::recv(fd, buf, sizeof(buf), 0);
  } while (n > 0);
  EXPECT_EQ(n, 0) << "expected clean EOF from the server";
  ::close(fd);

  // The rule-abiding neighbour is unaffected.
  EXPECT_TRUE(bystander.Ping().ok());
}

}  // namespace
}  // namespace dskg::server
