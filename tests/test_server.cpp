// Resident-daemon tests: wire protocol, framing, and full SearchServer
// integration over the in-process loopback transport (src/server/).
//
// The integration tests stand up a real server (scan pool, scheduler,
// admission queue) and prove the ISSUE acceptance criteria without a
// socket in sight:
//   (a) daemon results are bit-identical to a local HmmSearch::run_cpu;
//   (b) 16 concurrent requests coalesce into ONE database sweep;
//   (c) requests beyond the admission bound get an OVERLOAD reply
//       immediately instead of blocking;
//   (d) drain completes everything admitted and rejects new searches
//       with kShuttingDown.
// Plus the failure paths: deadline expiry, mid-request disconnect,
// malformed frames (connection torn down, server survives), SCAN sweeps
// yielding to queued requests at chunk boundaries (a reply gate parks
// the scheduler at a known point), and a multi-client stress run
// written for the tsan preset.  The connection
// tier both daemons share (malformed frames, PING handshake, drain,
// HTTP routes) is also covered once per daemon in test_frontend.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bio/seq_db_io.hpp"
#include "held_listener.hpp"
#include "hmm/generator.hpp"
#include "hmm/model_db.hpp"
#include "obs/request_trace.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/workload.hpp"
#include "server/client.hpp"
#include "server/http.hpp"
#include "server/loopback.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/transport.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace {

using namespace finehmm;
using namespace finehmm::server;

// ------------------------------------------------------------ protocol

TEST(ServerProtocol, HeaderRoundTrip) {
  FrameHeader h;
  h.type = static_cast<std::uint8_t>(MsgType::kSearch);
  h.request_id = 0xDEADBEEF;
  h.payload_len = 12345;
  std::uint8_t buf[kFrameHeaderSize];
  encode_header(h, buf);
  const FrameHeader back = decode_header(buf);
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.type, h.type);
  EXPECT_EQ(back.request_id, h.request_id);
  EXPECT_EQ(back.payload_len, h.payload_len);
}

TEST(ServerProtocol, HeaderRejectsBadVersionAndHostileLength) {
  FrameHeader h;
  std::uint8_t buf[kFrameHeaderSize];
  h.version = 99;
  encode_header(h, buf);
  EXPECT_THROW(decode_header(buf), ProtocolError);

  h.version = kProtocolVersion;
  h.payload_len = static_cast<std::uint32_t>(kMaxPayload) + 1;
  encode_header(h, buf);
  EXPECT_THROW(decode_header(buf), ProtocolError);
}

TEST(ServerProtocol, SearchRequestRoundTripInline) {
  SearchRequest req;
  req.db_id = 7;
  req.model_kind = ModelRefKind::kInline;
  req.evalue = 0.1234567890123;  // must survive bit-exactly
  req.deadline_ms = 250;
  req.model_blob = {0x01, 0x02, 0xFF, 0x00, 0x7F};
  const SearchRequest back = decode_search_request(encode_search_request(req));
  EXPECT_EQ(back.db_id, req.db_id);
  EXPECT_EQ(back.model_kind, req.model_kind);
  EXPECT_EQ(back.evalue, req.evalue);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.model_blob, req.model_blob);
}

TEST(ServerProtocol, SearchRequestRoundTripPressed) {
  SearchRequest req;
  req.db_id = 0;
  req.model_kind = ModelRefKind::kPressed;
  req.model_name = "globins4";
  const SearchRequest back = decode_search_request(encode_search_request(req));
  EXPECT_EQ(back.model_kind, ModelRefKind::kPressed);
  EXPECT_EQ(back.model_name, "globins4");
}

TEST(ServerProtocol, SearchRequestRejectsTruncation) {
  // A pressed request is fully length-delimited (the name carries its
  // own length prefix), so EVERY proper prefix must be rejected — the
  // decoder may never read out of bounds or accept a short name.
  SearchRequest pressed;
  pressed.model_kind = ModelRefKind::kPressed;
  pressed.model_name = "globins4";
  const std::vector<std::uint8_t> pbytes = encode_search_request(pressed);
  for (std::size_t cut = 0; cut < pbytes.size(); ++cut) {
    std::vector<std::uint8_t> trunc(pbytes.begin(),
                                    pbytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_search_request(trunc), ProtocolError) << cut;
  }

  // An inline request's blob is the remainder of the payload, so the
  // framing layer can only reject truncation of the fixed prefix (the
  // model parser catches a torn blob downstream).  The fixed prefix is
  // db_id + kind + reserved + evalue + deadline = 20 bytes; cutting
  // anywhere inside it, or leaving the blob empty, must throw.
  SearchRequest inline_req;
  inline_req.model_blob = {1, 2, 3, 4};
  const std::vector<std::uint8_t> ibytes = encode_search_request(inline_req);
  for (std::size_t cut = 0; cut <= 20; ++cut) {
    std::vector<std::uint8_t> trunc(ibytes.begin(),
                                    ibytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_search_request(trunc), ProtocolError) << cut;
  }
}

TEST(ServerProtocol, SearchResultRoundTripBitExact) {
  SearchResultWire res;
  res.trace_id = 0x9f3a5c0011223344ull;
  res.db_sequences = 1000;
  res.db_residues = 123456789;
  res.ssv = {1000, 60, 1.5e6, 0.0};
  res.msv = {60, 20, 3.5e5, 0.0};
  res.vit = {20, 5, 9e4, 0.0};
  res.fwd = {5, 3, 4e4, 0.0};
  pipeline::Hit h;
  h.seq_index = 42;
  h.name = "seq_42";
  h.msv_bits = 13.25f;
  h.vit_bits = 17.125f;
  h.fwd_bits = 21.0625f;
  h.bias_bits = 0.4375f;
  h.pvalue = 3.0e-9;
  h.evalue = 3.0e-6;
  res.hits.push_back(h);
  const SearchResultWire back =
      decode_search_result(encode_search_result(res));
  EXPECT_EQ(back.trace_id, res.trace_id);
  EXPECT_EQ(back.db_sequences, res.db_sequences);
  EXPECT_EQ(back.db_residues, res.db_residues);
  EXPECT_EQ(back.msv.n_in, res.msv.n_in);
  EXPECT_EQ(back.msv.n_passed, res.msv.n_passed);
  EXPECT_EQ(back.msv.cells, res.msv.cells);
  ASSERT_EQ(back.hits.size(), 1u);
  EXPECT_EQ(back.hits[0].seq_index, h.seq_index);
  EXPECT_EQ(back.hits[0].name, h.name);
  // Bit patterns, not tolerances: the wire carries IEEE-754 images.
  EXPECT_EQ(back.hits[0].msv_bits, h.msv_bits);
  EXPECT_EQ(back.hits[0].vit_bits, h.vit_bits);
  EXPECT_EQ(back.hits[0].fwd_bits, h.fwd_bits);
  EXPECT_EQ(back.hits[0].bias_bits, h.bias_bits);
  EXPECT_EQ(back.hits[0].pvalue, h.pvalue);
  EXPECT_EQ(back.hits[0].evalue, h.evalue);
}

TEST(ServerProtocol, ErrorAndOverloadRoundTrip) {
  ErrorInfo err{ErrorCode::kDeadlineExpired, "sat queued 51ms past deadline"};
  const ErrorInfo eback = decode_error(encode_error(err));
  EXPECT_EQ(eback.code, err.code);
  EXPECT_EQ(eback.message, err.message);

  OverloadInfo ov{64};
  EXPECT_EQ(decode_overload(encode_overload(ov)).queue_capacity, 64u);
}

// ------------------------------------------------------------ framing

TEST(ServerTransport, FrameRoundTripOverLoopback) {
  LoopbackHub hub;
  auto listener = hub.listener();
  std::unique_ptr<Connection> server_end;
  std::thread acceptor([&] { server_end = listener->accept(); });
  auto client_end = hub.connect();
  acceptor.join();
  ASSERT_TRUE(server_end);
  ASSERT_TRUE(client_end);

  const std::vector<std::uint8_t> payload = {9, 8, 7, 6, 5};
  ASSERT_TRUE(send_frame(*client_end, MsgType::kSearch, 31337, payload));
  Frame f;
  ASSERT_EQ(recv_frame(*server_end, f), RecvStatus::kFrame);
  EXPECT_EQ(f.type(), MsgType::kSearch);
  EXPECT_EQ(f.header.request_id, 31337u);
  EXPECT_EQ(f.payload, payload);

  // Clean close at a frame boundary is EOF, not malformed.
  client_end->shutdown();
  EXPECT_EQ(recv_frame(*server_end, f), RecvStatus::kEof);
}

TEST(ServerTransport, TornFrameIsMalformedNotEof) {
  LoopbackHub hub;
  auto listener = hub.listener();
  std::unique_ptr<Connection> server_end;
  std::thread acceptor([&] { server_end = listener->accept(); });
  auto client_end = hub.connect();
  acceptor.join();

  // A valid header promising 100 payload bytes, then only 10, then close:
  // the stream died mid-frame.
  FrameHeader h;
  h.type = static_cast<std::uint8_t>(MsgType::kSearch);
  h.payload_len = 100;
  std::uint8_t buf[kFrameHeaderSize];
  encode_header(h, buf);
  ASSERT_TRUE(client_end->send_all(buf, kFrameHeaderSize));
  const std::uint8_t partial[10] = {};
  ASSERT_TRUE(client_end->send_all(partial, sizeof partial));
  client_end->shutdown();
  Frame f;
  EXPECT_EQ(recv_frame(*server_end, f), RecvStatus::kMalformed);
}

// ------------------------------------------------------- server fixture

/// Poll a predicate; the server's counters lag request admission by a
/// scheduler hop, so every cross-thread assertion waits.
bool eventually(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

struct ServerFixture {
  hmm::Plan7Hmm model;
  bio::SequenceDatabase db;
  std::unique_ptr<SearchServer> srv;
  LoopbackHub hub;
  std::unique_ptr<Listener> listener;
  HeldListener* held = nullptr;  // start(/*hold_close=*/true) only
  std::thread serve_thread;

  explicit ServerFixture(ServerConfig cfg = {}, int M = 48,
                         std::size_t n = 120)
      : model(hmm::paper_model(M)) {
    pipeline::WorkloadSpec spec;
    spec.db.name = "served";
    spec.db.n_sequences = n;
    spec.db.log_length_mu = 4.4;
    spec.db.log_length_sigma = 0.4;
    spec.db.seed = 99;
    spec.homolog_fraction = 0.05;
    db = pipeline::make_workload(model, spec);
    cfg.scan_threads = 2;  // the CI box is small; keep the pool tight
    srv = std::make_unique<SearchServer>(cfg);
    EXPECT_EQ(srv->add_database(db), 0u);
  }

  ~ServerFixture() { stop(); }

  /// hold_close: serve through a HeldListener, so drain cannot close
  /// the sessions before held->release().
  void start(bool hold_close = false) {
    listener = hub.listener();
    if (hold_close) {
      auto h = std::make_unique<HeldListener>(std::move(listener));
      held = h.get();
      listener = std::move(h);
    }
    serve_thread = std::thread([this] { srv->serve(*listener); });
  }

  void stop() {
    if (srv) srv->begin_drain();
    if (held != nullptr) held->release();
    if (serve_thread.joinable()) serve_thread.join();
  }

  BlockingClient connect() { return BlockingClient(hub.connect()); }

  /// The local ground truth the daemon must reproduce bit for bit.
  pipeline::SearchResult local_reference(double evalue = 10.0) const {
    pipeline::Thresholds thr;
    thr.report_evalue = evalue;
    const pipeline::HmmSearch search(model, thr);
    return search.run_cpu(db);
  }

  /// Calibration the client sends along so daemon and reference share
  /// the exact same ModelStats (both would otherwise recalibrate
  /// deterministically — sending them just makes the contract explicit).
  stats::ModelStats calibration() const {
    return pipeline::HmmSearch(model).model_stats();
  }
};

void expect_remote_matches_local(const RemoteResult& rr,
                                 const pipeline::SearchResult& ref,
                                 const bio::SequenceDatabase& db) {
  ASSERT_EQ(rr.status, ClientStatus::kOk);
  EXPECT_EQ(rr.result.db_sequences, db.size());
  EXPECT_EQ(rr.result.ssv.n_in, ref.ssv.n_in);
  EXPECT_EQ(rr.result.ssv.n_passed, ref.ssv.n_passed);
  EXPECT_EQ(rr.result.msv.n_in, ref.msv.n_in);
  EXPECT_EQ(rr.result.msv.n_passed, ref.msv.n_passed);
  EXPECT_EQ(rr.result.msv.cells, ref.msv.cells);
  EXPECT_EQ(rr.result.vit.n_passed, ref.vit.n_passed);
  EXPECT_EQ(rr.result.fwd.n_passed, ref.fwd.n_passed);
  ASSERT_EQ(rr.result.hits.size(), ref.hits.size());
  for (std::size_t i = 0; i < ref.hits.size(); ++i) {
    const pipeline::Hit& a = ref.hits[i];
    const pipeline::Hit& b = rr.result.hits[i];
    EXPECT_EQ(a.seq_index, b.seq_index) << i;
    EXPECT_EQ(a.name, b.name) << i;
    // operator== on floats: the wire carries exact bit patterns.
    EXPECT_EQ(a.msv_bits, b.msv_bits) << i;
    EXPECT_EQ(a.vit_bits, b.vit_bits) << i;
    EXPECT_EQ(a.fwd_bits, b.fwd_bits) << i;
    EXPECT_EQ(a.bias_bits, b.bias_bits) << i;
    EXPECT_EQ(a.pvalue, b.pvalue) << i;
    EXPECT_EQ(a.evalue, b.evalue) << i;
  }
}

// --------------------------------------------- (a) bit-identical results

TEST(SearchServer, RemoteHitsBitIdenticalToLocalRunCpu) {
  ServerFixture fx;
  fx.start();
  const pipeline::SearchResult ref = fx.local_reference();
  const stats::ModelStats cal = fx.calibration();

  BlockingClient client = fx.connect();
  EXPECT_TRUE(client.ping());
  const RemoteResult rr = client.search(0, fx.model, &cal);
  expect_remote_matches_local(rr, ref, fx.db);
  ASSERT_FALSE(ref.hits.empty()) << "workload produced no hits; the "
                                    "bit-identity check would be vacuous";

  // Omitting the calibration must not change anything: the daemon
  // recalibrates deterministically with the same options.
  const RemoteResult rr2 = client.search(0, fx.model, nullptr);
  expect_remote_matches_local(rr2, ref, fx.db);
}

TEST(SearchServer, PressedModelMatchesInlineSearch) {
  ServerConfig cfg;
  ServerFixture fx(cfg);
  const std::string lib = "/tmp/finehmm_test_server_models.fhpdb";
  hmm::write_model_db_file(lib, {{fx.model, std::nullopt}});
  EXPECT_EQ(fx.srv->add_model_library(lib), 1u);
  std::remove(lib.c_str());
  fx.start();

  const pipeline::SearchResult ref = fx.local_reference();
  BlockingClient client = fx.connect();
  const RemoteResult rr = client.search_pressed(0, fx.model.name());
  expect_remote_matches_local(rr, ref, fx.db);

  const RemoteResult missing = client.search_pressed(0, "no_such_model");
  ASSERT_EQ(missing.status, ClientStatus::kError);
  EXPECT_EQ(missing.error.code, ErrorCode::kUnknownModel);
}

TEST(SearchServer, UnknownDatabaseIsAnErrorNotACrash) {
  ServerFixture fx;
  fx.start();
  BlockingClient client = fx.connect();
  const RemoteResult rr = client.search(42, fx.model, nullptr);
  ASSERT_EQ(rr.status, ClientStatus::kError);
  EXPECT_EQ(rr.error.code, ErrorCode::kUnknownDatabase);
  EXPECT_TRUE(client.ping()) << "connection must survive a bad request";
}

// ------------------------------------------------- (b) coalesced sweeps

TEST(SearchServer, SixteenConcurrentRequestsShareOneSweep) {
  ServerConfig cfg;
  cfg.start_paused = true;  // stage all 16 in the queue before any sweep
  cfg.max_batch = 16;
  ServerFixture fx(cfg);
  fx.start();
  const pipeline::SearchResult ref = fx.local_reference();
  const stats::ModelStats cal = fx.calibration();

  constexpr std::size_t kClients = 16;
  std::vector<RemoteResult> results(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      BlockingClient client = fx.connect();
      results[c] = client.search(0, fx.model, &cal);
    });
  }
  ASSERT_TRUE(eventually(
      [&] { return fx.srv->stats().requests_admitted == kClients; }))
      << "admitted=" << fx.srv->stats().requests_admitted;
  fx.srv->set_paused(false);
  for (std::thread& t : threads) t.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    SCOPED_TRACE(c);
    expect_remote_matches_local(results[c], ref, fx.db);
  }

  // The acceptance criterion: 16 concurrent requests cost fewer database
  // sweeps than 16 sequential ones.  Staged behind a paused scheduler
  // they cost exactly ONE.
  const ServerStats st = fx.srv->stats();
  EXPECT_EQ(st.requests_completed, kClients);
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.db_sweeps, 1u);
  EXPECT_EQ(st.max_batch_size, kClients);

  // And the same fact through the telemetry schema: one sweep scoring 16
  // queries, visible on the merged msv-stage counters.
  const obs::ScanTelemetry tel = fx.srv->telemetry();
  EXPECT_EQ(tel.engine, "server");
  double sweeps = 0.0, queries = 0.0;
  for (const obs::StageTelemetry& stg : tel.stages)
    for (const auto& [key, value] : stg.counters) {
      if (key == "batch.sweeps") sweeps += value;
      if (key == "batch.queries") queries += value;
    }
  EXPECT_EQ(sweeps, 1.0);
  EXPECT_EQ(queries, static_cast<double>(kClients));
}

TEST(SearchServer, MappedSweepCountsDecodedSurvivorBytes) {
  ServerFixture fx;
  const std::string path = "/tmp/finehmm_test_server_mapped.fsqdb";
  bio::write_seq_db_file(path, fx.db);
  EXPECT_EQ(fx.srv->add_database(path), 1u);
  std::remove(path.c_str());  // the mapping outlives the directory entry
  fx.start();
  const pipeline::SearchResult ref = fx.local_reference();
  const stats::ModelStats cal = fx.calibration();

  BlockingClient client = fx.connect();
  const RemoteResult rr = client.search(1, fx.model, &cal);
  expect_remote_matches_local(rr, ref, fx.db);
  ASSERT_GT(rr.result.vit.n_in, 0u) << "no survivors reached the word stages";

  // Survivors of a mapped sweep are unpacked for the word stages, and the
  // daemon's telemetry must account for those bytes.
  const obs::ScanTelemetry tel = fx.srv->telemetry();
  EXPECT_TRUE(tel.zero_copy);
  EXPECT_GT(tel.decoded_bytes, 0u);
}

// ------------------------------------------------- (c) overload shedding

TEST(SearchServer, AdmissionBoundShedsWithOverloadReplyNotBlocking) {
  ServerConfig cfg;
  cfg.start_paused = true;  // nothing drains: the queue must fill
  cfg.admission_capacity = 2;
  ServerFixture fx(cfg);
  fx.start();
  const stats::ModelStats cal = fx.calibration();

  constexpr std::size_t kClients = 3;
  std::vector<RemoteResult> results(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      BlockingClient client = fx.connect();
      results[c] = client.search(0, fx.model, &cal);
    });
  }
  // The shed reply arrives while the scheduler is still frozen — that IS
  // the non-blocking guarantee.  (eventually() bounds the wait; a
  // blocking admission path would time this out.)
  ASSERT_TRUE(eventually([&] {
    const ServerStats st = fx.srv->stats();
    return st.requests_admitted == 2 && st.requests_overloaded == 1;
  })) << "admitted=" << fx.srv->stats().requests_admitted
      << " overloaded=" << fx.srv->stats().requests_overloaded;
  fx.srv->set_paused(false);
  for (std::thread& t : threads) t.join();

  std::size_t ok = 0, shed = 0;
  for (const RemoteResult& rr : results) {
    if (rr.status == ClientStatus::kOk) ++ok;
    if (rr.status == ClientStatus::kOverloaded) {
      ++shed;
      EXPECT_EQ(rr.overload.queue_capacity, 2u);
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 1u);
}

// ------------------------------------------------------- (d) drain

TEST(SearchServer, DrainFinishesAdmittedWorkAndRejectsNew) {
  ServerConfig cfg;
  cfg.start_paused = true;
  // One sweep per request: the drain has kAdmitted sequential sweeps to
  // finish.
  cfg.max_batch = 1;
  ServerFixture fx(cfg);
  // The drain stays open by construction, not by sweep cost: the
  // listener's close is held until the late client's rejection has been
  // observed, so its session cannot be shut down before it is answered.
  fx.start(/*hold_close=*/true);
  const pipeline::SearchResult ref = fx.local_reference();
  const stats::ModelStats cal = fx.calibration();

  // The late client connects BEFORE the drain starts (afterwards the
  // listener is closed), and sends its search only once draining_ is set.
  BlockingClient late = fx.connect();

  constexpr std::size_t kAdmitted = 6;
  std::vector<RemoteResult> admitted_rr(kAdmitted);
  std::vector<std::thread> admitted;
  for (std::size_t c = 0; c < kAdmitted; ++c) {
    admitted.emplace_back([&, c] {
      BlockingClient client = fx.connect();
      admitted_rr[c] = client.search(0, fx.model, &cal);
    });
  }
  ASSERT_TRUE(eventually(
      [&] { return fx.srv->stats().requests_admitted == kAdmitted; }));

  fx.srv->begin_drain();  // also releases the pause
  EXPECT_TRUE(fx.srv->draining());

  // New search on a live connection: rejected, not queued.
  const RemoteResult rejected = late.search(0, fx.model, &cal);
  ASSERT_EQ(rejected.status, ClientStatus::kError);
  EXPECT_EQ(rejected.error.code, ErrorCode::kShuttingDown);
  fx.held->release();  // now the drain may end

  // Already-admitted work still completes, bit-identically.
  for (std::thread& t : admitted) t.join();
  for (std::size_t c = 0; c < kAdmitted; ++c) {
    SCOPED_TRACE(c);
    expect_remote_matches_local(admitted_rr[c], ref, fx.db);
  }

  fx.serve_thread.join();  // serve() returns once drained
  const ServerStats st = fx.srv->stats();
  EXPECT_EQ(st.requests_completed, kAdmitted);
  EXPECT_EQ(st.requests_rejected_draining, 1u);

  // The listener is gone: new connections are refused.
  EXPECT_EQ(fx.hub.connect(), nullptr);
}

// ------------------------------------------------- deadline expiry

TEST(SearchServer, QueuedPastDeadlineIsShedWithDeadlineExpired) {
  ServerConfig cfg;
  cfg.start_paused = true;
  ServerFixture fx(cfg);
  fx.start();
  const stats::ModelStats cal = fx.calibration();

  RemoteResult rr;
  std::thread t([&] {
    BlockingClient client = fx.connect();
    rr = client.search(0, fx.model, &cal, 10.0, /*deadline_ms=*/1);
  });
  ASSERT_TRUE(
      eventually([&] { return fx.srv->stats().requests_admitted == 1; }));
  // Let the 1ms deadline lapse while the scheduler is frozen.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fx.srv->set_paused(false);
  t.join();

  ASSERT_EQ(rr.status, ClientStatus::kError);
  EXPECT_EQ(rr.error.code, ErrorCode::kDeadlineExpired);
  EXPECT_TRUE(eventually(
      [&] { return fx.srv->stats().requests_deadline_expired == 1; }));
}

// --------------------------------------- mid-request disconnect

TEST(SearchServer, ClientGoneBeforeReplyDropsResponseServerSurvives) {
  ServerConfig cfg;
  cfg.start_paused = true;
  ServerFixture fx(cfg);
  fx.start();
  const stats::ModelStats cal = fx.calibration();

  RemoteResult rr;
  BlockingClient doomed = fx.connect();
  std::thread t([&] { rr = doomed.search(0, fx.model, &cal); });
  ASSERT_TRUE(
      eventually([&] { return fx.srv->stats().requests_admitted == 1; }));
  doomed.connection().shutdown();  // sever while the request is queued
  t.join();
  EXPECT_EQ(rr.status, ClientStatus::kDisconnected);

  fx.srv->set_paused(false);
  ASSERT_TRUE(eventually(
      [&] { return fx.srv->stats().responses_dropped == 1; }));

  // The sweep itself completed; only the reply had nowhere to go.
  EXPECT_EQ(fx.srv->stats().requests_completed, 1u);
  BlockingClient alive = fx.connect();
  EXPECT_TRUE(alive.ping()) << "server must outlive a vanished client";
}

// --------------------------------------------- malformed frames

TEST(SearchServer, MalformedBytesTearDownThatConnectionOnly) {
  ServerFixture fx;
  fx.start();

  // Garbage version byte: the framing layer rejects it before any
  // payload allocation.
  auto garbage = fx.hub.connect();
  ASSERT_TRUE(garbage);
  const std::uint8_t junk[16] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(garbage->send_all(junk, sizeof junk));
  ASSERT_TRUE(
      eventually([&] { return fx.srv->stats().frames_malformed == 1; }));
  // The server hung up on us: the next read sees EOF.
  std::uint8_t scratch[8];
  EXPECT_EQ(garbage->recv_some(scratch, sizeof scratch), 0u);

  // A frame torn mid-payload counts too.
  auto torn = fx.hub.connect();
  ASSERT_TRUE(torn);
  FrameHeader h;
  h.type = static_cast<std::uint8_t>(MsgType::kSearch);
  h.payload_len = 4096;
  std::uint8_t buf[kFrameHeaderSize];
  encode_header(h, buf);
  ASSERT_TRUE(torn->send_all(buf, kFrameHeaderSize));
  torn->shutdown();
  ASSERT_TRUE(
      eventually([&] { return fx.srv->stats().frames_malformed == 2; }));

  // Undecodable SEARCH payloads are softer: the frame itself was whole,
  // so the server answers kBadRequest and keeps the connection.
  BlockingClient client = fx.connect();
  ASSERT_TRUE(
      send_frame(client.connection(), MsgType::kSearch, 5, {1, 2, 3}));
  Frame reply;
  ASSERT_EQ(recv_frame(client.connection(), reply), RecvStatus::kFrame);
  EXPECT_EQ(reply.type(), MsgType::kError);
  EXPECT_EQ(decode_error(reply.payload).code, ErrorCode::kBadRequest);
  EXPECT_TRUE(client.ping());

  // Through it all, well-behaved clients never noticed.
  BlockingClient good = fx.connect();
  EXPECT_TRUE(good.ping());
}

// ------------------------------------------------------- STATS verb

TEST(SearchServer, StatsVerbReportsSchemaAndCounts) {
  ServerFixture fx;
  fx.start();
  const stats::ModelStats cal = fx.calibration();
  BlockingClient client = fx.connect();
  const RemoteResult rr = client.search(0, fx.model, &cal);
  ASSERT_EQ(rr.status, ClientStatus::kOk);

  // The reply leaves before the scheduler finishes the request's trace
  // (serialize time is part of it), so poll until the ring has it.
  ASSERT_NE(rr.result.trace_id, 0u);
  const std::string id_hex = obs::trace_id_hex(rr.result.trace_id);
  std::string json;
  ASSERT_TRUE(eventually([&] {
    const std::optional<std::string> s = client.stats_json();
    if (!s.has_value()) return false;
    json = *s;
    return json.find(id_hex) != std::string::npos;
  }));
  EXPECT_NE(json.find("finehmm.server_stats.v2"), std::string::npos);
  EXPECT_NE(json.find("\"requests_completed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"engine\": \"server\""), std::string::npos);

  // v2 additions: the latency histograms saw the request, and its trace
  // landed in the ring, findable by the id the reply carried.
  EXPECT_NE(json.find("\"latency\": {"), std::string::npos);
  EXPECT_NE(json.find("\"e2e\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"sweep\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99_seconds\": "), std::string::npos);
  EXPECT_NE(json.find("\"recent_traces\": ["), std::string::npos);
  EXPECT_NE(json.find("\"verb\": \"SEARCH\""), std::string::npos);
}

// --------------------------------------------------- request tracing

TEST(SearchServer, EveryReplyCarriesADistinctTraceId) {
  ServerFixture fx;
  fx.start();
  const stats::ModelStats cal = fx.calibration();
  BlockingClient client = fx.connect();

  const RemoteResult a = client.search(0, fx.model, &cal);
  const RemoteResult b = client.search(0, fx.model, &cal);
  ASSERT_EQ(a.status, ClientStatus::kOk);
  ASSERT_EQ(b.status, ClientStatus::kOk);
  EXPECT_NE(a.result.trace_id, 0u);
  EXPECT_NE(b.result.trace_id, 0u);
  EXPECT_NE(a.result.trace_id, b.result.trace_id);

  // Both ids are queryable over the wire once their traces complete,
  // with the span breakdown summing (approximately) to the total.
  ASSERT_TRUE(eventually([&] {
    const std::optional<std::string> s = client.stats_json();
    return s.has_value() &&
           s->find(obs::trace_id_hex(a.result.trace_id)) !=
               std::string::npos &&
           s->find(obs::trace_id_hex(b.result.trace_id)) !=
               std::string::npos;
  }));
  const std::vector<obs::RequestTrace> traces =
      fx.srv->recent_traces();
  ASSERT_GE(traces.size(), 2u);
  for (const obs::RequestTrace& t : traces) {
    EXPECT_GT(t.total_seconds, 0.0);
    EXPECT_GE(t.sweep_seconds, 0.0);
    EXPECT_LE(t.queue_seconds + t.coalesce_seconds + t.sweep_seconds,
              t.total_seconds + 1e-6);
    EXPECT_GE(t.batch_size, 1u);
    EXPECT_STREQ(t.verb, "SEARCH");
  }
}

TEST(RequestTrace, ChromeTraceExportRoundTrips) {
  // The server-side trace ring renders in the same trace_event JSON the
  // in-process Recorder emits, one tid per request.
  obs::RequestTrace t;
  t.trace_id = obs::next_trace_id();
  t.request_id = 7;
  t.verb = "SEARCH";
  t.start_ns = 1500000;  // 1.5 ms after server start
  t.queue_seconds = 0.001;
  t.coalesce_seconds = 0.002;
  t.sweep_seconds = 0.010;
  t.sweep_span_seconds = 0.010;  // an unyielded sweep: span == active
  t.serialize_seconds = 0.0005;
  t.total_seconds = 0.0135;
  t.stage_seconds[static_cast<int>(obs::Stage::kMsv)] = 0.004;
  t.stage_seconds[static_cast<int>(obs::Stage::kVit)] = 0.003;
  t.batch_size = 3;

  obs::RequestTrace u = t;
  u.trace_id = obs::next_trace_id();
  u.verb = "SCAN";
  u.queue_seconds = 0.0;  // zero-length spans are omitted, not emitted

  std::ostringstream os;
  obs::write_chrome_trace(os, {t, u});
  const std::string json = os.str();

  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  // One thread-name metadata event per request, labelled verb + id.
  EXPECT_NE(json.find("\"SEARCH " + obs::trace_id_hex(t.trace_id) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"SCAN " + obs::trace_id_hex(u.trace_id) + "\""),
            std::string::npos);
  // Complete spans for every nonzero phase, stage shares included.
  for (const char* name : {"queue", "coalesce", "sweep", "msv", "vit",
                           "serialize"}) {
    EXPECT_NE(json.find("\"name\": \"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"batch_size\": 3"), std::string::npos);
  // Request t emits 6 spans (4 phases + 2 stage shares); u omits its
  // zero-length queue span: 5.  Count the "X" events.
  std::size_t x_events = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\": \"X\"", pos)) != std::string::npos; ++pos)
    ++x_events;
  EXPECT_EQ(x_events, 11u);

  // A SCAN that yielded: 4 ms of sweeping spread over a 10 ms span.  The
  // sweep is drawn over the whole span from its real start (after queue
  // and coalesce), carries its active time in args, and serialize ends
  // the request instead of following the active time.
  obs::RequestTrace y;
  y.trace_id = obs::next_trace_id();
  y.verb = "SCAN";
  y.start_ns = 1500000;
  y.queue_seconds = 0.001;
  y.sweep_seconds = 0.004;
  y.sweep_span_seconds = 0.010;
  y.serialize_seconds = 0.0005;
  y.total_seconds = 0.0115;
  y.stage_seconds[static_cast<int>(obs::Stage::kMsv)] = 0.004;
  std::ostringstream ys;
  obs::write_chrome_trace(ys, {y});
  const std::string yj = ys.str();
  EXPECT_NE(yj.find("\"name\": \"sweep\", \"ph\": \"X\", \"cat\": "
                    "\"request\", \"pid\": 1, \"tid\": 0, \"ts\": 2500, "
                    "\"dur\": 10000"),
            std::string::npos)
      << yj;
  EXPECT_NE(yj.find("\"sweep_seconds\": 0.004}"), std::string::npos) << yj;
  EXPECT_NE(yj.find("\"name\": \"msv\", \"ph\": \"X\", \"cat\": "
                    "\"request\", \"pid\": 1, \"tid\": 0, \"ts\": 2500, "
                    "\"dur\": 4000"),
            std::string::npos)
      << yj;
  EXPECT_NE(yj.find("\"name\": \"serialize\", \"ph\": \"X\", \"cat\": "
                    "\"request\", \"pid\": 1, \"tid\": 0, \"ts\": 12500, "
                    "\"dur\": 500"),
            std::string::npos)
      << yj;

  // The STATS-verb JSON rendering of the same trace carries the stage
  // breakdown under schema-stable keys.
  std::ostringstream ts;
  obs::write_trace_json(ts, t);
  const std::string tj = ts.str();
  EXPECT_NE(tj.find("\"trace_id\": \"" + obs::trace_id_hex(t.trace_id)),
            std::string::npos);
  EXPECT_NE(tj.find("\"stage_seconds\": {"), std::string::npos);
  EXPECT_NE(tj.find("\"msv\": 0.004"), std::string::npos);
  EXPECT_NE(tj.find("\"total_seconds\": 0.0135"), std::string::npos);
}

// ------------------------------------------------------ HTTP endpoint

/// One GET over the in-process loopback, served by the same
/// http_serve_connection the TCP endpoint thread uses.
std::string http_get(SearchServer& srv, const std::string& target) {
  LoopbackHub hub;
  auto listener = hub.listener();
  std::thread server([&] {
    std::unique_ptr<Connection> conn = listener->accept();
    if (conn)
      http_serve_connection(
          *conn, [&srv](const std::string& p) { return srv.handle_http(p); });
  });
  std::unique_ptr<Connection> client = hub.connect();
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
  EXPECT_TRUE(client->send_all(req.data(), req.size()));
  std::string resp;
  char buf[1024];
  for (;;) {
    const std::size_t n = client->recv_some(buf, sizeof buf);
    if (n == 0) break;
    resp.append(buf, n);
  }
  server.join();
  return resp;
}

TEST(HttpEndpoint, MetricsHealthzAndStatuszRoutes) {
  ServerFixture fx;
  fx.start();
  const stats::ModelStats cal = fx.calibration();
  BlockingClient client = fx.connect();
  const RemoteResult rr = client.search(0, fx.model, &cal);
  ASSERT_EQ(rr.status, ClientStatus::kOk);
  // Histograms record before the ring push; waiting on the ring
  // guarantees both surfaces have seen the request.
  ASSERT_TRUE(eventually([&] { return !fx.srv->recent_traces().empty(); }));
  EXPECT_GE(fx.srv->latency_histogram().count(), 1u);

  const std::string metrics = http_get(*fx.srv, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  // The server families, each declared before its samples.
  for (const char* family :
       {"finehmm_up", "finehmm_uptime_seconds", "finehmm_queue_depth",
        "finehmm_server_events_total", "finehmm_request_latency_seconds",
        "finehmm_queue_wait_seconds", "finehmm_sweep_seconds"}) {
    EXPECT_NE(metrics.find("# TYPE " + std::string(family) + " "),
              std::string::npos)
        << family;
  }
  EXPECT_NE(metrics.find("finehmm_up 1"), std::string::npos);
  EXPECT_NE(metrics.find(
                "finehmm_server_events_total{event=\"requests_completed\"} "
                "1"),
            std::string::npos);
  EXPECT_NE(metrics.find(
                "finehmm_request_latency_seconds{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(metrics.find("finehmm_request_latency_seconds_count 1"),
            std::string::npos);

  // /metrics and STATS agree on every series (p99 included) by
  // construction: Daemons/FrontendConformance checks each one.

  // /healthz says ok while serving, /statusz is the human surface.
  const std::string health = http_get(*fx.srv, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string statusz = http_get(*fx.srv, "/statusz");
  EXPECT_NE(statusz.find("finehmmd status"), std::string::npos);
  EXPECT_NE(statusz.find("latency e2e (ms):"), std::string::npos);
  EXPECT_NE(statusz.find(obs::trace_id_hex(rr.result.trace_id)),
            std::string::npos);

  const std::string missing = http_get(*fx.srv, "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  // Query strings are stripped; non-GET methods are refused politely.
  const std::string with_query = http_get(*fx.srv, "/healthz?verbose=1");
  EXPECT_NE(with_query.find("HTTP/1.1 200 OK"), std::string::npos);
}

TEST(HttpEndpoint, HealthzFlipsTo503WhenDraining) {
  ServerFixture fx;
  fx.start();
  EXPECT_NE(http_get(*fx.srv, "/healthz").find("200 OK"),
            std::string::npos);
  fx.srv->begin_drain();
  const std::string resp = http_get(*fx.srv, "/healthz");
  EXPECT_NE(resp.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(resp.find("draining"), std::string::npos);
  EXPECT_NE(http_get(*fx.srv, "/metrics").find("finehmm_up 0"),
            std::string::npos);
  fx.stop();
}

TEST(HttpEndpoint, EndpointThreadServesAndStopsCleanly) {
  // The real HttpEndpoint wrapper: accept loop on its own thread over a
  // loopback listener, stopped by close() + join, exactly as finehmmd
  // drives it over TCP.
  ServerFixture fx;
  fx.start();
  LoopbackHub http_hub;
  SearchServer& srv = *fx.srv;
  HttpEndpoint endpoint(
      http_hub.listener(),
      [&srv](const std::string& p) { return srv.handle_http(p); });

  for (int i = 0; i < 3; ++i) {
    std::unique_ptr<Connection> conn = http_hub.connect();
    const std::string req = "GET /healthz HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(conn->send_all(req.data(), req.size()));
    std::string resp;
    char buf[512];
    for (;;) {
      const std::size_t n = conn->recv_some(buf, sizeof buf);
      if (n == 0) break;
      resp.append(buf, n);
    }
    EXPECT_NE(resp.find("200 OK"), std::string::npos) << i;
  }
  endpoint.stop();  // idempotent; the destructor would also do this
}

// -------------------------------------------------------- SCAN verb

/// A small pressed library with stored calibration, written to a temp
/// file so add_model_library pays no calibration at load.
std::string write_scan_library(std::vector<hmm::Plan7Hmm>& models_out,
                               int n_models) {
  std::vector<hmm::ModelEntry> entries;
  for (int i = 0; i < n_models; ++i) {
    hmm::RandomHmmSpec spec;
    spec.length = 40 + 17 * i;
    spec.seed = 900 + static_cast<std::uint64_t>(i);
    hmm::ModelEntry e;
    e.model = hmm::generate_hmm(spec);
    e.model.set_name("SCAN" + std::to_string(i));
    e.model_stats = pipeline::HmmSearch(e.model).model_stats();
    models_out.push_back(e.model);
    entries.push_back(std::move(e));
  }
  // Per process: ctest runs the SCAN tests concurrently, and each
  // removes the file once loaded.
  const std::string path = "/tmp/finehmm_test_server_scanlib." +
                           std::to_string(::getpid()) + ".fhpdb";
  hmm::write_model_db_file(path, entries);
  return path;
}

TEST(SearchServer, ScanVerbMatchesPerModelSearchesBitForBit) {
  ServerFixture fx;
  std::vector<hmm::Plan7Hmm> models;
  const std::string lib = write_scan_library(models, 5);
  EXPECT_EQ(fx.srv->add_model_library(lib), 5u);
  std::remove(lib.c_str());
  fx.start();

  BlockingClient client = fx.connect();
  const RemoteScanResult rr = client.scan(0);
  ASSERT_EQ(rr.status, ClientStatus::kOk);
  EXPECT_EQ(rr.result.db_sequences, fx.db.size());
  ASSERT_EQ(rr.result.models.size(), models.size());
  EXPECT_GE(rr.result.fuse_groups, 1u);
  EXPECT_EQ(rr.result.fused_models, models.size());
  EXPECT_GT(rr.result.lane_occupancy, 0.0);
  EXPECT_LE(rr.result.lane_occupancy, 1.0);

  // Ground truth: one local run_cpu per model with the library's stats.
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto& mh = rr.result.models[m];
    EXPECT_EQ(mh.model_name, models[m].name());
    const pipeline::HmmSearch local(
        models[m], pipeline::HmmSearch(models[m]).model_stats());
    const pipeline::SearchResult ref = local.run_cpu(fx.db);
    ASSERT_EQ(mh.hits.size(), ref.hits.size()) << "model=" << m;
    for (std::size_t i = 0; i < ref.hits.size(); ++i) {
      EXPECT_EQ(mh.hits[i].seq_index, ref.hits[i].seq_index);
      EXPECT_EQ(mh.hits[i].name, ref.hits[i].name);
      EXPECT_EQ(mh.hits[i].msv_bits, ref.hits[i].msv_bits);
      EXPECT_EQ(mh.hits[i].vit_bits, ref.hits[i].vit_bits);
      EXPECT_EQ(mh.hits[i].fwd_bits, ref.hits[i].fwd_bits);
      EXPECT_EQ(mh.hits[i].pvalue, ref.hits[i].pvalue);
      EXPECT_EQ(mh.hits[i].evalue, ref.hits[i].evalue);
    }
  }

  // A tighter request threshold prunes each model's hit list to the
  // E-value-sorted prefix.
  const RemoteScanResult tight = client.scan(0, 1e-3);
  ASSERT_EQ(tight.status, ClientStatus::kOk);
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto& all = rr.result.models[m].hits;
    const auto& few = tight.result.models[m].hits;
    EXPECT_LE(few.size(), all.size());
    for (std::size_t i = 0; i < few.size(); ++i) {
      EXPECT_LE(few[i].evalue, 1e-3);
      EXPECT_EQ(few[i].seq_index, all[i].seq_index);
    }
  }

  // The STATS verb exposes the scan counters and (via the embedded
  // telemetry) the fuse.* lane-occupancy counters.
  const std::optional<std::string> json = client.stats_json();
  ASSERT_TRUE(json.has_value());
  EXPECT_NE(json->find("\"scan_requests\": 2"), std::string::npos);
  EXPECT_NE(json->find("\"scan_sweeps\": 2"), std::string::npos);
  EXPECT_NE(json->find("fuse.lane_occupancy"), std::string::npos);
  EXPECT_NE(json->find("fuse.models_per_group"), std::string::npos);
}

TEST(SearchServer, ScanWithoutLibraryOrDatabaseIsAnError) {
  ServerFixture fx;
  fx.start();
  BlockingClient client = fx.connect();

  // No library loaded: nothing to score.
  const RemoteScanResult none = client.scan(0);
  ASSERT_EQ(none.status, ClientStatus::kError);
  EXPECT_EQ(none.error.code, ErrorCode::kUnknownModel);

  // Unknown database id.
  const RemoteScanResult bad_db = client.scan(7);
  ASSERT_EQ(bad_db.status, ClientStatus::kError);
  EXPECT_EQ(bad_db.error.code, ErrorCode::kUnknownDatabase);
}

// ------------------------------------------------- SCAN yields

/// Server replies pass a gate the test shuts and opens: a shut gate
/// parks the scheduler inside its next reply write, a point the test can
/// see (waiting()) and act at before letting it go.
class ReplyGate {
 public:
  void set_open(bool open) {
    {
      MutexLock lock(mu_);
      open_ = open;
    }
    cv_.notify_all();
  }
  std::size_t waiting() const {
    MutexLock lock(mu_);
    return waiting_;
  }
  void pass() {
    MutexLock lock(mu_);
    ++waiting_;
    while (!open_) cv_.wait(mu_);
    --waiting_;
  }

 private:
  mutable Mutex mu_;
  bool open_ FINEHMM_GUARDED_BY(mu_) = true;
  std::size_t waiting_ FINEHMM_GUARDED_BY(mu_) = 0;
  CondVar cv_;
};

class GatedListener final : public Listener {
 public:
  GatedListener(std::unique_ptr<Listener> inner, ReplyGate& gate)
      : inner_(std::move(inner)), gate_(gate) {}
  std::unique_ptr<Connection> accept() override {
    std::unique_ptr<Connection> conn = inner_->accept();
    if (!conn) return nullptr;
    return std::make_unique<Gated>(std::move(conn), gate_);
  }
  void close() override { inner_->close(); }

 private:
  class Gated final : public Connection {
   public:
    Gated(std::unique_ptr<Connection> inner, ReplyGate& gate)
        : inner_(std::move(inner)), gate_(gate) {}
    bool send_all(const void* data, std::size_t n) override {
      gate_.pass();
      return inner_->send_all(data, n);
    }
    std::size_t recv_some(void* buf, std::size_t n) override {
      return inner_->recv_some(buf, n);
    }
    void shutdown() override { inner_->shutdown(); }

   private:
    std::unique_ptr<Connection> inner_;
    ReplyGate& gate_;
  };

  std::unique_ptr<Listener> inner_;
  ReplyGate& gate_;
};

/// A SCAN held mid-sweep.  SCAN `a` and SEARCHes `x1`, `x2` are staged
/// behind a paused scheduler with max_batch 1, so the SCAN starts alone
/// and yields to x1 at its first chunk boundary.  The reply gate parks
/// the scheduler in x1's reply; the test pauses it there and opens the
/// gate, so the SCAN is held before its resume with x2 still queued.
/// It cannot finish before yielding to x2 and to anything queued later:
/// an advance fetches at most one 16-sequence chunk per worker, and the
/// database holds 25 chunks.
struct HeldScan {
  static ServerConfig config() {
    ServerConfig cfg;
    cfg.start_paused = true;
    cfg.max_batch = 1;
    return cfg;
  }

  ReplyGate gate;
  ServerFixture fx{config(), /*M=*/48, /*n=*/400};
  std::vector<hmm::Plan7Hmm> models;
  stats::ModelStats cal;
  RemoteScanResult a;
  RemoteResult x1, x2;
  std::vector<std::thread> clients;
  bool staged = false;

  HeldScan() {
    const std::string lib = write_scan_library(models, 4);
    EXPECT_EQ(fx.srv->add_model_library(lib), 4u);
    std::remove(lib.c_str());
    fx.listener = std::make_unique<GatedListener>(fx.hub.listener(), gate);
    fx.serve_thread = std::thread([this] { fx.srv->serve(*fx.listener); });
    cal = fx.calibration();
    send([this] { a = fx.connect().scan(0); });
    send([this] { x1 = fx.connect().search(0, fx.model, &cal); });
    send([this] { x2 = fx.connect().search(0, fx.model, &cal); });
    gate.set_open(false);
    fx.srv->set_paused(false);
    staged = eventually([&] { return gate.waiting() == 1; });
    fx.srv->set_paused(true);
    gate.set_open(true);
    const ServerStats st = fx.srv->stats();
    staged = staged && st.requests_completed == 1 && st.scan_yields == 1 &&
             st.scan_sweeps == 0;
  }

  ~HeldScan() {
    gate.set_open(true);
    fx.stop();  // releases a pause, so every client gets its answer
    join();
  }

  /// Start a client request and wait until the server has admitted it,
  /// so requests queue in the order they are sent.
  void send(std::function<void()> request) {
    const std::uint64_t admitted = fx.srv->stats().requests_admitted;
    clients.emplace_back(std::move(request));
    EXPECT_TRUE(eventually([&] {
      return fx.srv->stats().requests_admitted == admitted + 1;
    }));
  }

  void join() {
    for (std::thread& t : clients)
      if (t.joinable()) t.join();
  }

  /// The SCAN's hits, bit-identical to one local run_cpu per model.
  void expect_scan_matches_local() const {
    ASSERT_EQ(a.status, ClientStatus::kOk);
    ASSERT_EQ(a.result.models.size(), models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
      const pipeline::HmmSearch local(
          models[m], pipeline::HmmSearch(models[m]).model_stats());
      const pipeline::SearchResult ref = local.run_cpu(fx.db);
      const auto& hits = a.result.models[m].hits;
      ASSERT_EQ(hits.size(), ref.hits.size()) << "model=" << m;
      for (std::size_t i = 0; i < ref.hits.size(); ++i) {
        EXPECT_EQ(hits[i].seq_index, ref.hits[i].seq_index);
        EXPECT_EQ(hits[i].fwd_bits, ref.hits[i].fwd_bits);
        EXPECT_EQ(hits[i].evalue, ref.hits[i].evalue);
      }
    }
  }
};

TEST(SearchServerScanYield, SearchAdmittedMidScanIsAnsweredFirst) {
  HeldScan h;
  ASSERT_TRUE(h.staged);
  RemoteResult y;
  h.send([&] { y = h.fx.connect().search(0, h.fx.model, &h.cal); });
  h.fx.srv->set_paused(false);
  h.join();

  const pipeline::SearchResult ref = h.fx.local_reference();
  expect_remote_matches_local(h.x1, ref, h.fx.db);
  expect_remote_matches_local(h.x2, ref, h.fx.db);
  expect_remote_matches_local(y, ref, h.fx.db);
  h.expect_scan_matches_local();

  // Replies complete in trace-ring order: y's before the SCAN's.
  std::size_t y_at = 0, scan_at = 0, seen = 0;
  const std::vector<obs::RequestTrace> traces = h.fx.srv->recent_traces();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (traces[i].trace_id == y.result.trace_id) y_at = i, ++seen;
    if (std::string(traces[i].verb) == "SCAN") scan_at = i, ++seen;
  }
  ASSERT_EQ(seen, 2u);
  EXPECT_LT(y_at, scan_at);
  const ServerStats st = h.fx.srv->stats();
  EXPECT_GE(st.scan_yields, 3u);  // to x1, x2 and y
  EXPECT_EQ(st.scan_sweeps, 1u);
  EXPECT_EQ(st.db_sweeps, 3u);
}

TEST(SearchServerScanYield, SearchWhoseDeadlinePassesMidScanIsExpired) {
  HeldScan h;
  ASSERT_TRUE(h.staged);
  RemoteResult y;
  h.send([&] {
    y = h.fx.connect().search(0, h.fx.model, &h.cal, 10.0,
                              /*deadline_ms=*/1);
  });
  // Let the 1 ms deadline lapse while the SCAN is held mid-sweep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  h.fx.srv->set_paused(false);
  h.join();

  ASSERT_EQ(y.status, ClientStatus::kError);
  EXPECT_EQ(y.error.code, ErrorCode::kDeadlineExpired);
  EXPECT_EQ(h.x2.status, ClientStatus::kOk);
  h.expect_scan_matches_local();
  const ServerStats st = h.fx.srv->stats();
  EXPECT_EQ(st.requests_deadline_expired, 1u);
  EXPECT_EQ(st.requests_completed, 3u);
}

TEST(SearchServerScanYield, DrainWithYieldedScanAnswersEveryAdmittedRequest) {
  HeldScan h;
  ASSERT_TRUE(h.staged);
  // A second SCAN, popped at one of the held SCAN's yields and set aside.
  RemoteScanResult b;
  h.send([&] { b = h.fx.connect().scan(0); });
  h.fx.srv->begin_drain();  // releases the pause
  h.join();
  h.fx.serve_thread.join();  // serve() returns once drained

  EXPECT_EQ(h.x2.status, ClientStatus::kOk);
  h.expect_scan_matches_local();
  ASSERT_EQ(b.status, ClientStatus::kOk);
  ASSERT_EQ(b.result.models.size(), h.a.result.models.size());
  for (std::size_t m = 0; m < b.result.models.size(); ++m)
    EXPECT_EQ(b.result.models[m].hits.size(),
              h.a.result.models[m].hits.size());
  const ServerStats st = h.fx.srv->stats();
  EXPECT_EQ(st.requests_admitted, 4u);
  EXPECT_EQ(st.requests_completed, 4u);
  EXPECT_EQ(st.scan_sweeps, 2u);
}

TEST(SearchServerScanYield, PauseHoldsAYieldedScan) {
  HeldScan h;
  ASSERT_TRUE(h.staged);
  // Held: neither x2 nor the SCAN completes while the pause lasts.
  EXPECT_FALSE(eventually(
      [&] { return h.fx.srv->stats().requests_completed > 1; }, 200));
  ServerStats st = h.fx.srv->stats();
  EXPECT_EQ(st.requests_completed, 1u);
  EXPECT_EQ(st.scan_sweeps, 0u);
  EXPECT_EQ(st.scan_yields, 1u);

  h.fx.srv->set_paused(false);
  h.join();
  EXPECT_EQ(h.x2.status, ClientStatus::kOk);
  h.expect_scan_matches_local();
  st = h.fx.srv->stats();
  EXPECT_EQ(st.requests_completed, 3u);
  EXPECT_EQ(st.scan_sweeps, 1u);
  EXPECT_GE(st.scan_yields, 2u);

  // The counter is exported through STATS and /metrics.
  EXPECT_NE(h.fx.srv->stats_json().find("\"scan_yields\": " +
                                        std::to_string(st.scan_yields)),
            std::string::npos);
  EXPECT_NE(h.fx.srv->metrics_text().find(
                "finehmm_server_events_total{event=\"scan_yields\"} " +
                std::to_string(st.scan_yields)),
            std::string::npos);
}

TEST(ServerProtocol, ScanRequestAndResultRoundTrip) {
  ScanRequest req;
  req.db_id = 3;
  req.evalue = 0.125;
  req.deadline_ms = 900;
  const ScanRequest back = decode_scan_request(encode_scan_request(req));
  EXPECT_EQ(back.db_id, req.db_id);
  EXPECT_EQ(back.evalue, req.evalue);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);

  ScanResultWire res;
  res.trace_id = 0x0123456789abcdefull;
  res.db_sequences = 11;
  res.db_residues = 4242;
  res.fuse_groups = 2;
  res.fused_models = 9;
  res.lane_occupancy = 0.875;
  ScanModelHits mh;
  mh.model_name = "PF0001";
  pipeline::Hit h;
  h.seq_index = 5;
  h.name = "seq5";
  h.msv_bits = 12.5f;
  h.vit_bits = 11.25f;
  h.fwd_bits = 13.75f;
  h.bias_bits = 0.5f;
  h.pvalue = 1e-7;
  h.evalue = 1e-4;
  mh.hits.push_back(h);
  res.models.push_back(mh);
  res.models.push_back(ScanModelHits{"PF0002", {}});

  const ScanResultWire out = decode_scan_result(encode_scan_result(res));
  EXPECT_EQ(out.trace_id, res.trace_id);
  EXPECT_EQ(out.db_sequences, res.db_sequences);
  EXPECT_EQ(out.db_residues, res.db_residues);
  EXPECT_EQ(out.fuse_groups, res.fuse_groups);
  EXPECT_EQ(out.fused_models, res.fused_models);
  EXPECT_EQ(out.lane_occupancy, res.lane_occupancy);
  ASSERT_EQ(out.models.size(), 2u);
  EXPECT_EQ(out.models[0].model_name, "PF0001");
  ASSERT_EQ(out.models[0].hits.size(), 1u);
  EXPECT_EQ(out.models[0].hits[0].seq_index, h.seq_index);
  EXPECT_EQ(out.models[0].hits[0].name, h.name);
  EXPECT_EQ(out.models[0].hits[0].fwd_bits, h.fwd_bits);
  EXPECT_EQ(out.models[0].hits[0].evalue, h.evalue);
  EXPECT_TRUE(out.models[1].hits.empty());

  // Truncation must raise, not overrun.
  auto bytes = encode_scan_result(res);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(decode_scan_result(bytes), ProtocolError);
}

// ------------------------------------------- multi-client stress (tsan)

// Written for the tsan preset: searches, pings, STATS, disconnects and
// malformed bytes all interleave across threads against one server.
// Plain builds get the functional half: every search bit-identical.
TEST(SearchServerStress, InterleavedClientsStayConsistent) {
  ServerFixture fx(ServerConfig{}, /*M=*/40, /*n=*/80);
  fx.start();
  const pipeline::SearchResult ref = fx.local_reference();
  const stats::ModelStats cal = fx.calibration();

  constexpr std::size_t kSearchers = 4;
  constexpr std::size_t kRounds = 3;
  std::vector<std::thread> crew;
  std::vector<int> ok_counts(kSearchers, 0);
  for (std::size_t c = 0; c < kSearchers; ++c) {
    crew.emplace_back([&, c] {
      BlockingClient client = fx.connect();
      for (std::size_t r = 0; r < kRounds; ++r) {
        const RemoteResult rr = client.search(0, fx.model, &cal);
        if (rr.status != ClientStatus::kOk) return;
        if (rr.result.hits.size() != ref.hits.size()) return;
        bool same = true;
        for (std::size_t i = 0; i < ref.hits.size(); ++i)
          same = same && rr.result.hits[i].fwd_bits == ref.hits[i].fwd_bits &&
                 rr.result.hits[i].evalue == ref.hits[i].evalue;
        if (!same) return;
        ++ok_counts[c];
      }
    });
  }
  crew.emplace_back([&] {  // health prober
    BlockingClient client = fx.connect();
    for (int i = 0; i < 6; ++i) {
      if (!client.ping()) return;
      client.stats_json();
    }
  });
  crew.emplace_back([&] {  // rude peer: malformed bytes mid-stress
    auto conn = fx.hub.connect();
    if (!conn) return;
    const std::uint8_t junk[12] = {0xEE};
    conn->send_all(junk, sizeof junk);
  });
  for (std::thread& t : crew) t.join();

  for (std::size_t c = 0; c < kSearchers; ++c)
    EXPECT_EQ(ok_counts[c], static_cast<int>(kRounds)) << "client " << c;
  const ServerStats st = fx.srv->stats();
  EXPECT_EQ(st.requests_completed, kSearchers * kRounds);
  EXPECT_EQ(st.requests_failed, 0u);

  fx.stop();
  // Post-drain the accounting must balance: everything admitted was
  // either completed (a dropped response still counts its request as
  // completed), shed on deadline, or failed — never lost.
  const ServerStats fin = fx.srv->stats();
  EXPECT_EQ(fin.requests_admitted,
            fin.requests_completed + fin.requests_deadline_expired +
                fin.requests_failed);
}

}  // namespace
