// Sharded-cluster tests: shard planning, manifests, the z_override
// bit-identity contract, the scatter-gather merge, and ClusterClient /
// ClusterCoordinator failure semantics over in-process loopback shards
// (docs/cluster.md).
//
// The load-bearing claims proven here:
//   (a) shard workers scoring with z_override = cluster-total Z produce
//       E-values BITWISE equal to the unsharded scan (operator==, no
//       tolerance);
//   (b) the coordinator's merged result — hits, order, E-values, stage
//       counters — is bit-identical to a single unsharded daemon's;
//   (c) shard death mid-sweep degrades the merge (flagged) instead of
//       failing it, and the shard recovers on the next request;
//   (d) one slow shard cannot hold a request past its deadline;
//   (e) all shards overloaded => the coordinator sheds the request.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bio/sequence.hpp"
#include "cluster/cluster_client.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/merge.hpp"
#include "cluster/shard_map.hpp"
#include "hmm/binary_io.hpp"
#include "hmm/generator.hpp"
#include "hmm/model_db.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/workload.hpp"
#include "server/client.hpp"
#include "server/loopback.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "stats/distributions.hpp"

namespace {

using namespace finehmm;
using namespace finehmm::cluster;
using server::BlockingClient;
using server::ClientStatus;
using server::decode_scan_request;
using server::decode_scan_result;
using server::decode_search_request;
using server::decode_search_result;
using server::encode_scan_request;
using server::encode_scan_result;
using server::encode_search_request;
using server::encode_search_result;
using server::LoopbackHub;
using server::SearchServer;
using server::ServerConfig;

// ----------------------------------------------------- shard planning

TEST(ShardMap, PlanTilesTheDatabaseAndBalancesResidues) {
  std::vector<std::uint32_t> lengths;
  for (std::size_t i = 0; i < 100; ++i)
    lengths.push_back(static_cast<std::uint32_t>(20 + (i * 37) % 400));
  std::uint64_t total = 0;
  for (std::uint32_t l : lengths) total += l;

  for (std::size_t n : {1u, 2u, 3u, 4u, 7u}) {
    const auto ranges = plan_shard_ranges(lengths, n);
    ASSERT_EQ(ranges.size(), n);
    std::size_t expect_begin = 0;
    std::uint64_t max_share = 0;
    for (const auto& [begin, end] : ranges) {
      EXPECT_EQ(begin, expect_begin);
      EXPECT_GT(end, begin) << "every shard must be non-empty";
      std::uint64_t share = 0;
      for (std::size_t i = begin; i < end; ++i) share += lengths[i];
      max_share = std::max(max_share, share);
      expect_begin = end;
    }
    EXPECT_EQ(expect_begin, lengths.size());
    // Balanced within one sequence of the ideal share: the cut overshoots
    // its target by at most the last sequence added.
    EXPECT_LE(max_share, total / n + 400 + 1) << n;
  }
}

TEST(ShardMap, PlanRejectsMoreShardsThanSequences) {
  EXPECT_THROW(plan_shard_ranges({10, 20}, 3), Error);
  EXPECT_THROW(plan_shard_ranges({}, 1), Error);
}

TEST(ShardMap, LengthBucketEdges) {
  EXPECT_EQ(length_bucket(0), 0u);
  EXPECT_EQ(length_bucket(64), 0u);
  EXPECT_EQ(length_bucket(65), 1u);
  EXPECT_EQ(length_bucket(4096), kLengthBuckets - 2);
  EXPECT_EQ(length_bucket(4097), kLengthBuckets - 1);
  EXPECT_EQ(length_bucket(1u << 20), kLengthBuckets - 1);
}

// --------------------------------------------------------- manifests

ShardManifest small_manifest() {
  ShardManifest m;
  m.source = "db.fsqdb";
  m.total_sequences = 5;
  m.total_residues = 500;
  ShardInfo a;
  a.path = "shard.0.fsqdb";
  a.seq_base = 0;
  a.sequences = 3;
  a.residues = 290;
  a.length_buckets.assign(kLengthBuckets, 0);
  a.length_buckets[1] = 3;
  ShardInfo b;
  b.path = "shard.1.fsqdb";
  b.seq_base = 3;
  b.sequences = 2;
  b.residues = 210;
  b.length_buckets.assign(kLengthBuckets, 0);
  b.length_buckets[2] = 2;
  m.shards = {a, b};
  return m;
}

TEST(ShardManifestIo, RoundTrip) {
  const ShardManifest m = small_manifest();
  const ShardManifest back = parse_manifest(write_manifest(m));
  EXPECT_EQ(back.source, m.source);
  EXPECT_EQ(back.total_sequences, m.total_sequences);
  EXPECT_EQ(back.total_residues, m.total_residues);
  ASSERT_EQ(back.shards.size(), m.shards.size());
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    EXPECT_EQ(back.shards[i].path, m.shards[i].path);
    EXPECT_EQ(back.shards[i].seq_base, m.shards[i].seq_base);
    EXPECT_EQ(back.shards[i].sequences, m.shards[i].sequences);
    EXPECT_EQ(back.shards[i].residues, m.shards[i].residues);
    EXPECT_EQ(back.shards[i].length_buckets, m.shards[i].length_buckets);
  }
}

TEST(ShardManifestIo, RejectsMalformedManifests) {
  // Wrong schema tag.
  ShardManifest m = small_manifest();
  std::string json = write_manifest(m);
  std::string bad = json;
  bad.replace(bad.find("shard_manifest.v1"), 17, "shard_manifest.v9");
  EXPECT_THROW(parse_manifest(bad), Error);

  // Shard ranges that do not tile [0, total).
  m = small_manifest();
  m.shards[1].seq_base = 4;
  EXPECT_THROW(parse_manifest(write_manifest(m)), Error);

  // Totals that do not add up.
  m = small_manifest();
  m.total_residues = 999;
  EXPECT_THROW(parse_manifest(write_manifest(m)), Error);

  // Trailing bytes, truncation, floats: the parser trusts nothing.
  EXPECT_THROW(parse_manifest(json + "x"), Error);
  EXPECT_THROW(parse_manifest(json.substr(0, json.size() / 2)), Error);
  EXPECT_THROW(parse_manifest("{\"schema\": 1.5}"), Error);
  EXPECT_THROW(parse_manifest(""), Error);
}

// ------------------------------------------------ protocol extensions

TEST(ClusterProtocol, PingInfoRoundTripAndLegacyDetection) {
  server::PingInfo info;
  info.role = server::NodeRole::kShard;
  info.shard_id = 7;
  const server::PingInfo back = server::decode_ping(server::encode_ping(info));
  EXPECT_EQ(back.wire_revision, server::kWireRevision);
  EXPECT_EQ(back.role, server::NodeRole::kShard);
  EXPECT_EQ(back.shard_id, 7u);

  // The pre-cluster protocol pinged with an empty payload: that decodes
  // as a legacy revision-1 standalone peer, never as a parse error.
  const server::PingInfo legacy = server::decode_ping({});
  EXPECT_EQ(legacy.wire_revision, 1u);
  EXPECT_EQ(legacy.role, server::NodeRole::kStandalone);

  // Bounds and validity: truncated payloads and unknown roles reject.
  std::vector<std::uint8_t> bytes = server::encode_ping(info);
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> head(bytes.begin(), bytes.begin() + cut);
    EXPECT_THROW(server::decode_ping(head), server::ProtocolError) << cut;
  }
  bytes[2] = 0x7F;  // role byte: no such NodeRole
  EXPECT_THROW(server::decode_ping(bytes), server::ProtocolError);
}

TEST(ClusterProtocol, ZOverrideRoundTripsAndZeroLeavesBytesLegacy) {
  server::SearchRequest req;
  req.db_id = 3;
  req.evalue = 0.5;
  req.deadline_ms = 250;
  req.model_name = "m";
  req.model_kind = server::ModelRefKind::kPressed;

  const std::vector<std::uint8_t> legacy = encode_search_request(req);
  req.z_override = 123456789ull;
  const std::vector<std::uint8_t> with_z = encode_search_request(req);
  // The override costs exactly its 8 bytes (the flags byte was always
  // there); a zero override re-encodes to the revision-1 byte stream.
  EXPECT_EQ(with_z.size(), legacy.size() + 8);
  const server::SearchRequest back = decode_search_request(with_z);
  EXPECT_EQ(back.z_override, 123456789ull);
  EXPECT_EQ(decode_search_request(legacy).z_override, 0u);

  // Truncating the optional tail must throw, never misparse.
  for (std::size_t cut = legacy.size(); cut < with_z.size(); ++cut) {
    const std::vector<std::uint8_t> head(with_z.begin(),
                                         with_z.begin() + cut);
    EXPECT_THROW(decode_search_request(head), server::ProtocolError) << cut;
  }

  server::ScanRequest scan;
  scan.db_id = 1;
  scan.z_override = 42;
  const server::ScanRequest scan_back =
      decode_scan_request(encode_scan_request(scan));
  EXPECT_EQ(scan_back.z_override, 42u);
}

TEST(ClusterProtocol, ResultFlagsRoundTripAndCleanResultsStayLegacy) {
  server::SearchResultWire res;
  res.db_sequences = 10;
  pipeline::Hit h;
  h.seq_index = 4;
  h.name = "s4";
  h.pvalue = 1e-6;
  h.evalue = 1e-5;
  res.hits.push_back(h);

  const std::vector<std::uint8_t> clean = encode_search_result(res);
  res.flags = server::kResultDegraded;
  const std::vector<std::uint8_t> flagged = encode_search_result(res);
  EXPECT_EQ(flagged.size(), clean.size() + 1);
  EXPECT_EQ(decode_search_result(clean).flags, 0);
  EXPECT_EQ(decode_search_result(flagged).flags, server::kResultDegraded);

  server::ScanResultWire sres;
  sres.flags = server::kResultDegraded;
  EXPECT_EQ(decode_scan_result(encode_scan_result(sres)).flags,
            server::kResultDegraded);
}

// --------------------------------------- z_override bitwise equality

struct ClusterWorkload {
  hmm::Plan7Hmm model;
  bio::SequenceDatabase db;

  explicit ClusterWorkload(int M = 48, std::size_t n = 120)
      : model(hmm::paper_model(M)) {
    pipeline::WorkloadSpec spec;
    spec.db.name = "clusterdb";
    spec.db.n_sequences = n;
    spec.db.log_length_mu = 4.4;
    spec.db.log_length_sigma = 0.4;
    spec.db.seed = 7;
    spec.homolog_fraction = 0.08;
    db = pipeline::make_workload(model, spec);
  }

  std::vector<std::uint32_t> lengths() const {
    std::vector<std::uint32_t> out;
    out.reserve(db.size());
    for (const bio::Sequence& s : db)
      out.push_back(static_cast<std::uint32_t>(s.length()));
    return out;
  }

  bio::SequenceDatabase slice(std::size_t begin, std::size_t end) const {
    bio::SequenceDatabase out;
    out.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) out.add(db[i]);
    return out;
  }

  pipeline::SearchResult reference(double evalue = 10.0) const {
    pipeline::Thresholds thr;
    thr.report_evalue = evalue;
    return pipeline::HmmSearch(model, thr).run_cpu(db);
  }

  ShardManifest manifest(
      const std::vector<std::pair<std::size_t, std::size_t>>& ranges) const {
    ShardManifest m;
    m.source = "clusterdb";
    m.total_sequences = db.size();
    m.total_residues = db.total_residues();
    for (const auto& [begin, end] : ranges) {
      ShardInfo info;
      info.path = "mem";
      info.seq_base = begin;
      info.sequences = end - begin;
      info.length_buckets.assign(kLengthBuckets, 0);
      for (std::size_t i = begin; i < end; ++i) {
        info.residues += db[i].length();
        ++info.length_buckets[length_bucket(db[i].length())];
      }
      m.shards.push_back(std::move(info));
    }
    return m;
  }
};

TEST(ZOverride, ShardScoresAreBitwiseEqualToUnshardedScan) {
  const ClusterWorkload w;
  const pipeline::SearchResult whole = w.reference();
  ASSERT_FALSE(whole.hits.empty()) << "vacuous workload";

  const auto ranges = plan_shard_ranges(w.lengths(), 2);
  std::vector<pipeline::Hit> merged;
  pipeline::Thresholds thr;
  thr.z_override = w.db.size();  // cluster-total Z
  const pipeline::HmmSearch search(w.model, thr);
  for (const auto& [begin, end] : ranges) {
    const bio::SequenceDatabase part = w.slice(begin, end);
    pipeline::SearchResult r = search.run_cpu(part);
    for (pipeline::Hit& h : r.hits) {
      h.seq_index += begin;
      merged.push_back(std::move(h));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const pipeline::Hit& a, const pipeline::Hit& b) {
              return a.evalue != b.evalue ? a.evalue < b.evalue
                                          : a.seq_index < b.seq_index;
            });

  ASSERT_EQ(merged.size(), whole.hits.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    // operator== throughout: the claim is bitwise, not approximate.
    EXPECT_EQ(merged[i].seq_index, whole.hits[i].seq_index) << i;
    EXPECT_EQ(merged[i].pvalue, whole.hits[i].pvalue) << i;
    EXPECT_EQ(merged[i].evalue, whole.hits[i].evalue) << i;
    EXPECT_EQ(merged[i].fwd_bits, whole.hits[i].fwd_bits) << i;
  }
}

TEST(ZOverride, EvalueOverloadIsTheSameSingleMultiply) {
  const double p = 3.7e-9;
  EXPECT_EQ(stats::evalue(p, 0, 123456), stats::evalue(p, 123456));
  EXPECT_EQ(stats::evalue(p, 999, 0), stats::evalue(p, 999));
}

// --------------------------------------------------------- pure merge

TEST(Merge, ReassemblesTheUnshardedResultBitForBit) {
  const ClusterWorkload w;
  const pipeline::SearchResult whole = w.reference();
  const auto ranges = plan_shard_ranges(w.lengths(), 3);
  const ShardManifest m = w.manifest(ranges);

  pipeline::Thresholds thr;
  thr.z_override = w.db.size();
  const pipeline::HmmSearch search(w.model, thr);
  std::vector<server::SearchResultWire> parts;
  std::vector<std::size_t> indices;
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    const pipeline::SearchResult r =
        search.run_cpu(w.slice(ranges[k].first, ranges[k].second));
    server::SearchResultWire wire;
    wire.ssv = r.ssv;
    wire.msv = r.msv;
    wire.vit = r.vit;
    wire.fwd = r.fwd;
    wire.bwd = r.bwd;
    wire.hits = r.hits;
    parts.push_back(std::move(wire));
    indices.push_back(k);
  }
  // Shuffle arrival order: the merge must not care.
  std::swap(parts[0], parts[2]);
  std::swap(indices[0], indices[2]);

  const server::SearchResultWire out =
      merge_search_results(parts, indices, m, 10.0);
  EXPECT_EQ(out.flags, 0);
  EXPECT_EQ(out.db_sequences, w.db.size());
  EXPECT_EQ(out.msv.n_in, whole.msv.n_in);
  EXPECT_EQ(out.msv.n_passed, whole.msv.n_passed);
  EXPECT_EQ(out.vit.n_passed, whole.vit.n_passed);
  EXPECT_EQ(out.fwd.n_passed, whole.fwd.n_passed);
  ASSERT_EQ(out.hits.size(), whole.hits.size());
  for (std::size_t i = 0; i < out.hits.size(); ++i) {
    EXPECT_EQ(out.hits[i].seq_index, whole.hits[i].seq_index) << i;
    EXPECT_EQ(out.hits[i].name, whole.hits[i].name) << i;
    EXPECT_EQ(out.hits[i].evalue, whole.hits[i].evalue) << i;
  }

  // A missing shard degrades the merge and flags it.
  const server::SearchResultWire partial = merge_search_results(
      {parts[0]}, {indices[0]}, m, 10.0);
  EXPECT_EQ(partial.flags, server::kResultDegraded);
  EXPECT_LE(partial.hits.size(), whole.hits.size());
}

// ----------------------------------------- loopback cluster fixture

/// N shard SearchServers, each owning its manifest range of the
/// workload over its own LoopbackHub, plus the ClusterClient wired to
/// them.  `connectable[i]` simulates shard death: when false, the
/// cluster's ConnectFn refuses that shard.
struct ClusterFixture {
  ClusterWorkload w;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ShardManifest m;
  std::vector<std::unique_ptr<SearchServer>> shards;
  std::vector<std::unique_ptr<LoopbackHub>> hubs;
  std::vector<std::unique_ptr<server::Listener>> listeners;
  std::vector<std::thread> serve_threads;
  std::shared_ptr<std::vector<bool>> connectable;
  std::unique_ptr<ClusterClient> cli;

  explicit ClusterFixture(std::size_t n_shards = 2, ServerConfig cfg = {},
                          const std::string& model_lib = {}) {
    ranges = plan_shard_ranges(w.lengths(), n_shards);
    m = w.manifest(ranges);
    cfg.scan_threads = 2;
    cfg.role = server::NodeRole::kShard;
    connectable = std::make_shared<std::vector<bool>>(n_shards, true);
    for (std::size_t k = 0; k < n_shards; ++k) {
      cfg.shard_id = static_cast<std::uint32_t>(k);
      auto srv = std::make_unique<SearchServer>(cfg);
      EXPECT_EQ(srv->add_database(w.slice(ranges[k].first, ranges[k].second)),
                0u);
      if (!model_lib.empty()) {
        EXPECT_GT(srv->add_model_library(model_lib), 0u);
      }
      auto hub = std::make_unique<LoopbackHub>();
      listeners.push_back(hub->listener());
      serve_threads.emplace_back(
          [s = srv.get(), l = listeners.back().get()] { s->serve(*l); });
      shards.push_back(std::move(srv));
      hubs.push_back(std::move(hub));
    }
    ClusterConfig ccfg;
    ccfg.manifest = m;
    ccfg.connect_retries = 1;
    ccfg.retry_backoff_ms = 1;
    ccfg.require_shard_role = true;
    cli = std::make_unique<ClusterClient>(
        ccfg, [this](std::size_t shard) -> std::unique_ptr<server::Connection> {
          if (!(*connectable)[shard]) return nullptr;
          return hubs[shard]->connect();
        });
  }

  ~ClusterFixture() {
    for (auto& s : shards) s->begin_drain();
    for (std::thread& t : serve_threads)
      if (t.joinable()) t.join();
  }

  server::SearchRequest search_request(double evalue = 10.0,
                                       std::uint32_t deadline_ms = 0) const {
    server::SearchRequest req;
    req.evalue = evalue;
    req.deadline_ms = deadline_ms;
    std::ostringstream blob;
    hmm::write_hmm_binary(blob, w.model, nullptr);
    const std::string bytes = blob.str();
    req.model_blob.assign(bytes.begin(), bytes.end());
    return req;
  }
};

void expect_cluster_matches_reference(const ClusterSearchResult& rr,
                                      const pipeline::SearchResult& ref,
                                      const ClusterWorkload& w) {
  ASSERT_EQ(rr.status, ClientStatus::kOk);
  EXPECT_FALSE(rr.degraded);
  EXPECT_EQ(rr.result.flags, 0);
  EXPECT_EQ(rr.result.db_sequences, w.db.size());
  EXPECT_EQ(rr.result.db_residues, w.db.total_residues());
  EXPECT_EQ(rr.result.msv.n_in, ref.msv.n_in);
  EXPECT_EQ(rr.result.msv.n_passed, ref.msv.n_passed);
  EXPECT_EQ(rr.result.vit.n_passed, ref.vit.n_passed);
  EXPECT_EQ(rr.result.fwd.n_passed, ref.fwd.n_passed);
  ASSERT_EQ(rr.result.hits.size(), ref.hits.size());
  for (std::size_t i = 0; i < ref.hits.size(); ++i) {
    const pipeline::Hit& a = ref.hits[i];
    const pipeline::Hit& b = rr.result.hits[i];
    EXPECT_EQ(a.seq_index, b.seq_index) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.msv_bits, b.msv_bits) << i;
    EXPECT_EQ(a.vit_bits, b.vit_bits) << i;
    EXPECT_EQ(a.fwd_bits, b.fwd_bits) << i;
    EXPECT_EQ(a.bias_bits, b.bias_bits) << i;
    EXPECT_EQ(a.pvalue, b.pvalue) << i;
    EXPECT_EQ(a.evalue, b.evalue) << i;
  }
}

// ------------------------------- (b) scatter-gather bit-identity

TEST(ClusterClientTest, MergedSearchBitIdenticalToUnshardedScan) {
  ClusterFixture fx(2);
  const pipeline::SearchResult ref = fx.w.reference();
  ASSERT_FALSE(ref.hits.empty()) << "vacuous workload";

  EXPECT_EQ(fx.cli->probe_all(), 2u);
  const ClusterSearchResult rr = fx.cli->search(fx.search_request());
  expect_cluster_matches_reference(rr, ref, fx.w);

  const ClusterStats st = fx.cli->stats();
  EXPECT_EQ(st.requests, 1u);
  EXPECT_EQ(st.merged_ok, 1u);
  ASSERT_EQ(st.shards.size(), 2u);
  for (const ShardCounters& sc : st.shards) {
    EXPECT_EQ(sc.ok, 1u);
    EXPECT_TRUE(sc.healthy);
  }
  // Per-shard latency + straggler histograms saw the request.
  EXPECT_EQ(fx.cli->shard_histogram(0).count(), 1u);
  EXPECT_EQ(fx.cli->shard_histogram(1).count(), 1u);
  EXPECT_EQ(fx.cli->straggler_histogram().count(), 1u);
}

TEST(ClusterClientTest, ThreeShardsAndTightThresholdStayBitIdentical) {
  ClusterFixture fx(3);
  const pipeline::SearchResult ref = fx.w.reference(1e-3);
  const ClusterSearchResult rr = fx.cli->search(fx.search_request(1e-3));
  expect_cluster_matches_reference(rr, ref, fx.w);
}

TEST(ClusterClientTest, MergedScanBitIdenticalToUnshardedScan) {
  // A small pressed library served by every shard.
  std::vector<hmm::ModelEntry> entries;
  for (int i = 0; i < 3; ++i) {
    hmm::RandomHmmSpec spec;
    spec.length = 36 + 13 * i;
    spec.seed = 700 + static_cast<std::uint64_t>(i);
    hmm::ModelEntry e;
    e.model = hmm::generate_hmm(spec);
    e.model.set_name("CLSCAN" + std::to_string(i));
    e.model_stats = pipeline::HmmSearch(e.model).model_stats();
    entries.push_back(std::move(e));
  }
  const std::string lib = "/tmp/finehmm_test_cluster_scanlib." +
                          std::to_string(::getpid()) + ".fhpdb";
  hmm::write_model_db_file(lib, entries);

  ClusterFixture fx(2, ServerConfig{}, lib);

  // The unsharded reference daemon: whole db, same library.
  ServerConfig ref_cfg;
  ref_cfg.scan_threads = 2;
  SearchServer ref_srv(ref_cfg);
  EXPECT_EQ(ref_srv.add_database(fx.w.db), 0u);
  EXPECT_GT(ref_srv.add_model_library(lib), 0u);
  std::remove(lib.c_str());
  LoopbackHub ref_hub;
  auto ref_listener = ref_hub.listener();
  std::thread ref_thread([&] { ref_srv.serve(*ref_listener); });
  BlockingClient ref_cli(ref_hub.connect());
  const server::RemoteScanResult ref = ref_cli.scan(0, 0.5);
  ref_srv.begin_drain();
  ref_thread.join();
  ASSERT_EQ(ref.status, ClientStatus::kOk);

  server::ScanRequest req;
  req.evalue = 0.5;
  const ClusterScanResult rr = fx.cli->scan(req);
  ASSERT_EQ(rr.status, ClientStatus::kOk);
  EXPECT_FALSE(rr.degraded);
  EXPECT_EQ(rr.result.db_sequences, ref.result.db_sequences);
  ASSERT_EQ(rr.result.models.size(), ref.result.models.size());
  bool any_hits = false;
  for (std::size_t mi = 0; mi < ref.result.models.size(); ++mi) {
    EXPECT_EQ(rr.result.models[mi].model_name,
              ref.result.models[mi].model_name);
    const auto& a = ref.result.models[mi].hits;
    const auto& b = rr.result.models[mi].hits;
    ASSERT_EQ(a.size(), b.size()) << mi;
    any_hits = any_hits || !a.empty();
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].seq_index, b[i].seq_index) << mi << ":" << i;
      EXPECT_EQ(a[i].pvalue, b[i].pvalue) << mi << ":" << i;
      EXPECT_EQ(a[i].evalue, b[i].evalue) << mi << ":" << i;
    }
  }
  EXPECT_TRUE(any_hits) << "scan produced no hits; bit-identity vacuous";
}

// ------------------------------------ (c) shard death => degraded

TEST(ClusterClientTest, ShardDeathDegradesTheMergeAndRecovers) {
  ClusterFixture fx(2);
  const pipeline::SearchResult ref = fx.w.reference();

  (*fx.connectable)[1] = false;  // shard 1 is unreachable
  const ClusterSearchResult rr = fx.cli->search(fx.search_request());
  ASSERT_EQ(rr.status, ClientStatus::kOk);
  EXPECT_TRUE(rr.degraded);
  EXPECT_EQ(rr.result.flags, server::kResultDegraded);
  EXPECT_EQ(rr.shards[1].state, ShardState::kDead);
  // The survivors' hits are still exact: every merged hit appears in the
  // unsharded reference with identical bits, only shard 1's are missing.
  const std::size_t cut = fx.ranges[0].second;
  std::size_t expected = 0;
  for (const pipeline::Hit& h : ref.hits) {
    if (h.seq_index < cut) ++expected;
  }
  EXPECT_EQ(rr.result.hits.size(), expected);
  for (const pipeline::Hit& h : rr.result.hits) EXPECT_LT(h.seq_index, cut);

  ClusterStats st = fx.cli->stats();
  EXPECT_EQ(st.degraded_results, 1u);
  EXPECT_FALSE(st.shards[1].healthy);
  EXPECT_EQ(st.shards[1].deaths, 1u);

  // Next request: the shard is back and the merge is whole again.
  (*fx.connectable)[1] = true;
  const ClusterSearchResult rr2 = fx.cli->search(fx.search_request());
  expect_cluster_matches_reference(rr2, ref, fx.w);
  st = fx.cli->stats();
  EXPECT_TRUE(st.shards[1].healthy);
}

TEST(ClusterClientTest, NoDegradedMeansShardDeathFailsTheRequest) {
  ClusterFixture fx(2);
  // Rebuild the client with allow_degraded = false over the same shards.
  ClusterConfig ccfg;
  ccfg.manifest = fx.m;
  ccfg.allow_degraded = false;
  ccfg.connect_retries = 0;
  auto connectable = fx.connectable;
  auto& hubs = fx.hubs;
  ClusterClient strict(
      ccfg, [&hubs, connectable](
                std::size_t shard) -> std::unique_ptr<server::Connection> {
        if (!(*connectable)[shard]) return nullptr;
        return hubs[shard]->connect();
      });
  (*fx.connectable)[0] = false;
  const ClusterSearchResult rr = strict.search(fx.search_request());
  EXPECT_EQ(rr.status, ClientStatus::kError);
  EXPECT_EQ(strict.stats().failures, 1u);
}

// ----------------------------------- (d) deadline beats a slow shard

TEST(ClusterClientTest, SlowShardCannotHoldTheRequestPastItsDeadline) {
  ServerConfig cfg;
  ClusterFixture fx(2, cfg);
  fx.shards[1]->set_paused(true);  // shard 1 admits but never schedules

  const auto start = std::chrono::steady_clock::now();
  const ClusterSearchResult rr =
      fx.cli->search(fx.search_request(10.0, /*deadline_ms=*/300));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ASSERT_EQ(rr.status, ClientStatus::kError);
  EXPECT_EQ(rr.error.code, server::ErrorCode::kDeadlineExpired);
  EXPECT_EQ(rr.shards[1].state, ShardState::kDeadline);
  // The coordinator enforced the deadline itself: well under the 10 s a
  // hung shard would otherwise cost.
  EXPECT_LT(elapsed, 5.0);
  EXPECT_EQ(fx.cli->stats().deadline_expired, 1u);

  fx.shards[1]->set_paused(false);  // let the fixture drain cleanly
}

// ------------------------------- (e) all shards shed => coordinator sheds

TEST(ClusterClientTest, AllShardsOverloadedShedsTheWholeRequest) {
  ServerConfig cfg;
  cfg.start_paused = true;
  cfg.admission_capacity = 1;
  ClusterFixture fx(2, cfg);

  // Fill every shard's one admission slot with a direct request; those
  // block until unpaused.
  std::vector<std::thread> fillers;
  std::vector<server::RemoteResult> fill_rr(2);
  for (std::size_t k = 0; k < 2; ++k) {
    fillers.emplace_back([&, k] {
      BlockingClient filler(fx.hubs[k]->connect());
      std::ostringstream blob;
      hmm::write_hmm_binary(blob, fx.w.model, nullptr);
      const std::string bytes = blob.str();
      fill_rr[k] = filler.search_blob(
          0, std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    });
  }
  const auto admitted = [&] {
    return fx.shards[0]->stats().requests_admitted == 1 &&
           fx.shards[1]->stats().requests_admitted == 1;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!admitted() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(admitted());

  const ClusterSearchResult rr = fx.cli->search(fx.search_request());
  EXPECT_EQ(rr.status, ClientStatus::kOverloaded);
  EXPECT_EQ(rr.overload.queue_capacity, 1u);
  EXPECT_EQ(fx.cli->stats().coordinator_sheds, 1u);

  for (auto& s : fx.shards) s->set_paused(false);
  for (std::thread& t : fillers) t.join();
  for (const server::RemoteResult& f : fill_rr)
    EXPECT_EQ(f.status, ClientStatus::kOk);
}

// ------------------------------------------------- coordinator daemon

TEST(ClusterCoordinatorTest, ServesMergedSearchOverTheWireProtocol) {
  ClusterFixture fx(2);
  const pipeline::SearchResult ref = fx.w.reference();

  ClusterConfig ccfg;
  ccfg.manifest = fx.m;
  ccfg.require_shard_role = true;
  auto& hubs = fx.hubs;
  ClusterCoordinator coord(ccfg, [&hubs](std::size_t shard) {
    return hubs[shard]->connect();
  });
  EXPECT_EQ(coord.client().probe_all(), 2u);

  LoopbackHub front;
  auto listener = front.listener();
  std::thread serve([&] { coord.serve(*listener); });

  BlockingClient client(front.connect());
  // The coordinator's PONG announces its role.
  const auto info = client.ping_info();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->role, server::NodeRole::kCoordinator);

  std::ostringstream blob;
  hmm::write_hmm_binary(blob, fx.w.model, nullptr);
  const std::string bytes = blob.str();
  const server::RemoteResult rr = client.search_blob(
      0, std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  ASSERT_EQ(rr.status, ClientStatus::kOk);
  EXPECT_NE(rr.result.trace_id, 0u);
  ASSERT_EQ(rr.result.hits.size(), ref.hits.size());
  for (std::size_t i = 0; i < ref.hits.size(); ++i) {
    EXPECT_EQ(rr.result.hits[i].seq_index, ref.hits[i].seq_index) << i;
    EXPECT_EQ(rr.result.hits[i].evalue, ref.hits[i].evalue) << i;
  }

  // STATS speaks the cluster schema; /metrics exposes the shard gauges.
  const auto json = client.stats_json();
  ASSERT_TRUE(json.has_value());
  EXPECT_NE(json->find("finehmm.cluster_stats.v1"), std::string::npos);
  EXPECT_NE(json->find("\"merged_ok\": 1"), std::string::npos);
  const server::HttpResponse metrics = coord.handle_http("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("finehmm_cluster_shards_healthy 2"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("finehmm_cluster_straggler_seconds"),
            std::string::npos);
  const server::HttpResponse health = coord.handle_http("/healthz");
  EXPECT_EQ(health.status, 200);

  coord.begin_drain();
  serve.join();
  EXPECT_EQ(coord.handle_http("/healthz").status, 503);
}

}  // namespace
