// The cluster front end: a daemon that speaks the finehmmd wire protocol
// to clients and scatters every SEARCH/SCAN across the shard workers via
// ClusterClient (docs/cluster.md).
//
// To a client the coordinator IS a finehmmd — same frames, same verbs,
// same error codes — except that its PONG announces role kCoordinator
// and its STATS payload is "finehmm.cluster_stats.v1" (cluster counters,
// per-shard latency quantiles, straggler tracking) instead of the
// single-daemon server stats.  Because the merge is bit-identical to an
// unsharded scan, a client cannot tell the difference from the results.
//
// The connection tier is the shared daemon frontend (server::Frontend).
// There is no admission queue and no coalescer here — a request's whole
// life is the scatter-gather inside its connection thread, and the shard
// daemons do the coalescing where the DP work actually runs.
#pragma once

#include <string>

#include "cluster/cluster_client.hpp"
#include "obs/histogram.hpp"
#include "server/frontend.hpp"

namespace finehmm::cluster {

class ClusterCoordinator final : public server::Frontend {
 public:
  ClusterCoordinator(ClusterConfig cfg, ConnectFn connect);
  ~ClusterCoordinator() override;

  /// The scatter-gather engine (exposed for startup probes and tests).
  ClusterClient& client() { return client_; }

  // serve / begin_drain / draining / uptime_seconds / counters /
  // handle_http: server::Frontend.  In-flight scatters finish on drain
  // (their shard legs already carry deadlines).

  // --- Observability --------------------------------------------------
  /// End-to-end coordinator latency (decoded request -> reply written),
  /// ns.
  obs::Histogram latency_histogram() const { return e2e_hist_.snapshot(); }

 private:
  void on_search(const std::shared_ptr<Session>& session,
                 std::uint32_t request_id, server::SearchRequest req) override;
  void on_scan(const std::shared_ptr<Session>& session,
               std::uint32_t request_id, server::ScanRequest req) override;
  void on_drain() override FINEHMM_REQUIRES(state_mu_);
  /// ClusterClient counters, the manifest totals, per-shard health, leg
  /// counters and roundtrip histograms, and the e2e and straggler (max −
  /// min shard time) histograms; the manifest's per-shard fields ride as
  /// STATS appendices.
  void declare_metrics(obs::MetricSet& m,
                       obs::MetricFamily& events) const override;

  ClusterClient client_;
  obs::ConcurrentHistogram e2e_hist_;
};

}  // namespace finehmm::cluster
