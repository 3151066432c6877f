// Simulated star network: m sites, one coordinator, counted channels.
//
// The simulator is synchronous and in-process (the paper's evaluation also
// only counts messages, never wall-clock network time). The message core
// (stream/protocol_core.h) records each site->coordinator message once,
// at delivery, from the message's declared cost, and each coordinator
// broadcast as it happens; delivery itself is a direct method call.
//
// Threading model: plain counters. Every record happens on the
// coordinator's thread — the drain, or the serial Process path — so no
// site thread ever touches a Network, and reads (stats(), per_site_up())
// are ordered after the site phase by the driver's window barrier.
#ifndef DMT_STREAM_NETWORK_H_
#define DMT_STREAM_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stream/comm_stats.h"
#include "util/check.h"

namespace dmt {
namespace stream {

/// Message tally for one protocol instance.
class Network {
 public:
  /// `num_sites` is m in the paper.
  explicit Network(size_t num_sites) : per_site_up_(num_sites, 0) {
    DMT_CHECK_GE(num_sites, 1u);
  }

  size_t num_sites() const { return per_site_up_.size(); }

  /// One site -> coordinator message of the given cost.
  void Record(size_t site, const MessageCost& cost) {
    DMT_CHECK_LT(site, per_site_up_.size());
    stats_.scalar_up += cost.scalar;
    stats_.element_up += cost.element;
    stats_.vector_up += cost.vector;
    per_site_up_[site] += cost.scalar + cost.element + cost.vector;
  }
  void RecordScalar(size_t site) { Record(site, MessageCost{1, 0, 0}); }
  void RecordElement(size_t site) { Record(site, MessageCost{0, 1, 0}); }
  void RecordVector(size_t site) { Record(site, MessageCost{0, 0, 1}); }

  /// Coordinator -> all-sites broadcast (costs num_sites messages).
  void RecordBroadcast() {
    ++stats_.broadcast_events;
    stats_.broadcast_msgs += per_site_up_.size();
  }

  /// Marks a protocol round/epoch boundary (bookkeeping only).
  void RecordRound() { ++stats_.rounds; }

  const CommStats& stats() const { return stats_; }

  /// Per-site upstream message counts (diagnostics; index = site id).
  const std::vector<uint64_t>& per_site_up() const { return per_site_up_; }

 private:
  CommStats stats_;
  std::vector<uint64_t> per_site_up_;
};

}  // namespace stream
}  // namespace dmt

#endif  // DMT_STREAM_NETWORK_H_
