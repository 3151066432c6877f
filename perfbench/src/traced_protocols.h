// Forwarding wrappers that time a protocol's coordinator drain from
// outside the library.
//
// Each wrapper implements the library's protocol interface, forwards every
// virtual to the wrapped instance unchanged, and records a "drain" span
// around Synchronize/SynchronizeSites (or, for the wire adapter, around
// each ApplyFrame). The simulation driver and the wire runner reach all
// protocol hooks through these virtuals, so a traced run executes exactly
// the same protocol code in the same order: the wrappers only observe.
// The benchmark checks that claim on every traced run by comparing the
// traced result's messages and coordinator fingerprint with an untraced
// run's, bit for bit.
#ifndef PERFBENCH_TRACED_PROTOCOLS_H_
#define PERFBENCH_TRACED_PROTOCOLS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hh/hh_protocol.h"
#include "matrix/matrix_protocol.h"
#include "metrics.h"
#include "net/remote.h"

namespace perfbench {

class TracedMatrix : public dmt::matrix::MatrixTrackingProtocol {
 public:
  /// Neither pointer is owned; both must outlive the wrapper.
  TracedMatrix(dmt::matrix::MatrixTrackingProtocol* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  void ProcessRow(size_t site, const std::vector<double>& row) override {
    inner_->ProcessRow(site, row);
  }
  void SiteUpdate(size_t site, const std::vector<double>& row) override {
    inner_->SiteUpdate(site, row);
  }
  void Synchronize() override {
    const double start = log_->Now();
    inner_->Synchronize();
    log_->Add("drain", -1, start, log_->Now());
  }
  void SynchronizeSites(const uint32_t* sites, size_t count) override {
    const double start = log_->Now();
    inner_->SynchronizeSites(sites, count);
    log_->Add("drain", -1, start, log_->Now());
    drained_sites_ += count;
  }
  bool SupportsTargetedDrain() const override {
    return inner_->SupportsTargetedDrain();
  }
  size_t PendingOutboxSize(size_t site) const override {
    return inner_->PendingOutboxSize(site);
  }
  bool SupportsConcurrentSiteUpdates() const override {
    return inner_->SupportsConcurrentSiteUpdates();
  }
  dmt::linalg::Matrix CoordinatorSketch() const override {
    return inner_->CoordinatorSketch();
  }
  dmt::linalg::Matrix CoordinatorGram() const override {
    return inner_->CoordinatorGram();
  }
  dmt::linalg::Matrix ExportSnapshotSketch() const override {
    return inner_->ExportSnapshotSketch();
  }
  const dmt::stream::CommStats& comm_stats() const override {
    return inner_->comm_stats();
  }
  std::vector<uint64_t> per_site_messages() const override {
    return inner_->per_site_messages();
  }
  std::string name() const override { return inner_->name(); }

  /// Sites named by targeted drains so far.
  uint64_t drained_sites() const { return drained_sites_; }

 private:
  dmt::matrix::MatrixTrackingProtocol* inner_;
  SpanLog* log_;
  uint64_t drained_sites_ = 0;
};

class TracedHH : public dmt::hh::HeavyHitterProtocol {
 public:
  /// Neither pointer is owned; both must outlive the wrapper.
  TracedHH(dmt::hh::HeavyHitterProtocol* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  void Process(size_t site, uint64_t element, double weight) override {
    inner_->Process(site, element, weight);
  }
  void SiteUpdate(size_t site, uint64_t element, double weight) override {
    inner_->SiteUpdate(site, element, weight);
  }
  void Synchronize() override {
    const double start = log_->Now();
    inner_->Synchronize();
    log_->Add("drain", -1, start, log_->Now());
  }
  void SynchronizeSites(const uint32_t* sites, size_t count) override {
    const double start = log_->Now();
    inner_->SynchronizeSites(sites, count);
    log_->Add("drain", -1, start, log_->Now());
    drained_sites_ += count;
  }
  bool SupportsTargetedDrain() const override {
    return inner_->SupportsTargetedDrain();
  }
  size_t PendingOutboxSize(size_t site) const override {
    return inner_->PendingOutboxSize(site);
  }
  bool SupportsConcurrentSiteUpdates() const override {
    return inner_->SupportsConcurrentSiteUpdates();
  }
  double EstimateElementWeight(uint64_t element) const override {
    return inner_->EstimateElementWeight(element);
  }
  double EstimateTotalWeight() const override {
    return inner_->EstimateTotalWeight();
  }
  const dmt::stream::CommStats& comm_stats() const override {
    return inner_->comm_stats();
  }
  std::vector<uint64_t> per_site_messages() const override {
    return inner_->per_site_messages();
  }
  std::string name() const override { return inner_->name(); }
  std::vector<uint64_t> TrackedElements() const override {
    return inner_->TrackedElements();
  }
  std::vector<dmt::hh::HHSnapshotEntry> ExportSnapshotEntries()
      const override {
    return inner_->ExportSnapshotEntries();
  }

  /// Sites named by targeted drains so far.
  uint64_t drained_sites() const { return drained_sites_; }

 private:
  dmt::hh::HeavyHitterProtocol* inner_;
  SpanLog* log_;
  uint64_t drained_sites_ = 0;
};

/// Coordinator-side wire adapter wrapper: times each ApplyFrame, the
/// coordinator's share of a wire window's drain.
class TracedWire : public dmt::net::WireAdapter {
 public:
  /// Neither pointer is owned; both must outlive the wrapper.
  TracedWire(dmt::net::WireAdapter* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  std::string protocol_name() const override {
    return inner_->protocol_name();
  }
  size_t num_sites() const override { return inner_->num_sites(); }
  void EncodeWindow(size_t site, dmt::net::FrameBatch* batch) override {
    inner_->EncodeWindow(site, batch);
  }
  void ApplyBroadcast(size_t site, double value) override {
    inner_->ApplyBroadcast(site, value);
  }
  bool ApplyFrame(size_t site, dmt::net::MsgType type,
                  const uint8_t* payload, size_t n,
                  std::string* error) override {
    const double start = log_->Now();
    const bool ok = inner_->ApplyFrame(site, type, payload, n, error);
    log_->Add("drain", -1, start, log_->Now());
    return ok;
  }
  double BroadcastValue() const override { return inner_->BroadcastValue(); }

 private:
  dmt::net::WireAdapter* inner_;
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_PROTOCOLS_H_
