// The site -> coordinator message core shared by the concurrent protocols.
//
// Every paper protocol is written in the coordinator message-passing model:
// a site step reads only its own site's state plus the last broadcast and
// emits typed messages; the coordinator applies them in a fixed order and
// sometimes broadcasts. ProtocolCore owns everything around those two
// halves:
//
//  * Outboxes. Emit() queues a message in the emitting site's outbox
//    during the site phase; sites on distinct threads touch distinct
//    outboxes only.
//  * The drain. Synchronize() delivers every outbox in ascending site
//    order, emission order within a site; SynchronizeSites() delivers the
//    listed sites only (the driver passes the ascending set of non-empty
//    outboxes, which is the same total order). Both then run the
//    protocol's end-of-window step.
//  * Message counting. Each message is counted once, when it is
//    delivered, from its declared cost (Derived::Cost), so CommStats are
//    derived from the messages themselves and no site thread ever touches
//    a counter.
//  * The serial path. Process()/ProcessRow() run the site step with every
//    message delivered the moment it is emitted, then the end-of-window
//    step: one arrival is one window, and a broadcast an early message
//    triggers is already visible to the rest of the same site step (P4
//    and MP2 rely on this; no other site step reads a broadcast value
//    after its first emission, so for them delivering at emission or at
//    the end of the step is the same).
//  * The wire. TakeOutbox(site) on a site process and Deliver(site, msg)
//    on the coordinator process split the same drain across a channel.
//
// A protocol derives from hh::HHProtocolCore or matrix::MatrixProtocolCore
// (which bind the interface's entry points to the core), names its
// message type `Msg` there, and declares, as private members reached
// through `friend Core;`:
//
//   static stream::MessageCost Cost(const Msg&);      // the message's cost
//   void SiteStep(size_t site, <arrival>);            // calls Emit()
//   void Apply(size_t site, Msg& msg);                // coordinator half
//   void EndWindow();                                 // optional
//
// Static (CRTP) dispatch, not another virtual layer: Emit() and the drain
// loop inline the protocol's Cost and Apply, so the site phase costs no
// more than a hand-written outbox push.
//
// The outbox type defaults to std::vector<Msg>. A protocol may supply its
// own (MP1 keeps flushes as one flat row matrix per site); it needs
// size(), clear(), push_back(msg) and operator[](i) yielding a message
// Apply and Cost accept.
#ifndef DMT_STREAM_PROTOCOL_CORE_H_
#define DMT_STREAM_PROTOCOL_CORE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "stream/comm_stats.h"
#include "stream/network.h"
#include "util/check.h"

namespace dmt {
namespace stream {

template <typename Derived, typename Interface, typename Msg,
          typename Outbox = std::vector<Msg>>
class ProtocolCore : public Interface {
 public:
  void Synchronize() override {
    for (size_t s = 0; s < outbox_.size(); ++s) DrainSite(s);
    derived().EndWindow();
  }
  void SynchronizeSites(const uint32_t* sites, size_t count) override {
    for (size_t i = 0; i < count; ++i) DrainSite(sites[i]);
    derived().EndWindow();
  }
  bool SupportsTargetedDrain() const override { return true; }
  size_t PendingOutboxSize(size_t site) const override {
    return outbox_[site].size();
  }
  bool SupportsConcurrentSiteUpdates() const override { return true; }
  const CommStats& comm_stats() const override { return network_.stats(); }
  std::vector<uint64_t> per_site_messages() const override {
    return network_.per_site_up();
  }

  /// Wire, site half: moves out `site`'s queued messages, in emission
  /// order, leaving the outbox empty.
  Outbox TakeOutbox(size_t site) {
    DMT_CHECK_LT(site, outbox_.size());
    Outbox out;
    std::swap(out, outbox_[site]);
    return out;
  }

  /// Coordinator half of one message from `site`: counts its cost and
  /// applies it. The drain delivers every queued message through here;
  /// the wire coordinator calls it once per received message.
  template <typename M>
  void Deliver(size_t site, M&& msg) {
    network_.Record(site, Derived::Cost(msg));
    derived().Apply(site, msg);
  }

 protected:
  using Core = ProtocolCore;

  explicit ProtocolCore(size_t num_sites)
      : network_(num_sites), outbox_(num_sites) {}

  size_t num_sites() const { return outbox_.size(); }

  /// Site half: queues `msg` for the next drain, or delivers it at once
  /// on the serial path.
  template <typename M>
  void Emit(size_t site, M&& msg) {
    if (serial_) {
      Deliver(site, msg);
    } else {
      outbox_[site].push_back(std::forward<M>(msg));
    }
  }

  /// Coordinator half: one broadcast to all sites, which also starts a
  /// new round.
  void Broadcast() {
    network_.RecordBroadcast();
    network_.RecordRound();
  }

  /// Default end-of-window step: nothing.
  void EndWindow() {}

  /// Concurrent site phase: the site step alone; messages wait in the
  /// outbox for the drain.
  template <typename... Args>
  void RunSite(size_t site, const Args&... args) {
    derived().SiteStep(site, args...);
  }

  /// The site step with each message delivered as it is emitted.
  template <typename... Args>
  void SerialStep(size_t site, const Args&... args) {
    serial_ = true;
    derived().SiteStep(site, args...);
    serial_ = false;
  }

  /// Serial path: SerialStep(), then the end-of-window step.
  template <typename... Args>
  void RunSerial(size_t site, const Args&... args) {
    SerialStep(site, args...);
    derived().EndWindow();
  }

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }

  void DrainSite(size_t site) {
    Outbox& box = outbox_[site];
    for (size_t i = 0; i < box.size(); ++i) Deliver(site, box[i]);
    box.clear();
  }

  Network network_;
  std::vector<Outbox> outbox_;  // per-site, FIFO
  bool serial_ = false;         // set only inside SerialStep
};

}  // namespace stream
}  // namespace dmt

#endif  // DMT_STREAM_PROTOCOL_CORE_H_
