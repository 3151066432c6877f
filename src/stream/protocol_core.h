// The site -> coordinator message core shared by the concurrent protocols.
//
// Every paper protocol is written in the coordinator message-passing model:
// a site step reads only its own site's state plus the last broadcast and
// emits typed messages; the coordinator applies them in a fixed order and
// sometimes broadcasts. ProtocolCore owns everything around those halves:
//
//  * Outboxes. Emit() queues a message in the emitting site's outbox
//    during the site phase; sites on distinct threads touch distinct
//    outboxes only.
//  * The broadcast view. Every broadcasting protocol broadcasts one double
//    (W-hat, F-hat or the threshold tau). Broadcast(value) records it and
//    writes it into every site's view, and a site step reads view(site),
//    never a coordinator field. P3 and MP3 start the view at tau = 1.
//  * The drain. Synchronize() delivers every outbox in ascending site
//    order, emission order within a site; SynchronizeSites() delivers the
//    listed sites only (the driver passes the ascending set of non-empty
//    outboxes, the same total order). Both then run the end-of-window step.
//  * Message counting, once per message at delivery, from its declared
//    cost, so no site thread ever touches a counter.
//  * The serial path. Process()/ProcessRow() run the site step with every
//    message delivered as it is emitted, then the end-of-window step, so
//    a broadcast an early message triggers is already in the view for the
//    rest of the same site step (P4 and MP2 rely on this; no other site
//    step reads its view after its first emission).
//  * The wire (net::CoreWire in src/net/workload.cc). A site process ships
//    its outbox with EncodeOutbox(); the coordinator decodes each message
//    with DecodeMessage(), hands it to Deliver(), and ends each window with
//    SynchronizeSites(nullptr, 0). Its broadcast_value() travels back, and
//    each site installs it with InstallBroadcast() where the in-process
//    drain would have written it.
//
// A protocol derives from hh::HHProtocolCore or matrix::MatrixProtocolCore
// (which bind the interface's entry points to the core), names its
// message type `Msg` there, and declares, as private members reached
// through `friend Core;`:
//
//   static stream::MessageCost Cost(const Msg&);      // the message's cost
//   template <typename IO, typename M>
//   static bool Fields(IO& io, M& msg);               // wire field list
//   bool Valid(const Msg&) const;                     // wire domain check
//   void SiteStep(size_t site, <arrival>);            // calls Emit()
//   void Apply(size_t site, Msg& msg);                // coordinator half
//   void EndWindow();                                 // optional
//
// Fields() runs in both directions (util/codec.h); Valid() rejects every
// decoded value Apply must not see, so no DMT_CHECK in Apply is reachable
// from wire bytes. A message that is no plain field list declares
// Encode(const Msg&, ByteWriter*) and Decode(ByteReader*, WireMsg*)
// instead (P1), and one that is a view into its outbox also names an
// owning `WireMsg` that converts to it (MP1).
//
// Static (CRTP) dispatch, not another virtual layer: Emit() and the drain
// loop inline the protocol's Cost and Apply. The outbox type defaults to
// std::vector<Msg>; a protocol may supply its own (MP1 keeps one flat row
// matrix per site) with size(), clear(), push_back(msg) and operator[](i).
#ifndef DMT_STREAM_PROTOCOL_CORE_H_
#define DMT_STREAM_PROTOCOL_CORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stream/comm_stats.h"
#include "stream/network.h"
#include "util/check.h"
#include "util/codec.h"

namespace dmt {
namespace stream {

/// What every protocol offers the simulation driver and its reports,
/// beside its arrival entry points (hh::HeavyHitterProtocol,
/// matrix::MatrixTrackingProtocol).
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Coordinator half: drains every site's outbox in ascending site order
  /// (emission order within a site), applying merges and broadcasts, on
  /// one thread with no concurrent SiteUpdate (the driver calls it at
  /// window boundaries). Default: no-op, matching the default SiteUpdate,
  /// which delivers at once.
  virtual void Synchronize() {}

  /// Drains exactly the listed sites, in order. The driver passes the
  /// ascending set of sites with non-empty outboxes, so this applies the
  /// total order of Synchronize() without its O(num_sites) scan; every
  /// unlisted outbox must be empty. Default: Synchronize().
  virtual void SynchronizeSites(const uint32_t*, size_t) { Synchronize(); }

  /// True when SynchronizeSites() is a real targeted drain; otherwise each
  /// window costs one all-sites Synchronize() (a drain stall in
  /// stream::SchedulerStats).
  virtual bool SupportsTargetedDrain() const { return false; }

  /// Messages queued in `site`'s outbox. Workers call this after the
  /// site's last SiteUpdate of a window to decide whether to publish the
  /// site for draining (same concurrency contract as SiteUpdate).
  /// Default: SIZE_MAX, "unknown — always publish".
  virtual size_t PendingOutboxSize(size_t) const { return SIZE_MAX; }

  /// True when SiteUpdate() touches only per-site state and may therefore
  /// run concurrently for distinct sites.
  virtual bool SupportsConcurrentSiteUpdates() const { return false; }

  /// Communication counters so far.
  virtual const CommStats& comm_stats() const = 0;

  /// Per-site upstream message counts (index = site id). Same
  /// synchronization requirement as comm_stats(): call only between
  /// rounds / after the run.
  virtual std::vector<uint64_t> per_site_messages() const = 0;

  /// Short display name (e.g. "P2").
  virtual std::string name() const = 0;
};

template <typename Derived, typename Interface, typename Msg,
          typename Outbox = std::vector<Msg>>
class ProtocolCore : public Interface {
 public:
  /// What a wire coordinator decodes into before Deliver().
  using WireMsg = Msg;

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

  /// The last value broadcast (the initial view before any broadcast).
  double broadcast_value() const { return broadcast_; }

  /// Wire, site half: encodes `site`'s queued messages in emission order,
  /// calling `send(payload)` once per message, and empties the outbox.
  template <typename Send>
  void EncodeOutbox(size_t site, std::vector<uint8_t>* payload,
                    const Send& send) {
    Outbox& box = outbox_[site];
    for (size_t i = 0; i < box.size(); ++i) {
      payload->clear();
      ByteWriter w(payload);
      EncodeMessage(box[i], &w);
      send(*payload);
    }
    box.clear();
  }

  /// Wire encoding of one message.
  template <typename M>
  static void EncodeMessage(const M& msg, ByteWriter* w) {
    Derived::Encode(msg, w);
  }

  /// Wire, site half: installs a received broadcast into `site`'s view.
  void InstallBroadcast(size_t site, double value) {
    DMT_CHECK_LT(site, view_.size());
    view_[site] = value;
  }

  /// Wire, coordinator half: decodes one message. False when the bytes
  /// are malformed or a value is outside the message's domain.
  template <typename W>
  bool DecodeMessage(ByteReader* r, W* msg) const {
    return derived().Decode(r, msg);
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

  explicit ProtocolCore(size_t num_sites, double initial_view = 0.0)
      : network_(num_sites),
        outbox_(num_sites),
        view_(num_sites, initial_view),
        broadcast_(initial_view) {}

  size_t num_sites() const { return outbox_.size(); }

  /// The last broadcast value `site` has seen.
  double view(size_t site) const { return view_[site]; }

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

  /// Coordinator half: broadcasts `value` to all sites and starts a new
  /// round. Every view takes it at once; no site step runs during a drain,
  /// so sites see it from the next window (serial path: the next read).
  void Broadcast(double value) {
    network_.RecordBroadcast();
    network_.RecordRound();
    broadcast_ = value;
    std::fill(view_.begin(), view_.end(), value);
  }

  /// Default end-of-window step: nothing.
  void EndWindow() {}

  /// Default wire codec: the message's field list in both directions,
  /// then its domain check.
  static void Encode(const Msg& msg, ByteWriter* w) {
    Derived::Fields(*w, msg);
  }
  bool Decode(ByteReader* r, Msg* msg) const {
    return Derived::Fields(*r, *msg) && derived().Valid(*msg);
  }

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
  const Derived& derived() const {
    return static_cast<const Derived&>(*this);
  }

  void DrainSite(size_t site) {
    Outbox& box = outbox_[site];
    for (size_t i = 0; i < box.size(); ++i) Deliver(site, box[i]);
    box.clear();
  }

  Network network_;
  std::vector<Outbox> outbox_;  // per-site, FIFO
  std::vector<double> view_;    // per-site: the last broadcast seen
  double broadcast_;            // the last broadcast value
  bool serial_ = false;         // set only inside SerialStep
};

}  // namespace stream
}  // namespace dmt

#endif  // DMT_STREAM_PROTOCOL_CORE_H_
