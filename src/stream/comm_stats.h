// Communication accounting for the distributed streaming model.
//
// The paper measures protocols in *messages*, where one message is one
// stream-element-sized payload: a scalar weight report, an (element,
// weight) update, or a d-dimensional row / scaled singular vector. A
// coordinator broadcast reaches all m sites and therefore costs m
// messages. CommStats keeps each category separate so harnesses can report
// any breakdown; total() is the paper's "msg" metric.
#ifndef DMT_STREAM_COMM_STATS_H_
#define DMT_STREAM_COMM_STATS_H_

#include <cstdint>

namespace dmt {
namespace stream {

/// Message counters for one protocol run.
struct CommStats {
  uint64_t scalar_up = 0;       ///< scalar site->coordinator messages
  uint64_t element_up = 0;      ///< (element, weight) updates
  uint64_t vector_up = 0;       ///< d-dimensional rows / singular vectors
  uint64_t broadcast_events = 0;///< coordinator broadcast occurrences
  uint64_t broadcast_msgs = 0;  ///< broadcast_events summed over m sites
  uint64_t rounds = 0;          ///< protocol round/epoch transitions

  /// Upstream messages only.
  uint64_t total_up() const { return scalar_up + element_up + vector_up; }

  /// The paper's message metric: upstream + downstream.
  uint64_t total() const { return total_up() + broadcast_msgs; }

  CommStats& operator+=(const CommStats& o) {
    scalar_up += o.scalar_up;
    element_up += o.element_up;
    vector_up += o.vector_up;
    broadcast_events += o.broadcast_events;
    broadcast_msgs += o.broadcast_msgs;
    rounds += o.rounds;
    return *this;
  }
};

/// Upstream cost of one site->coordinator message, by CommStats category
/// (e.g. a P1 flush of k counters costs k elements; an empty one, one
/// scalar).
struct MessageCost {
  uint64_t scalar = 0;
  uint64_t element = 0;
  uint64_t vector = 0;
};

}  // namespace stream
}  // namespace dmt

#endif  // DMT_STREAM_COMM_STATS_H_
