// Protocol transcript recording for audit and debugging.
//
// Attach a ProtocolTrace to a Transport (or to every endpoint of an
// InProcessMesh) and every message's metadata
// (sequence, round, endpoints, tag, wire bytes — never payloads) is
// captured. Deployments use such transcripts to verify after the fact
// that a protocol run exchanged exactly the message pattern it was
// supposed to: the privacy argument of the paper is precisely a claim
// about which bytes flow where.
//
// Not synchronized: a trace shared by several senders must be appended
// to under their common lock, as InProcessMesh endpoints do.

#ifndef DASH_NET_TRACE_H_
#define DASH_NET_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "util/status.h"

namespace dash {

struct TraceEvent {
  int64_t sequence = 0;  // global send order
  int round = 0;         // protocol round at send time
  int from = -1;
  int to = -1;
  MessageTag tag = MessageTag::kPlainStats;
  int64_t wire_bytes = 0;
};

class ProtocolTrace {
 public:
  void Record(int round, const Message& msg);
  void Clear() { events_.clear(); }

  const std::vector<TraceEvent>& events() const { return events_; }
  int64_t size() const { return static_cast<int64_t>(events_.size()); }

  // Events carrying a particular tag.
  int64_t CountTag(MessageTag tag) const;

  // Writes sequence,round,from,to,tag,bytes rows.
  Status WriteCsv(const std::string& path) const;

  // One line per (round, tag): "round 2: 6x AdditiveShare (1824 B)".
  std::string Summary() const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace dash

#endif  // DASH_NET_TRACE_H_
