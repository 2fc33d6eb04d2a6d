#include "transport/inprocess_mesh.h"

#include <chrono>
#include <string>

#include "net/abort.h"
#include "util/check.h"

namespace dash {

// One party's end of the mesh. All state lives in the mesh (under its
// lock); the endpoint only validates the party binding and accounts its
// own sends.
class MeshEndpoint : public Transport {
 public:
  MeshEndpoint(InProcessMesh* mesh, int party)
      : Transport(mesh->num_parties()), mesh_(mesh), party_(party) {}

  int local_party() const override { return party_; }

  Status Send(int from, int to, MessageTag tag,
              std::vector<uint8_t> payload) override {
    if (from != party_) {
      return InvalidArgumentError(
          "mesh endpoint for party " + std::to_string(party_) +
          " cannot send as party " + std::to_string(from));
    }
    DASH_RETURN_IF_ERROR(ValidateParty(to, "receiver"));
    if (to == party_) {
      return InvalidArgumentError("party " + std::to_string(from) +
                                  " attempted to send a message to itself");
    }
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.tag = tag;
    msg.payload = std::move(payload);
    return mesh_->Push(std::move(msg));
  }

  Result<Message> Receive(int to, int from, MessageTag expected_tag) override {
    if (to != party_) {
      return InvalidArgumentError(
          "mesh endpoint for party " + std::to_string(party_) +
          " cannot receive as party " + std::to_string(to));
    }
    DASH_RETURN_IF_ERROR(ValidateParty(from, "sender"));
    if (from == party_) {
      return InvalidArgumentError("party cannot receive from itself");
    }
    return mesh_->Pop(to, from, expected_tag);
  }

  bool HasPending(int to, int from) override {
    if (to != party_ || from < 0 || from >= num_parties() || from == to) {
      return false;
    }
    return mesh_->Pending(to, from);
  }

 private:
  friend class InProcessMesh;

  InProcessMesh* const mesh_;
  const int party_;
};

InProcessMesh::InProcessMesh(int num_parties)
    : num_parties_(num_parties),
      arrivals_(static_cast<size_t>(num_parties)),
      queues_(static_cast<size_t>(num_parties) * num_parties),
      left_(static_cast<size_t>(num_parties), false),
      aborts_(static_cast<size_t>(num_parties)) {
  DASH_CHECK_GE(num_parties, 1);
  for (int i = 0; i < num_parties; ++i) {
    endpoints_.push_back(std::make_unique<MeshEndpoint>(this, i));
  }
}

InProcessMesh::~InProcessMesh() = default;

Transport* InProcessMesh::endpoint(int party) {
  DASH_CHECK(0 <= party && party < num_parties_) << "party " << party;
  return endpoints_[static_cast<size_t>(party)].get();
}

void InProcessMesh::Leave(int party) {
  DASH_CHECK(0 <= party && party < num_parties_) << "party " << party;
  {
    MutexLock lock(&mu_);
    left_[static_cast<size_t>(party)] = true;
  }
  for (auto& cv : arrivals_) cv.NotifyAll();
}

void InProcessMesh::EnterAll() {
  MutexLock lock(&mu_);
  left_.assign(left_.size(), false);
  aborts_.assign(aborts_.size(), Status::Ok());
}

void InProcessMesh::AttachTrace(ProtocolTrace* trace) {
  for (auto& e : endpoints_) e->AttachTrace(trace);
}

const TrafficMetrics& InProcessMesh::metrics() const {
  totals_ = std::make_unique<TrafficMetrics>(num_parties_);
  for (const auto& e : endpoints_) totals_->MergeFrom(e->metrics());
  return *totals_;
}

Status InProcessMesh::Push(Message msg) {
  const int to = msg.to;
  {
    MutexLock lock(&mu_);
    if (left_[static_cast<size_t>(to)]) {
      return DepartureStatus(msg.from, to,
                             "party " + std::to_string(to) +
                                 " has left the mesh");
    }
    // Accounting happens under the lock so a trace shared by every
    // endpoint is appended to by one thread at a time.
    endpoints_[static_cast<size_t>(msg.from)]->RecordSend(msg);
    queues_[static_cast<size_t>(msg.from) * num_parties_ + to].push_back(
        std::move(msg));
  }
  arrivals_[static_cast<size_t>(to)].NotifyAll();
  return Status::Ok();
}

Result<Message> InProcessMesh::Pop(int to, int from, MessageTag expected_tag) {
  MutexLock lock(&mu_);
  auto& queue = queues_[static_cast<size_t>(from) * num_parties_ + to];
  const Status& abort = aborts_[static_cast<size_t>(to)];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kMeshReceiveTimeoutMs);
  ScanForAborts(to);
  while (queue.empty()) {
    // A latched peer abort beats waiting: it names the originator's
    // code, so every survivor reports the same one.
    if (!abort.ok()) return abort;
    if (left_[static_cast<size_t>(from)]) {
      return DepartureStatus(to, from,
                             "party " + std::to_string(from) +
                                 " left the mesh before the expected " +
                                 MessageTagName(expected_tag) + " arrived");
    }
    if (arrivals_[static_cast<size_t>(to)].WaitUntil(&mu_, deadline) ==
            std::cv_status::timeout &&
        queue.empty()) {
      ScanForAborts(to);
      if (!abort.ok()) return abort;
      return DeadlineExceededError(
          "party " + std::to_string(to) + " timed out after " +
          std::to_string(kMeshReceiveTimeoutMs) + " ms waiting for " +
          MessageTagName(expected_tag) + " from party " +
          std::to_string(from));
    }
    ScanForAborts(to);
  }
  Message msg = std::move(queue.front());
  queue.pop_front();
  if (msg.tag != expected_tag) {
    return FailedPreconditionError(
        std::string("protocol desync: expected tag ") +
        MessageTagName(expected_tag) + " but received " +
        MessageTagName(msg.tag));
  }
  return msg;
}

bool InProcessMesh::Pending(int to, int from) {
  MutexLock lock(&mu_);
  return !queues_[static_cast<size_t>(from) * num_parties_ + to].empty();
}

Status InProcessMesh::DepartureStatus(int party, int departed,
                                      const std::string& what) {
  // PreferAbort, as on TCP: an abort that explains the departure beats
  // the bare Unavailable — ours, or the one the departed party had
  // latched when it left (its originator's notice to us may still be in
  // flight).
  ScanForAborts(party);
  if (!aborts_[static_cast<size_t>(party)].ok()) {
    return aborts_[static_cast<size_t>(party)];
  }
  if (!aborts_[static_cast<size_t>(departed)].ok()) {
    return aborts_[static_cast<size_t>(departed)];
  }
  return UnavailableError(what);
}

void InProcessMesh::ScanForAborts(int to) {
  if (!aborts_[static_cast<size_t>(to)].ok()) return;
  for (int from = 0; from < num_parties_; ++from) {
    auto& queue = queues_[static_cast<size_t>(from) * num_parties_ + to];
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->tag != MessageTag::kAbort) continue;
      aborts_[static_cast<size_t>(to)] =
          MakeAbortStatus(DecodeAbortPayload(it->payload));
      queue.erase(it);
      return;
    }
  }
}

}  // namespace dash
