// In-process mesh: P party-bound Transport endpoints in one process —
// the simulator's substrate.
//
// Every protocol round exists once, written against ONE party's view of
// a Transport (transport/party_runner.h, mpc/secure_sum.h,
// core/distributed_qr.h, mpc/secure_projection.h). A real deployment
// hands that code a TcpTransport endpoint; the simulator hands each of
// P threads one endpoint of an InProcessMesh and runs the same code
// (RunPerParty below). There is no all-party driver.
//
// Endpoint semantics mirror TcpTransport's, minus the sockets:
//  * delivery is FIFO per ordered (from, to) link;
//  * Receive blocks until the message arrives, the sender has left the
//    mesh (Unavailable), a peer's kAbort is latched (the originator's
//    status, exactly as tcp_transport.cc latches it), or the fixed
//    kMeshReceiveTimeoutMs deadline passes (DeadlineExceeded) — a
//    backstop against protocol bugs, not a tunable; faults that need a
//    short deadline are exercised over TCP;
//  * a party leaves the mesh when its RunPerParty body returns (the
//    in-process analogue of a process exiting and closing its sockets):
//    messages it already sent stay deliverable, later sends to it fail
//    with Unavailable, and peers blocked on it wake up. A party that
//    leaves holding a latched abort hands that status to whoever finds
//    it gone, so one failure surfaces as one code at every party even
//    when the originator's own notice is still on its way.
//
// Accounting: each endpoint counts its own sends (TrafficMetrics is
// sender-attributed on every backend), and InProcessMesh::metrics() is
// their union — the global ledger E3 reports. A trace attached through
// AttachTrace records every party's sends; endpoints append to it under
// the mesh lock, so one trace may be shared by all P threads.

#ifndef DASH_TRANSPORT_INPROCESS_MESH_H_
#define DASH_TRANSPORT_INPROCESS_MESH_H_

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/message.h"
#include "transport/transport.h"
#include "util/mutex.h"
#include "util/status.h"

namespace dash {

// Receive deadline of every mesh endpoint (TcpTransport's default).
inline constexpr int kMeshReceiveTimeoutMs = 30000;

// Latency/bandwidth cost model: time = rounds * latency + bytes/bandwidth.
// Converts counted traffic into modeled wall-clock time for WAN settings
// (benches and examples only; it never affects protocol results).
struct LinkCostModel {
  double latency_seconds = 0.0;
  double bandwidth_bytes_per_second = 1.0;

  double EstimateSeconds(const TrafficMetrics& m) const {
    return m.rounds() * latency_seconds +
           static_cast<double>(m.total_bytes()) / bandwidth_bytes_per_second;
  }
};

class MeshEndpoint;

class InProcessMesh {
 public:
  // A mesh among parties 0..num_parties-1. Requires num_parties >= 1.
  explicit InProcessMesh(int num_parties);
  ~InProcessMesh();

  InProcessMesh(const InProcessMesh&) = delete;
  InProcessMesh& operator=(const InProcessMesh&) = delete;

  int num_parties() const { return num_parties_; }

  // Party `party`'s endpoint (local_party() == party); owned by the mesh.
  // Each endpoint is driven by one thread at a time.
  Transport* endpoint(int party);

  // Party `party` leaves the mesh (see the header comment). Idempotent.
  void Leave(int party);

  // Every party is back in the mesh; RunPerParty starts with this, so a
  // mesh (and per-party protocol state bound to its endpoints) can carry
  // several runs in sequence.
  void EnterAll();

  // Attaches `trace` to every endpoint (nullptr detaches).
  void AttachTrace(ProtocolTrace* trace);

  // Union of the endpoints' sender-side ledgers: total bytes/messages,
  // every directed link, and rounds = the most any party began. Rebuilt
  // on each call; read it once the party threads have joined.
  const TrafficMetrics& metrics() const;

 private:
  friend class MeshEndpoint;

  Status Push(Message msg);
  Result<Message> Pop(int to, int from, MessageTag expected_tag);
  bool Pending(int to, int from);
  // Latches the first kAbort queued for `to` (removing it from its
  // queue), as TcpTransport::ScanForAborts does for its inboxes.
  void ScanForAborts(int to) DASH_REQUIRES(mu_);
  // The status `party` sees when it finds `departed` gone: a latched
  // abort if either holds one, else Unavailable(what).
  Status DepartureStatus(int party, int departed, const std::string& what)
      DASH_REQUIRES(mu_);

  const int num_parties_;
  std::vector<std::unique_ptr<MeshEndpoint>> endpoints_;
  mutable std::unique_ptr<TrafficMetrics> totals_;
  // One waiter per endpoint; notified on every push to it and on Leave.
  std::vector<CondVar> arrivals_;

  Mutex mu_{LockRank::kInProcessMesh};
  // queues_[from * P + to]
  std::vector<std::deque<Message>> queues_ DASH_GUARDED_BY(mu_);
  std::vector<bool> left_ DASH_GUARDED_BY(mu_);
  // Latched peer abort per receiving party (Ok = none).
  std::vector<Status> aborts_ DASH_GUARDED_BY(mu_);
};

// Runs body(party, endpoint) for every party of `mesh` on its own thread
// and joins them; party i leaves the mesh as soon as its body returns.
// Returns the bodies' results indexed by party. `finish_rank`, when
// given, receives each party's position in the order the bodies
// returned (0 = first).
template <typename Fn>
auto RunPerParty(InProcessMesh* mesh, Fn body,
                 std::vector<int>* finish_rank = nullptr) {
  using R = decltype(body(0, static_cast<Transport*>(nullptr)));
  const int p = mesh->num_parties();
  mesh->EnterAll();
  std::vector<std::optional<R>> slots(static_cast<size_t>(p));
  std::vector<int> ranks(static_cast<size_t>(p), 0);
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(p));
  for (int i = 0; i < p; ++i) {
    threads.emplace_back([mesh, &body, &slots, &ranks, &finished, i] {
      slots[static_cast<size_t>(i)].emplace(body(i, mesh->endpoint(i)));
      ranks[static_cast<size_t>(i)] = finished.fetch_add(1);
      mesh->Leave(i);
    });
  }
  for (auto& t : threads) t.join();
  if (finish_rank != nullptr) *finish_rank = std::move(ranks);
  std::vector<R> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

// The simulator's run: body at every party (RunPerParty), reduced to one
// Result. If any party failed, the status of the FIRST party to fail —
// the originator: every later failure follows from its leaving the mesh
// or from its abort notice — otherwise party 0's value (the protocol
// reveals the same value to every party).
template <typename Fn>
auto SimulateParties(InProcessMesh* mesh, Fn body) {
  std::vector<int> rank;
  auto per_party = RunPerParty(mesh, std::move(body), &rank);
  int origin = -1;
  for (size_t i = 0; i < per_party.size(); ++i) {
    if (per_party[i].ok()) continue;
    if (origin < 0 || rank[i] < rank[static_cast<size_t>(origin)]) {
      origin = static_cast<int>(i);
    }
  }
  using R = typename decltype(per_party)::value_type;
  if (origin >= 0) return R(per_party[static_cast<size_t>(origin)].status());
  return std::move(per_party[0]);
}

}  // namespace dash

#endif  // DASH_TRANSPORT_INPROCESS_MESH_H_
