#include "core/distributed_qr.h"

#include <string>
#include <utility>

#include "linalg/qr.h"
#include "linalg/tsqr.h"
#include "net/round_annotations.h"
#include "net/serialization.h"

namespace dash {
namespace {

// Broadcast-stack mode: every party ends up factoring the identical
// stack (the sign convention makes R unique).
Result<Matrix> CombineBroadcastStack(Transport* net, const Matrix& own_r) {
  const int p = net->num_parties();
  const int local = net->local_party();
  net->BeginRound();
  ByteWriter w;
  w.PutMatrix(own_r);
  DASH_ROUND(phase1_rfactor, kRFactor);
  DASH_RETURN_IF_ERROR(net->Broadcast(local, MessageTag::kRFactor, w.Take()));
  std::vector<Matrix> stack(static_cast<size_t>(p));
  stack[static_cast<size_t>(local)] = own_r;
  for (int q = 0; q < p; ++q) {
    if (q == local) continue;
    DASH_ROUND(phase1_rfactor, kRFactor);
    DASH_ASSIGN_OR_RETURN(Message msg,
                          net->Receive(local, q, MessageTag::kRFactor));
    ByteReader r(msg.payload);
    DASH_ASSIGN_OR_RETURN(stack[static_cast<size_t>(q)], r.GetMatrix());
  }
  return CombineRFactors(stack);
}

// Binary-tree mode: the merge schedule is a deterministic function of
// (P, stride), so each party replays the full activity pattern locally
// and only performs its own sends/receives.
Result<Matrix> CombineBinaryTree(Transport* net, const Matrix& own_r) {
  const int p = net->num_parties();
  const int local = net->local_party();
  Matrix current = own_r;
  std::vector<bool> active(static_cast<size_t>(p), true);
  for (int stride = 1; stride < p; stride *= 2) {
    net->BeginRound();
    if (active[static_cast<size_t>(local)] && (local / stride) % 2 == 1 &&
        local - stride >= 0) {
      ByteWriter w;
      w.PutMatrix(current);
      DASH_ROUND(phase1_tree_merge, kTreeR);
      DASH_RETURN_IF_ERROR(
          net->Send(local, local - stride, MessageTag::kTreeR, w.Take()));
    } else if (active[static_cast<size_t>(local)] && local + stride < p &&
               active[static_cast<size_t>(local + stride)]) {
      DASH_ROUND(phase1_tree_merge, kTreeR);
      DASH_ASSIGN_OR_RETURN(
          Message msg, net->Receive(local, local + stride, MessageTag::kTreeR));
      ByteReader r(msg.payload);
      DASH_ASSIGN_OR_RETURN(Matrix peer, r.GetMatrix());
      DASH_ASSIGN_OR_RETURN(current, QrRFactor(VStack({current, peer})));
    }
    // Replay the round's deactivations for every party.
    for (int i = 0; i < p; ++i) {
      if (active[static_cast<size_t>(i)] && (i / stride) % 2 == 1 &&
          i - stride >= 0) {
        active[static_cast<size_t>(i)] = false;
      }
    }
  }
  // Party 0 holds the pooled R; it broadcasts it so every party can
  // proceed.
  net->BeginRound();
  if (local == 0) {
    ByteWriter w;
    w.PutMatrix(current);
    DASH_ROUND(phase1_tree_root, kRFactor);
    DASH_RETURN_IF_ERROR(net->Broadcast(0, MessageTag::kRFactor, w.Take()));
    return current;
  }
  DASH_ROUND(phase1_tree_root, kRFactor);
  DASH_ASSIGN_OR_RETURN(Message msg,
                        net->Receive(local, 0, MessageTag::kRFactor));
  ByteReader r(msg.payload);
  return r.GetMatrix();
}

}  // namespace

const char* RCombineModeName(RCombineMode mode) {
  switch (mode) {
    case RCombineMode::kBroadcastStack:
      return "broadcast-stack";
    case RCombineMode::kBinaryTree:
      return "binary-tree";
  }
  return "unknown";
}

Result<Matrix> PartyCombineRFactors(Transport* transport, const Matrix& own_r,
                                    RCombineMode mode) {
  if (transport->num_parties() == 1) return own_r;
  switch (mode) {
    case RCombineMode::kBroadcastStack:
      return CombineBroadcastStack(transport, own_r);
    case RCombineMode::kBinaryTree:
      return CombineBinaryTree(transport, own_r);
  }
  return InternalError("unknown R-combine mode");
}

Result<DistributedQrResult> CombineRFactorsOverNetwork(
    InProcessMesh* mesh, const std::vector<Matrix>& local_r,
    RCombineMode mode) {
  if (static_cast<int>(local_r.size()) != mesh->num_parties()) {
    return InvalidArgumentError("one R factor per party required");
  }
  const int64_t k = local_r[0].cols();
  for (const auto& r : local_r) {
    if (r.rows() != k || r.cols() != k) {
      return InvalidArgumentError("R factors must all be K x K");
    }
  }
  return SimulateParties(
      mesh, [&](int i, Transport* t) -> Result<DistributedQrResult> {
        const int rounds_before = t->metrics().rounds();
        DistributedQrResult out;
        DASH_ASSIGN_OR_RETURN(
            out.r, PartyCombineRFactors(t, local_r[static_cast<size_t>(i)],
                                        mode));
        DASH_ASSIGN_OR_RETURN(out.r_inverse, InvertUpperTriangular(out.r));
        out.rounds = t->metrics().rounds() - rounds_before;
        return out;
      });
}

}  // namespace dash
