// FNV-1a, the tree's one non-cryptographic digest: wire and result
// checksums, DASHPACK and checkpoint integrity sums, the Phase-1 cache
// fingerprint. Multi-byte values hash in host byte order; the on-disk
// formats that carry these sums are little-endian (data/panel_stream.h).
//
// Two offset bases are in use, and both are pinned by artifacts:
//
//   kFnv1aOffsetBasis  the standard 64-bit basis 0xcbf29ce484222325.
//                      ScanResultChecksum starts from it, so it fixes the
//                      result checksums dash_party prints and the commit
//                      round compares.
//   kDashFnvBasis      1469598103934665603: the standard basis's decimal
//                      spelling (14695981039346656037) with its last digit
//                      dropped. WireChecksum, the DASHPACK header and block
//                      sums, scan checkpoints, the Phase-1 fingerprint and
//                      the checksums recorded in BENCH_scan.json all start
//                      from it. Any start value serves a non-cryptographic
//                      digest equally well, and changing it would
//                      invalidate every packed study, checkpoint and pinned
//                      bench checksum, so it stays.

#ifndef DASH_UTIL_FNV1A_H_
#define DASH_UTIL_FNV1A_H_

#include <cstddef>
#include <cstdint>

namespace dash {

inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kDashFnvBasis = 1469598103934665603ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

// Folds `len` bytes into the running hash `h`; chain calls to hash
// several buffers as one stream.
uint64_t Fnv1aBytes(const void* data, size_t len, uint64_t h = kDashFnvBasis);

}  // namespace dash

#endif  // DASH_UTIL_FNV1A_H_
