#include "core/scan_checkpoint.h"

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "data/panel_stream.h"
#include "util/fnv1a.h"

namespace dash {
namespace {

constexpr char kCkptMagic[8] = {'D', 'A', 'S', 'H', 'C', 'K', 'P', 'T'};
constexpr uint64_t kCkptVersion = 1;
// magic + version + key + panels_done + len, then payload, then sum.
constexpr size_t kCkptHeaderBytes = 40;
// A checkpoint is one wire-order accumulator; anything past this bound
// (8 GiB of doubles) is a corrupt length field, not a real snapshot.
constexpr int64_t kMaxCkptDoubles = int64_t{1} << 30;

void PutU64(unsigned char* p, uint64_t v) { std::memcpy(p, &v, 8); }

uint64_t GetU64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

uint64_t ScanCheckpointKey(uint64_t study_fingerprint, int64_t num_variants,
                           int64_t num_covariates) {
  const int64_t shape[2] = {num_variants, num_covariates};
  uint64_t h = Fnv1aBytes(&study_fingerprint, sizeof(study_fingerprint));
  h = Fnv1aBytes(shape, sizeof(shape), h);
  h = Fnv1aBytes(&kCkptVersion, sizeof(kCkptVersion), h);
  return h;
}

Status SaveScanCheckpoint(const std::string& path,
                          const ScanCheckpoint& ckpt) {
  const size_t payload = ckpt.flat.size() * sizeof(double);
  std::vector<unsigned char> buf(kCkptHeaderBytes + payload + 8);
  unsigned char* p = buf.data();
  std::memcpy(p, kCkptMagic, 8);
  PutU64(p + 8, kCkptVersion);
  PutU64(p + 16, ckpt.key);
  PutU64(p + 24, static_cast<uint64_t>(ckpt.panels_done));
  PutU64(p + 32, static_cast<uint64_t>(ckpt.flat.size()));
  std::memcpy(p + kCkptHeaderBytes, ckpt.flat.data(), payload);
  PutU64(p + kCkptHeaderBytes + payload,
         Fnv1aBytes(p, kCkptHeaderBytes + payload));
  return AtomicWriteFile(path, buf.data(), buf.size());
}

Result<ScanCheckpoint> LoadScanCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("no checkpoint at " + path);
  std::vector<unsigned char> buf((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  if (in.bad()) return IoError("read " + path);
  if (buf.size() < kCkptHeaderBytes + 8) {
    return DataLossError("truncated checkpoint: " + path);
  }
  const unsigned char* p = buf.data();
  if (std::memcmp(p, kCkptMagic, 8) != 0) {
    return DataLossError("bad checkpoint magic: " + path);
  }
  if (GetU64(p + 8) != kCkptVersion) {
    return DataLossError("unsupported checkpoint version: " + path);
  }
  const int64_t panels_done = static_cast<int64_t>(GetU64(p + 24));
  const int64_t len = static_cast<int64_t>(GetU64(p + 32));
  if (panels_done < 0 || len < 0 || len > kMaxCkptDoubles ||
      buf.size() != kCkptHeaderBytes + static_cast<size_t>(len) * 8 + 8) {
    return DataLossError("checkpoint size mismatch: " + path);
  }
  const size_t payload = static_cast<size_t>(len) * 8;
  if (Fnv1aBytes(p, kCkptHeaderBytes + payload) !=
      GetU64(p + kCkptHeaderBytes + payload)) {
    return DataLossError("checkpoint checksum mismatch: " + path);
  }
  ScanCheckpoint ckpt;
  ckpt.key = GetU64(p + 16);
  ckpt.panels_done = panels_done;
  ckpt.flat.resize(static_cast<size_t>(len));
  std::memcpy(ckpt.flat.data(), p + kCkptHeaderBytes, payload);
  return ckpt;
}

void RemoveScanCheckpoint(const std::string& path) {
  (void)::unlink(path.c_str());
}

}  // namespace dash
