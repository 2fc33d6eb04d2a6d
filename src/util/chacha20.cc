#include "util/chacha20.h"

#include "util/check.h"
#include "util/random.h"

namespace dash {
namespace {

inline uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

// Blocks computed side by side: each state word holds L lanes, one per
// consecutive block counter, so every quarter-round step is a short
// independent loop the compiler can keep in vector registers.
template <size_t L>
using Lanes = std::array<uint32_t, L>;
template <size_t L>
using Blocks = std::array<std::array<uint32_t, 16>, L>;

// Bulk calls run four blocks in lockstep.
constexpr size_t kLanes = 4;

template <size_t L>
inline void QuarterRound(Lanes<L>& a, Lanes<L>& b, Lanes<L>& c, Lanes<L>& d) {
  for (size_t l = 0; l < L; ++l) {
    a[l] += b[l]; d[l] ^= a[l]; d[l] = Rotl32(d[l], 16);
    c[l] += d[l]; b[l] ^= c[l]; b[l] = Rotl32(b[l], 12);
    a[l] += b[l]; d[l] ^= a[l]; d[l] = Rotl32(d[l], 8);
    c[l] += d[l]; b[l] ^= c[l]; b[l] = Rotl32(b[l], 7);
  }
}

// The RFC 8439 block function on L consecutive counters starting at
// state[12]: out[b] is the keystream block of counter state[12] + b.
template <size_t L>
void ChaChaBlocks(const std::array<uint32_t, 16>& state, Blocks<L>* out) {
  std::array<Lanes<L>, 16> x;
  for (int w = 0; w < 16; ++w) x[w].fill(state[w]);
  for (size_t l = 0; l < L; ++l) x[12][l] += static_cast<uint32_t>(l);
  const std::array<Lanes<L>, 16> input = x;
  for (int round = 0; round < 10; ++round) {  // 20 rounds = 10 double rounds
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int w = 0; w < 16; ++w) {
    for (size_t l = 0; l < L; ++l) (*out)[l][w] = x[w][l] + input[w][l];
  }
}

}  // namespace

ChaCha20Rng::ChaCha20Rng(const Key& key, uint64_t stream_id) {
  // "expand 32-byte k" constants per RFC 8439.
  state_[0] = 0x61707865u;
  state_[1] = 0x3320646eu;
  state_[2] = 0x79622d32u;
  state_[3] = 0x6b206574u;
  for (int i = 0; i < 8; ++i) {
    state_[4 + i] = static_cast<uint32_t>(key[4 * i]) |
                    static_cast<uint32_t>(key[4 * i + 1]) << 8 |
                    static_cast<uint32_t>(key[4 * i + 2]) << 16 |
                    static_cast<uint32_t>(key[4 * i + 3]) << 24;
  }
  state_[12] = 0;  // block counter
  state_[13] = 0;  // nonce word 0 (reserved)
  state_[14] = static_cast<uint32_t>(stream_id);
  state_[15] = static_cast<uint32_t>(stream_id >> 32);
}

ChaCha20Rng::Key ChaCha20Rng::KeyFromSeed(uint64_t seed) {
  Key key;
  uint64_t sm = seed;
  for (int i = 0; i < 4; ++i) {
    const uint64_t w = SplitMix64(&sm);
    for (int b = 0; b < 8; ++b) {
      key[8 * i + b] = static_cast<uint8_t>(w >> (8 * b));
    }
  }
  return key;
}

void ChaCha20Rng::Refill() {
  Blocks<1> blocks{};
  ChaChaBlocks<1>(state_, &blocks);
  block_ = blocks[0];
  state_[12] += 1;
  DASH_CHECK(state_[12] != 0) << "ChaCha20 block counter wrapped";
  next_word_ = 0;
}

uint64_t ChaCha20Rng::NextU64() {
  if (next_word_ >= 16) Refill();
  const uint64_t lo = block_[next_word_];
  const uint64_t hi = block_[next_word_ + 1];
  next_word_ += 2;
  return lo | (hi << 32);
}

template <typename Op>
void ChaCha20Rng::Combine(uint64_t* values, size_t n, Op op) {
  size_t i = 0;
  // Finish the block NextU64 has started, then run whole blocks kLanes
  // at a time, then hand the tail back to NextU64.
  for (; i < n && next_word_ < 16; ++i) values[i] = op(values[i], NextU64());
  constexpr size_t kWordsPerBatch = 8 * kLanes;
  Blocks<kLanes> blocks{};
  for (; n - i >= kWordsPerBatch; i += kWordsPerBatch) {
    // Refill's wrap check for each of the kLanes counters used here.
    DASH_CHECK(state_[12] < 0xFFFFFFFFu - (kLanes - 1))
        << "ChaCha20 block counter wrapped";
    ChaChaBlocks<kLanes>(state_, &blocks);
    state_[12] += kLanes;
    uint64_t* v = values + i;
    for (const auto& block : blocks) {
      for (int w = 0; w < 16; w += 2, ++v) {
        *v = op(*v, static_cast<uint64_t>(block[w]) |
                        (static_cast<uint64_t>(block[w + 1]) << 32));
      }
    }
  }
  for (; i < n; ++i) values[i] = op(values[i], NextU64());
}

void ChaCha20Rng::AddTo(uint64_t* values, size_t n) {
  Combine(values, n, [](uint64_t v, uint64_t k) { return v + k; });
}

void ChaCha20Rng::SubtractFrom(uint64_t* values, size_t n) {
  Combine(values, n, [](uint64_t v, uint64_t k) { return v - k; });
}

}  // namespace dash
