#include "util/fnv1a.h"

namespace dash {

uint64_t Fnv1aBytes(const void* data, size_t len, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<uint64_t>(p[i]);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace dash
