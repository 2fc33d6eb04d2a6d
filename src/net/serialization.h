// Byte-level serialization for protocol messages.
//
// All multi-byte values are little-endian; doubles travel as their IEEE-754
// bit patterns. The writers/readers are deliberately explicit (no
// reflection) so that the byte counts every Transport reports are exactly
// the bytes a real wire implementation would carry.

#ifndef DASH_NET_SERIALIZATION_H_
#define DASH_NET_SERIALIZATION_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"

namespace dash {

// Appends typed values to a byte buffer.
class ByteWriter {
 public:
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);

  // Length-prefixed sequences.
  void PutU64Vector(const std::vector<uint64_t>& v);
  void PutDoubleVector(const Vector& v);
  void PutMatrix(const Matrix& m);

  size_t size() const { return buffer_.size(); }

  // Moves the accumulated bytes out; the writer becomes empty.
  std::vector<uint8_t> Take() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

// Reads typed values back; every getter fails with InvalidArgument on
// truncated or malformed input rather than reading out of bounds.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& buffer)
      : buffer_(buffer) {}

  // The reader only borrows the buffer; reading from a temporary would
  // dangle, so it is rejected at compile time.
  explicit ByteReader(std::vector<uint8_t>&&) = delete;

  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::vector<uint64_t>> GetU64Vector();
  Result<Vector> GetDoubleVector();
  Result<Matrix> GetMatrix();

  // True when every byte has been consumed.
  bool AtEnd() const { return pos_ == buffer_.size(); }
  size_t remaining() const { return buffer_.size() - pos_; }

 private:
  Status Need(size_t n) const;

  const std::vector<uint8_t>& buffer_;
  size_t pos_ = 0;
};

}  // namespace dash

#endif  // DASH_NET_SERIALIZATION_H_
