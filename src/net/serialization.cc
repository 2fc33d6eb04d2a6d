#include "net/serialization.h"

#include <bit>
#include <cstring>
#include <string>

namespace dash {

// The vector forms move whole blocks: a host word IS its little-endian
// wire encoding only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "bulk vector serialization assumes a little-endian host");

namespace {

// Appends the raw bytes of `n` 8-byte words.
template <typename T>
void AppendWords(const T* data, size_t n, std::vector<uint8_t>* buffer) {
  static_assert(sizeof(T) == 8);
  const auto* bytes = reinterpret_cast<const uint8_t*>(data);
  buffer->insert(buffer->end(), bytes, bytes + 8 * n);
}

}  // namespace

void ByteWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void ByteWriter::PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

void ByteWriter::PutU64Vector(const std::vector<uint64_t>& v) {
  PutU64(v.size());
  AppendWords(v.data(), v.size(), &buffer_);
}

void ByteWriter::PutDoubleVector(const Vector& v) {
  PutU64(v.size());
  AppendWords(v.data(), v.size(), &buffer_);
}

void ByteWriter::PutMatrix(const Matrix& m) {
  PutI64(m.rows());
  PutI64(m.cols());
  AppendWords(m.data(), static_cast<size_t>(m.size()), &buffer_);
}

Status ByteReader::Need(size_t n) const {
  if (pos_ + n > buffer_.size()) {
    return InvalidArgumentError("truncated message: need " +
                                std::to_string(n) + " bytes, have " +
                                std::to_string(buffer_.size() - pos_));
  }
  return Status::Ok();
}

Result<uint32_t> ByteReader::GetU32() {
  DASH_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buffer_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  DASH_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buffer_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::GetI64() {
  DASH_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::GetDouble() {
  DASH_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return std::bit_cast<double>(v);
}

Result<std::vector<uint64_t>> ByteReader::GetU64Vector() {
  DASH_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  // Bound the count by the bytes actually present BEFORE allocating:
  // a corrupted length prefix like 2^61 would make 8 * n wrap around,
  // slip past Need() and then abort inside the huge vector allocation.
  if (n > remaining() / 8) {
    return InvalidArgumentError("truncated message: vector length " +
                                std::to_string(n) + " exceeds the " +
                                std::to_string(remaining()) +
                                " bytes remaining");
  }
  std::vector<uint64_t> out(n);
  if (n > 0) std::memcpy(out.data(), buffer_.data() + pos_, 8 * n);
  pos_ += 8 * n;
  return out;
}

Status ByteReader::AddU64VectorTo(std::span<uint64_t> acc) {
  DASH_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  if (n > remaining() / 8) {  // see GetU64Vector: 8 * n may wrap
    return InvalidArgumentError("truncated message: vector length " +
                                std::to_string(n) + " exceeds the " +
                                std::to_string(remaining()) +
                                " bytes remaining");
  }
  if (n != acc.size()) {
    return InternalError("vector length " + std::to_string(n) +
                         " does not match the running total's " +
                         std::to_string(acc.size()));
  }
  const uint8_t* src = buffer_.data() + pos_;
  for (size_t e = 0; e < acc.size(); ++e) {
    uint64_t v;
    std::memcpy(&v, src + 8 * e, sizeof(v));
    acc[e] += v;
  }
  pos_ += 8 * acc.size();
  return Status::Ok();
}

Result<Vector> ByteReader::GetDoubleVector() {
  DASH_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  if (n > remaining() / 8) {  // see GetU64Vector: 8 * n may wrap
    return InvalidArgumentError("truncated message: vector length " +
                                std::to_string(n) + " exceeds the " +
                                std::to_string(remaining()) +
                                " bytes remaining");
  }
  Vector out(n);
  if (n > 0) std::memcpy(out.data(), buffer_.data() + pos_, 8 * n);
  pos_ += 8 * n;
  return out;
}

Result<Matrix> ByteReader::GetMatrix() {
  DASH_ASSIGN_OR_RETURN(int64_t rows, GetI64());
  DASH_ASSIGN_OR_RETURN(int64_t cols, GetI64());
  if (rows < 0 || cols < 0 || (cols > 0 && rows > (1LL << 40) / cols)) {
    return InvalidArgumentError("implausible matrix shape in message");
  }
  DASH_RETURN_IF_ERROR(Need(8 * static_cast<size_t>(rows * cols)));
  Matrix m(rows, cols);
  const size_t bytes = 8 * static_cast<size_t>(m.size());
  if (bytes > 0) std::memcpy(m.data(), buffer_.data() + pos_, bytes);
  pos_ += bytes;
  return m;
}

}  // namespace dash
