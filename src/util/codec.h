// Fixed-width little-endian field codecs shared by every binary format in
// the repo: the .dmtbin row cache (src/data/dmtbin.cc), the wire frames
// (src/net/) and the protocol messages they carry. The repo only targets
// little-endian hosts (x86-64 / AArch64), so the codecs are raw memcpys;
// the explicit widths keep every layout independent of host types.
//
//  * PutLE/GetLE — fixed-offset fields inside a preallocated header block
//    (the .dmtbin 64-byte header style).
//  * ByteWriter/ByteReader — sequential append/consume over a byte buffer
//    (the wire payload style). ByteReader never aborts: an overrun, a
//    non-finite double, a bool byte other than 0/1, a count the remaining
//    bytes cannot hold or a row of the wrong width latches ok() == false,
//    so malformed network input is a decode failure, not a crash.
//
// Field lists. A message type writes its layout once, and the same list
// encodes (ByteWriter, message const) and decodes (ByteReader):
//
//   template <typename IO, typename M>
//   static bool Fields(IO& io, M& m) {
//     return io.Field(m.weight) && io.Field(m.element) && io.Row(m.row);
//   }
//
// Field() takes an arithmetic value, a bool (one byte), a string (u8
// length, then the bytes) or a vector of (u64, f64) pairs (u32 count, then
// the pairs); Row() a std::vector<double> of the run's row width (u32
// count, then the doubles). Each returns ok(), so a decode stops at the
// first bad field.
#ifndef DMT_UTIL_CODEC_H_
#define DMT_UTIL_CODEC_H_

#include <cmath>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/contracts.h"

namespace dmt {

/// Writes `value` at `buf + offset` as its little-endian byte image.
template <typename T>
inline void PutLE(char* buf, size_t offset, T value) {
  std::memcpy(buf + offset, &value, sizeof(T));
}

/// Reads a T from `buf + offset` (little-endian byte image).
template <typename T>
inline T GetLE(const char* buf, size_t offset) {
  T value;
  std::memcpy(&value, buf + offset, sizeof(T));
  return value;
}

/// Sequential little-endian appender over a caller-owned byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    const size_t at = out_->size();
    out_->resize(at + sizeof(T));
    std::memcpy(out_->data() + at, &value, sizeof(T));
  }

  void PutBytes(const void* data, size_t n) {
    const size_t at = out_->size();
    out_->resize(at + n);
    if (n != 0) std::memcpy(out_->data() + at, data, n);
  }

  // Field-list interface (see the file comment); writing never fails.
  template <typename T>
  bool Field(const T& value) {
    static_assert(std::is_arithmetic_v<T>, "fields are fixed-width");
    Put<T>(value);
    return true;
  }
  bool Field(bool value) { return Field<uint8_t>(value ? 1 : 0); }
  bool Field(const std::vector<std::pair<uint64_t, double>>& v) {
    Put<uint32_t>(static_cast<uint32_t>(v.size()));
    for (const auto& [key, value] : v) {
      Put<uint64_t>(key);
      Put<double>(value);
    }
    return true;
  }
  bool Field(const std::string& s) {  // at most 255 bytes
    Put<uint8_t>(static_cast<uint8_t>(s.size()));
    PutBytes(s.data(), s.size());
    return true;
  }
  bool Row(const std::vector<double>& row) {
    Put<uint32_t>(static_cast<uint32_t>(row.size()));
    PutBytes(row.data(), row.size() * sizeof(double));
    return true;
  }

 private:
  std::vector<uint8_t>* out_;
};

/// Sequential little-endian consumer with latched validation. `row_width`
/// is the only length Row() accepts (the run's vector dimension; 0 when
/// the payloads carry no rows).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size, size_t row_width = 0)
      : data_(data), size_(size), row_width_(row_width) {}

  /// The next T; a non-finite floating-point value is a decode failure.
  template <typename T>
  T Get() {
    T value{};
    if (!TakeInto(&value, sizeof(T))) return T{};
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) {
        Fail();
        return T{};
      }
    }
    return value;
  }

  /// Copies `n` doubles out, each of which must be finite.
  DMT_UNTRUSTED_INPUT
  bool GetDoubles(double* out, size_t n) {
    if (n > remaining() / sizeof(double)) return Fail();
    if (!TakeInto(out, n * sizeof(double))) return false;
    for (size_t i = 0; i < n; ++i) {
      if (!std::isfinite(out[i])) return Fail();
    }
    return true;
  }

  // Field-list interface (see the file comment).
  template <typename T>
  bool Field(T& value) {
    static_assert(std::is_arithmetic_v<T>, "fields are fixed-width");
    value = Get<T>();
    return ok_;
  }
  bool Field(bool& value) {
    const uint8_t byte = Get<uint8_t>();
    if (byte > 1) return Fail();
    value = byte == 1;
    return ok_;
  }
  bool Field(std::vector<std::pair<uint64_t, double>>& v) {
    return GetPairs(&v);
  }
  bool Field(std::string& s) { return GetString(&s); }
  DMT_UNTRUSTED_INPUT
  bool Row(std::vector<double>& row) {
    const uint32_t count = Get<uint32_t>();
    if (!ok_ || count != row_width_ ||
        count > remaining() / sizeof(double)) {
      return Fail();
    }
    row.resize(count);
    return GetDoubles(row.data(), count);
  }

  /// True while every read so far stayed in bounds and in domain.
  bool ok() const { return ok_; }
  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }
  /// True when the payload was consumed exactly and fully.
  bool exhausted() const { return ok_ && pos_ == size_; }
  /// The only length Row() accepts.
  size_t row_width() const { return row_width_; }

 private:
  // The decoders that size an allocation from the payload, each bounded
  // by the bytes left (names distinct from the Field overloads, so that
  // dmt_lint binds each annotation to its own definition).
  DMT_UNTRUSTED_INPUT
  bool GetPairs(std::vector<std::pair<uint64_t, double>>* v) {
    const uint32_t count = Get<uint32_t>();
    if (!ok_ || count > remaining() / 16) return Fail();
    v->resize(count);
    for (auto& [key, value] : *v) {
      key = Get<uint64_t>();
      value = Get<double>();
    }
    return ok_;
  }
  DMT_UNTRUSTED_INPUT
  bool GetString(std::string* s) {
    const uint8_t size = Get<uint8_t>();
    if (!ok_ || size > remaining()) return Fail();
    s->resize(size);
    return TakeInto(s->data(), size);
  }

  bool Fail() {
    ok_ = false;
    return false;
  }

  // Copies `n` raw bytes out; zero-fills (and latches !ok) on overrun.
  bool TakeInto(void* out, size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      std::memset(out, 0, n);
      return false;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t row_width_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dmt

#endif  // DMT_UTIL_CODEC_H_
