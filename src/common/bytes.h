#ifndef DSKG_COMMON_BYTES_H_
#define DSKG_COMMON_BYTES_H_

/// \file bytes.h
/// Little-endian binary codec helpers shared by the persistence tier's
/// on-disk formats (WAL records, snapshot sections) and the update-batch
/// codec.
///
/// Writers append to a `std::string` (the frame-then-checksum pattern
/// wants a contiguous payload anyway); the reader is a bounds-checked
/// cursor over a `string_view` that returns `Status` instead of reading
/// past the end — a truncated or corrupt buffer is a clean error, never
/// undefined behaviour. Integers are encoded fixed-width little-endian so
/// files are byte-identical across compilers on the little-endian
/// platforms the project targets.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dskg {

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU16(std::string* out, uint16_t v) {
  char buf[2];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  out->append(buf, 2);
}

inline void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 8);
}

inline void PutBytes(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

/// Length-prefixed string: u32 byte count + raw bytes.
inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Bounds-checked sequential reader over an immutable byte buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Status ReadU8(uint8_t* v) {
    DSKG_RETURN_NOT_OK(Need(1));
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status ReadU16(uint16_t* v) {
    DSKG_RETURN_NOT_OK(Need(2));
    *v = 0;
    for (int i = 0; i < 2; ++i) {
      *v = static_cast<uint16_t>(
          *v | (static_cast<uint16_t>(
                    static_cast<unsigned char>(data_[pos_ + i]))
                << (8 * i)));
    }
    pos_ += 2;
    return Status::OK();
  }

  Status ReadU32(uint32_t* v) {
    DSKG_RETURN_NOT_OK(Need(4));
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return Status::OK();
  }

  Status ReadU64(uint64_t* v) {
    DSKG_RETURN_NOT_OK(Need(8));
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return Status::OK();
  }

  /// `dst` may be null when `n` is 0 (an empty vector's data()).
  Status ReadBytes(void* dst, size_t n) {
    DSKG_RETURN_NOT_OK(Need(n));
    if (n > 0) std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Counterpart of `PutString`. The view aliases the underlying buffer.
  Status ReadStringView(std::string_view* s) {
    uint32_t len = 0;
    DSKG_RETURN_NOT_OK(ReadU32(&len));
    DSKG_RETURN_NOT_OK(Need(len));
    *s = data_.substr(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  Status ReadString(std::string* s) {
    std::string_view v;
    DSKG_RETURN_NOT_OK(ReadStringView(&v));
    s->assign(v);
    return Status::OK();
  }

  Status Skip(size_t n) {
    DSKG_RETURN_NOT_OK(Need(n));
    pos_ += n;
    return Status::OK();
  }

 private:
  Status Need(size_t n) const {
    if (data_.size() - pos_ < n) {
      return Status::IoError("truncated buffer: need " + std::to_string(n) +
                             " bytes at offset " + std::to_string(pos_) +
                             " of " + std::to_string(data_.size()));
    }
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace dskg

#endif  // DSKG_COMMON_BYTES_H_
