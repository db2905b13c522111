// Minimal little-endian binary codec for checkpoint serialization.
//
// Snapshots (see bgp/network.h and core/experiment.h) are encoded as flat
// byte streams so a killed multi-hour sweep can resume from disk. The
// format is explicitly little-endian and fixed-width regardless of host,
// and the reader is bounds-checked: a truncated or corrupt checkpoint
// flips the reader into a sticky failed state instead of reading past the
// end, so decoders can validate once at the end rather than per field.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace re::net {

class BinaryWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(bytes_); }
  // Empties the writer but keeps its capacity, for reuse record by record.
  void clear() noexcept { bytes_.clear(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> bytes) noexcept
      : bytes_(bytes) {}

  std::uint8_t u8() noexcept {
    if (!ensure(1)) return 0;
    return bytes_[pos_++];
  }
  std::uint32_t u32() noexcept {
    if (!ensure(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes_[pos_++]} << (8 * i);
    return v;
  }
  std::uint64_t u64() noexcept {
    if (!ensure(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes_[pos_++]} << (8 * i);
    return v;
  }
  std::int64_t i64() noexcept { return static_cast<std::int64_t>(u64()); }
  double f64() noexcept { return std::bit_cast<double>(u64()); }
  bool boolean() noexcept { return u8() != 0; }
  std::string str() {
    const std::uint64_t n = u64();
    if (!ensure(n)) return {};
    std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_),
                    static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

  // A length prefix about to drive a loop/reserve: failing here (rather
  // than iterating 2^60 times on garbage) keeps corrupt input cheap.
  std::uint64_t length(std::uint64_t sane_max) noexcept {
    const std::uint64_t n = u64();
    if (n > sane_max) {
      failed_ = true;
      return 0;
    }
    return n;
  }

  // Marks the input bad: for a decoder that rejects what it read.
  void fail() noexcept { failed_ = true; }

  bool failed() const noexcept { return failed_; }
  bool at_end() const noexcept { return pos_ == bytes_.size(); }
  // Total input length, consumed or not.
  std::size_t size() const noexcept { return bytes_.size(); }
  // True only when the whole stream was consumed without underrun — the
  // one check a decoder needs at the end.
  bool ok() const noexcept { return !failed_ && at_end(); }

 private:
  bool ensure(std::uint64_t n) noexcept {
    if (failed_ || n > bytes_.size() - pos_) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace re::net
