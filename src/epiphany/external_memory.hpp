// Board SDRAM backing store (the paper's "off-chip SDRAM" holding the full
// 1024x1001 image between FFBP merge iterations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/assert.hpp"

namespace esarp::ep {

/// The store is an anonymous mapping: it reads as zeros, and only the pages
/// a run touches become resident. A zero-filled heap block would be written
/// in full by every Machine, and where the allocator places it would make
/// the process's peak memory depend on the allocation history before it.
class ExternalMemory {
public:
  explicit ExternalMemory(std::size_t bytes);
  ~ExternalMemory();
  ExternalMemory(const ExternalMemory&) = delete;
  ExternalMemory& operator=(const ExternalMemory&) = delete;

  [[nodiscard]] std::size_t capacity() const { return size_; }
  [[nodiscard]] std::size_t used() const { return cursor_; }

  /// Allocate n objects of T (8-byte aligned) in SDRAM.
  template <typename T>
  std::span<T> alloc(std::size_t n) {
    const std::size_t aligned = (cursor_ + 7) & ~std::size_t{7};
    const std::size_t bytes = n * sizeof(T);
    if (aligned + bytes > size_)
      throw ContractViolation("ExternalMemory overflow");
    cursor_ = aligned + bytes;
    return {reinterpret_cast<T*>(data_ + aligned), n};
  }

  [[nodiscard]] std::uint32_t offset_of(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    ESARP_EXPECTS(b >= data_ && b < data_ + size_);
    return static_cast<std::uint32_t>(b - data_);
  }

  [[nodiscard]] bool owns(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= data_ && b < data_ + size_;
  }

  void reset() { cursor_ = 0; }

private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cursor_ = 0;
};

} // namespace esarp::ep
