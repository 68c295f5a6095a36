// Simulated device buffer.
//
// A Buffer owns host-side backing storage standing in for device global
// memory. Functional kernel payloads read and write this storage directly,
// so data placement mistakes (missing transfer, stale halo) show up as
// wrong values, not just wrong timings.
//
// Every Buffer also participates in process-wide residency accounting:
// live_bytes() is the sum of all live buffers' sizes and peak_bytes() the
// high-water mark since the last reset_peak(). The streaming-strip tests
// assert through these counters that an out-of-core run's device
// footprint stays at O(strip_rows x dim) instead of O(dim^2).
//
// A BufferArena recycles Buffer storage across checkouts so that a hot
// caller (the executor's GPU phases) stops paying a fresh allocation,
// page faults and a zero fill per buffer. Only checked-out buffers count
// toward live_bytes()/peak_bytes(), each at its requested size: the
// arena's spare storage is host memory, not simulated device memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace wavetune::ocl {

class Buffer {
public:
  Buffer() = default;
  explicit Buffer(std::size_t bytes) : storage_(bytes) { account(0, storage_.size()); }
  /// Adopts `storage` as the backing, resized to exactly `bytes` with
  /// every byte set to `fill`. Storage capacity beyond `bytes` is reused
  /// when it suffices and is never accounted.
  Buffer(std::vector<std::byte>&& storage, std::size_t bytes, std::byte fill)
      : storage_(std::move(storage)) {
    storage_.assign(bytes, fill);
    account(0, storage_.size());
  }
  ~Buffer() { account(storage_.size(), 0); }

  Buffer(const Buffer& other) : storage_(other.storage_) { account(0, storage_.size()); }
  Buffer& operator=(const Buffer& other) {
    if (this != &other) {
      const std::size_t old = storage_.size();
      storage_ = other.storage_;
      account(old, storage_.size());
    }
    return *this;
  }
  Buffer(Buffer&& other) noexcept : storage_(std::move(other.storage_)) {
    // Accounting responsibility moves with the storage: no net change.
    other.storage_.clear();
    other.storage_.shrink_to_fit();
  }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      const std::size_t old = storage_.size();
      storage_ = std::move(other.storage_);
      other.storage_.clear();
      other.storage_.shrink_to_fit();
      account(old, 0);  // the moved-in bytes stay accounted from `other`'s ctor
    }
    return *this;
  }

  std::size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }

  /// Hands the backing storage out (capacity intact) and leaves the buffer
  /// empty; its bytes leave live_bytes().
  std::vector<std::byte> release() {
    account(storage_.size(), 0);
    return std::exchange(storage_, {});
  }

  std::byte* data() { return storage_.data(); }
  const std::byte* data() const { return storage_.data(); }

  std::span<std::byte> bytes() { return storage_; }
  std::span<const std::byte> bytes() const { return storage_; }

  /// Fills the buffer with a byte value (debugging aid; devices in the real
  /// world do not zero memory for you, and neither does this one by default
  /// beyond vector initialisation).
  void fill(std::byte value);

  /// Process-wide residency accounting across ALL live Buffers.
  static std::size_t live_bytes() { return live_.load(std::memory_order_relaxed); }
  static std::size_t peak_bytes() { return peak_.load(std::memory_order_relaxed); }
  /// Resets the high-water mark to the current live total.
  static void reset_peak() {
    peak_.store(live_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  }

private:
  static void account(std::size_t old_bytes, std::size_t new_bytes) {
    if (old_bytes == new_bytes) return;
    if (new_bytes > old_bytes) {
      const std::size_t grown = new_bytes - old_bytes;
      const std::size_t now = live_.fetch_add(grown, std::memory_order_relaxed) + grown;
      std::size_t seen = peak_.load(std::memory_order_relaxed);
      while (seen < now &&
             !peak_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
      }
    } else {
      live_.fetch_sub(old_bytes - new_bytes, std::memory_order_relaxed);
    }
  }

  static std::atomic<std::size_t> live_;
  static std::atomic<std::size_t> peak_;

  std::vector<std::byte> storage_;
};

/// Thread-safe recycler of Buffer storage. checkout() hands out a buffer
/// of exactly the requested size, filled with the requested byte, backed
/// by the smallest spare storage whose capacity suffices (a fresh
/// allocation only when none does); give_back() returns storage to the
/// spares. The arena's footprint — spare plus checked-out capacity —
/// never exceeds the largest capacity it has had checked out at once:
/// before a fresh allocation it frees spares until the total fits. It
/// therefore needs no size knob, and a caller that checks out the same
/// shapes over and over reaches a steady state with no allocation.
/// The mutex is taken once per checkout()/give_back() call; the fill
/// runs outside it.
class BufferArena {
public:
  /// A buffer of exactly `bytes` bytes, every one set to `fill`.
  Buffer checkout(std::size_t bytes, std::byte fill);
  /// Returns the storage of every buffer in `bufs` — each checked out of
  /// THIS arena — to the spares, and clears `bufs`. Never allocates, so
  /// it is safe on an unwinding path.
  void give_back(std::vector<Buffer>& bufs) noexcept;

  std::size_t footprint_bytes() const;   ///< spare + checked-out capacity
  std::size_t high_water_bytes() const;  ///< most capacity checked out at once

private:
  mutable std::mutex mu_;
  std::vector<std::vector<std::byte>> spare_;  ///< ascending capacity
  std::size_t spare_bytes_ = 0;
  std::size_t out_count_ = 0;  ///< buffers checked out
  std::size_t out_bytes_ = 0;  ///< their storage capacity
  std::size_t high_water_ = 0;
};

}  // namespace wavetune::ocl
