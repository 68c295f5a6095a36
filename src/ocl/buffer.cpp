#include "ocl/buffer.hpp"

#include <algorithm>

namespace wavetune::ocl {

std::atomic<std::size_t> Buffer::live_{0};
std::atomic<std::size_t> Buffer::peak_{0};

void Buffer::fill(std::byte value) { std::fill(storage_.begin(), storage_.end(), value); }

Buffer BufferArena::checkout(std::size_t bytes, std::byte fill) {
  std::vector<std::byte> storage;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Best fit: spares are kept in ascending capacity order.
    const auto fit = std::find_if(spare_.begin(), spare_.end(),
                                  [&](const auto& s) { return s.capacity() >= bytes; });
    if (fit != spare_.end()) {
      storage = std::move(*fit);
      spare_.erase(fit);
      spare_bytes_ -= storage.capacity();
    } else {
      // Keep the footprint within the new high-water mark: free the
      // smallest spares (all too small for this request anyway) before
      // allocating.
      const std::size_t high = std::max(high_water_, out_bytes_ + bytes);
      while (!spare_.empty() && spare_bytes_ + out_bytes_ + bytes > high) {
        spare_bytes_ -= spare_.front().capacity();
        spare_.erase(spare_.begin());
      }
      storage.reserve(bytes);
    }
    // Room for every checked-out storage among the spares, so that
    // give_back() never allocates.
    spare_.reserve(spare_.size() + out_count_ + 1);
    ++out_count_;
    out_bytes_ += storage.capacity();
    high_water_ = std::max(high_water_, out_bytes_);
  }
  return Buffer(std::move(storage), bytes, fill);
}

void BufferArena::give_back(std::vector<Buffer>& bufs) noexcept {
  if (bufs.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (Buffer& b : bufs) {
    std::vector<std::byte> storage = b.release();
    const std::size_t cap = storage.capacity();
    --out_count_;
    out_bytes_ -= cap;
    spare_bytes_ += cap;
    const auto at = std::upper_bound(
        spare_.begin(), spare_.end(), cap,
        [](std::size_t c, const std::vector<std::byte>& s) { return c < s.capacity(); });
    spare_.insert(at, std::move(storage));
  }
  bufs.clear();
}

std::size_t BufferArena::footprint_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spare_bytes_ + out_bytes_;
}

std::size_t BufferArena::high_water_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

}  // namespace wavetune::ocl
