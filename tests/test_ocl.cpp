#include "ocl/context.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "core/grid.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::ocl {
namespace {

class OclTest : public ::testing::Test {
protected:
  sim::SystemProfile profile_ = sim::make_i7_3820();  // two GPUs
  Context ctx_{profile_};
};

TEST_F(OclTest, ContextExposesProfileDevices) {
  EXPECT_EQ(ctx_.device_count(), 2u);
  EXPECT_EQ(ctx_.device(0).model().name, "Tesla C2070");
  EXPECT_THROW(ctx_.device(5), std::out_of_range);
}

TEST_F(OclTest, BufferReadWrite) {
  Buffer b = ctx_.device(0).create_buffer(64);
  EXPECT_EQ(b.size(), 64u);
  const std::uint32_t v = 0xdeadbeef;
  b.write(8, &v, sizeof(v));
  std::uint32_t back = 0;
  b.read(8, &back, sizeof(back));
  EXPECT_EQ(back, v);
}

TEST_F(OclTest, BufferBoundsChecked) {
  Buffer b(16);
  char data[8] = {};
  EXPECT_THROW(b.write(12, data, 8), std::out_of_range);
  EXPECT_THROW(b.read(16, data, 1), std::out_of_range);
  EXPECT_NO_THROW(b.write(8, data, 8));
}

TEST_F(OclTest, BufferFill) {
  Buffer b(4);
  b.fill(std::byte{0xCD});
  for (std::byte x : b.bytes()) EXPECT_EQ(x, std::byte{0xCD});
}

TEST_F(OclTest, WriteTransfersChargePcieAndQueue) {
  Device& dev = ctx_.device(0);
  Buffer b = dev.create_buffer(1024);
  std::vector<std::byte> src(1024, std::byte{1});
  const Event e = dev.enqueue_write(b, 0, src.data(), src.size());
  const double expected = profile_.pcie.transfer_ns(1024);
  EXPECT_DOUBLE_EQ(e.done_ns, expected);
  EXPECT_DOUBLE_EQ(ctx_.pcie().available_at(), expected);
  EXPECT_DOUBLE_EQ(dev.queue_time(), expected);
  // The functional payload actually landed.
  EXPECT_EQ(b.bytes()[0], std::byte{1});
}

TEST_F(OclTest, TransfersOnTwoDevicesSerializeOnSharedPcie) {
  const Event e0 = ctx_.device(0).charge_write(1000);
  const Event e1 = ctx_.device(1).charge_write(1000);
  EXPECT_GT(e1.done_ns, e0.done_ns);  // shared link: no overlap
  EXPECT_DOUBLE_EQ(e1.done_ns, 2.0 * profile_.pcie.transfer_ns(1000));
}

TEST_F(OclTest, KernelsOnTwoDevicesRunConcurrently) {
  LaunchShape shape;
  shape.items = 100;
  shape.tsize_units = 1000.0;
  shape.bytes_per_item = 16;
  const Event e0 = ctx_.device(0).charge_kernel(shape);
  const Event e1 = ctx_.device(1).charge_kernel(shape);
  EXPECT_DOUBLE_EQ(e0.done_ns, e1.done_ns);  // independent engines
}

TEST_F(OclTest, InOrderQueueSerializesKernels) {
  LaunchShape shape;
  shape.items = 10;
  shape.tsize_units = 100.0;
  Device& dev = ctx_.device(0);
  const Event e1 = dev.charge_kernel(shape);
  const Event e2 = dev.charge_kernel(shape);
  EXPECT_DOUBLE_EQ(e2.done_ns, 2.0 * e1.done_ns);
}

TEST_F(OclTest, DependenciesDelayExecution) {
  LaunchShape shape;
  shape.items = 1;
  shape.tsize_units = 1.0;
  const Event dep{500000.0};
  const Event deps[] = {dep};
  const Event e = ctx_.device(0).charge_kernel(shape, deps);
  EXPECT_GE(e.done_ns, 500000.0);
}

TEST_F(OclTest, KernelFunctionalPayloadRuns) {
  bool ran = false;
  LaunchShape shape;
  shape.items = 1;
  ctx_.device(0).enqueue_kernel(shape, [&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST_F(OclTest, TiledShapeUsesTiledCost) {
  LaunchShape tiled;
  tiled.groups = 5;
  tiled.serial_steps = 7;
  tiled.syncs = 7;
  tiled.tsize_units = 10.0;
  tiled.bytes_per_item = 16;
  const Event e = ctx_.device(0).charge_kernel(tiled);
  const auto& model = ctx_.device(0).model();
  EXPECT_DOUBLE_EQ(e.done_ns, model.tiled_kernel_ns(5, 7, 7, 10.0, 16));
}

TEST_F(OclTest, CopyBetweenDevicesStagesThroughHost) {
  Device& d0 = ctx_.device(0);
  Device& d1 = ctx_.device(1);
  Buffer src = d0.create_buffer(32);
  Buffer dst = d1.create_buffer(32);
  std::vector<std::byte> payload(32, std::byte{7});
  std::memcpy(src.data(), payload.data(), 32);

  const Event e = d0.enqueue_copy_to(d1, src, 0, dst, 0, 32);
  // Functional: data arrived.
  EXPECT_EQ(std::memcmp(dst.data(), payload.data(), 32), 0);
  // Timing: two PCIe legs.
  EXPECT_DOUBLE_EQ(e.done_ns, 2.0 * profile_.pcie.transfer_ns(32));
  EXPECT_EQ(ctx_.pcie().acquisitions(), 2u);
}

TEST_F(OclTest, FinishTimeIsMaxOverQueues) {
  LaunchShape big;
  big.items = 100000;
  big.tsize_units = 100.0;
  LaunchShape small;
  small.items = 1;
  small.tsize_units = 1.0;
  const Event e_big = ctx_.device(0).charge_kernel(big);
  ctx_.device(1).charge_kernel(small);
  EXPECT_DOUBLE_EQ(ctx_.finish_time(), e_big.done_ns);
}

TEST_F(OclTest, ReadBackIsFunctional) {
  Device& dev = ctx_.device(0);
  Buffer b = dev.create_buffer(8);
  const double value = 2.75;
  b.write(0, &value, sizeof(value));
  double out = 0.0;
  dev.enqueue_read(b, 0, &out, sizeof(out));
  EXPECT_DOUBLE_EQ(out, 2.75);
}

// --- BufferArena ----------------------------------------------------------

bool all_bytes_are(const Buffer& b, std::byte v) {
  return std::all_of(b.bytes().begin(), b.bytes().end(), [v](std::byte x) { return x == v; });
}

TEST(BufferArena, CheckoutAfterReturnIsExactSizeAndAllPoison) {
  BufferArena arena;
  std::vector<Buffer> bufs;
  bufs.push_back(arena.checkout(4096, std::byte{0x11}));
  bufs[0].fill(std::byte{0x22});  // dirty it, as a finished phase would
  arena.give_back(bufs);
  EXPECT_TRUE(bufs.empty());
  ASSERT_EQ(arena.footprint_bytes(), 4096u);

  // Smaller request: reuses the 4096-byte storage (nothing new is
  // allocated), but the buffer is exactly the requested size and every
  // byte is the fill.
  bufs.push_back(arena.checkout(1000, core::Grid::kPoison));
  EXPECT_EQ(bufs[0].size(), 1000u);
  EXPECT_TRUE(all_bytes_are(bufs[0], core::Grid::kPoison));
  EXPECT_EQ(arena.footprint_bytes(), 4096u);
  arena.give_back(bufs);

  // Same size again, then larger than any spare: both poison throughout.
  bufs.push_back(arena.checkout(4096, core::Grid::kPoison));
  bufs.push_back(arena.checkout(8192, core::Grid::kPoison));
  EXPECT_EQ(bufs[0].size(), 4096u);
  EXPECT_EQ(bufs[1].size(), 8192u);
  EXPECT_TRUE(all_bytes_are(bufs[0], core::Grid::kPoison));
  EXPECT_TRUE(all_bytes_are(bufs[1], core::Grid::kPoison));
  arena.give_back(bufs);
}

TEST(BufferArena, LiveBytesCountOnlyCheckedOutBuffersAtTheirRequestedSize) {
  BufferArena arena;
  const std::size_t live0 = Buffer::live_bytes();
  std::vector<Buffer> bufs;
  bufs.push_back(arena.checkout(10000, std::byte{0}));
  bufs.push_back(arena.checkout(10000, std::byte{0}));
  EXPECT_EQ(Buffer::live_bytes(), live0 + 20000);
  arena.give_back(bufs);
  EXPECT_EQ(Buffer::live_bytes(), live0);  // spares are not device memory
  EXPECT_EQ(arena.footprint_bytes(), 20000u);

  // A small checkout backed by a big spare counts its own size only.
  Buffer::reset_peak();
  bufs.push_back(arena.checkout(100, std::byte{0}));
  EXPECT_EQ(Buffer::live_bytes(), live0 + 100);
  EXPECT_EQ(Buffer::peak_bytes(), live0 + 100);
  arena.give_back(bufs);
  EXPECT_EQ(Buffer::live_bytes(), live0);
}

TEST(BufferArena, FootprintNeverExceedsTheCheckedOutHighWater) {
  BufferArena arena;
  std::vector<Buffer> quad, strips;
  for (int round = 0; round < 3; ++round) {
    for (int g = 0; g < 4; ++g) quad.push_back(arena.checkout(8192, std::byte{1}));
    EXPECT_EQ(arena.footprint_bytes(), arena.high_water_bytes());
    arena.give_back(quad);
    // The strip pool reuses whole-grid storage: nothing new is held.
    for (int b = 0; b < 2; ++b) strips.push_back(arena.checkout(512, std::byte{1}));
    EXPECT_EQ(arena.footprint_bytes(), 4u * 8192u);
    arena.give_back(strips);
  }
  EXPECT_EQ(arena.high_water_bytes(), 4u * 8192u);

  // Requests larger than every spare free spares first: the four small
  // storages go, and the footprint is just the two new ones.
  for (int g = 0; g < 2; ++g) quad.push_back(arena.checkout(20000, std::byte{1}));
  EXPECT_EQ(arena.high_water_bytes(), 2u * 20000u);
  EXPECT_EQ(arena.footprint_bytes(), 2u * 20000u);
  arena.give_back(quad);
  EXPECT_EQ(arena.footprint_bytes(), 2u * 20000u);
}

TEST(BufferArena, ConcurrentCheckoutAndReturnFromTwoThreads) {
  BufferArena arena;
  const std::size_t live0 = Buffer::live_bytes();
  auto worker = [&arena](std::size_t bytes, std::byte fill) {
    std::vector<Buffer> bufs;
    for (int it = 0; it < 200; ++it) {
      for (int k = 0; k < 3; ++k) bufs.push_back(arena.checkout(bytes + k * 64, fill));
      for (const Buffer& b : bufs) {
        ASSERT_TRUE(all_bytes_are(b, fill));
      }
      for (Buffer& b : bufs) b.fill(std::byte{0});
      arena.give_back(bufs);
    }
  };
  std::thread a(worker, 2048, std::byte{0xA5});
  std::thread b(worker, 700, std::byte{0x5A});
  a.join();
  b.join();
  EXPECT_EQ(Buffer::live_bytes(), live0);
  EXPECT_LE(arena.footprint_bytes(), arena.high_water_bytes());
}

}  // namespace
}  // namespace wavetune::ocl
