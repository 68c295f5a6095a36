// Simulated OpenCL-style device with an in-order command queue.
//
// A device charges commands (writes, reads, kernel launches, device-to-
// device copies) on discrete-event timelines: one per device execution
// engine, plus the system-shared PCIe link for transfers. It moves no
// data: the hybrid executor performs each command's functional effect on
// its own buffers (ocl::Buffer), and charges the command here.
// The returned Event carries the command's simulated completion time;
// dependencies across devices are expressed by passing Events in.
#pragma once

#include <span>
#include <string>

#include "ocl/trace.hpp"
#include "sim/hardware.hpp"
#include "sim/timeline.hpp"

namespace wavetune::ocl {

/// Completion marker of an enqueued command.
struct Event {
  sim::SimTime done_ns = 0.0;
};

/// Geometry and cost descriptor of one kernel launch.
/// `groups == 0` requests the untiled path: `items` independent work-items
/// scheduled in occupancy waves. `groups > 0` requests the tiled path:
/// that many work-groups, each serialising `serial_steps` intra-group
/// wavefront steps separated by `syncs` work-group barriers.
struct LaunchShape {
  std::size_t items = 0;
  std::size_t groups = 0;
  std::size_t serial_steps = 1;
  std::size_t syncs = 0;
  double tsize_units = 0.0;       ///< per-item computational granularity
  std::size_t bytes_per_item = 0; ///< per-item global-memory traffic
};

class Device {
public:
  /// `pcie`/`pcie_model` describe the system-shared transfer link; both
  /// must outlive the device.
  Device(sim::GpuModel model, sim::Timeline& pcie, const sim::PcieModel& pcie_model,
         std::string queue_name = "gpu-queue");

  const sim::GpuModel& model() const { return model_; }

  // Timing only: each call accounts the simulated cost of one command
  // without touching memory. run() and estimate() both charge through
  // these, which is what guarantees they report identical simulated
  // times: both walk the same schedule through the same timelines.
  Event charge_write(std::size_t bytes, std::span<const Event> deps = {});
  Event charge_read(std::size_t bytes, std::span<const Event> deps = {});
  Event charge_kernel(const LaunchShape& shape, std::span<const Event> deps = {});
  /// Device -> device copy, staged through host memory (two PCIe legs),
  /// exactly as the paper describes for halo swaps: "data elements have to
  /// be first transferred to the host (CPU) memory and then transferred to
  /// respective destination GPUs".
  Event charge_copy_to(Device& dst_device, std::size_t bytes, std::span<const Event> deps = {});

  // Async DMA-engine transfers for the streaming-strip path. Unlike
  // charge_write/charge_read, these hold ONLY the system-shared PCIe link
  // — this device's in-order compute queue is untouched — so a staged
  // strip upload proceeds while the previous strip's kernels execute.
  // Ordering against kernels (buffer reuse, results ready) is expressed
  // purely through `deps` Events.
  Event charge_async_write(std::size_t bytes, std::span<const Event> deps = {});
  Event charge_async_read(std::size_t bytes, std::span<const Event> deps = {});

  /// On-device memory copy (a strip's halo row moved between pool
  /// buffers): occupies the compute queue for bytes * mem_ns_per_byte and
  /// never touches the PCIe link. In-order queue semantics apply — the
  /// copy waits for earlier kernels on this device.
  Event charge_internal_copy(std::size_t bytes, std::span<const Event> deps = {});

  /// Simulated instant at which this device's queue drains.
  sim::SimTime queue_time() const { return queue_.available_at(); }

  /// Execution-engine utilisation accounting.
  const sim::Timeline& queue() const { return queue_; }

  /// Attaches an execution trace (nullptr detaches). The trace must
  /// outlive the device's subsequent commands.
  void set_trace(Trace* trace, std::size_t device_index) {
    trace_ = trace;
    trace_index_ = device_index;
  }

private:
  sim::GpuModel model_;
  sim::Timeline& pcie_;
  const sim::PcieModel& pcie_model_;
  sim::Timeline queue_;
  Trace* trace_ = nullptr;
  std::size_t trace_index_ = 0;

  sim::SimTime deps_ready(std::span<const Event> deps) const;
  void record(CommandKind kind, sim::SimTime start, sim::SimTime end, std::size_t bytes,
              std::size_t items) const;
};

}  // namespace wavetune::ocl
