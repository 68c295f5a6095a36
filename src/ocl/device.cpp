#include "ocl/device.hpp"

#include <algorithm>

namespace wavetune::ocl {

Device::Device(sim::GpuModel model, sim::Timeline& pcie, const sim::PcieModel& pcie_model,
               std::string queue_name)
    : model_(std::move(model)), pcie_(pcie), pcie_model_(pcie_model),
      queue_(std::move(queue_name)) {}

sim::SimTime Device::deps_ready(std::span<const Event> deps) const {
  sim::SimTime t = 0.0;
  for (const Event& e : deps) t = std::max(t, e.done_ns);
  return t;
}

void Device::record(CommandKind kind, sim::SimTime start, sim::SimTime end, std::size_t bytes,
                    std::size_t items) const {
  if (!trace_) return;
  TraceRecord r;
  r.device = trace_index_;
  r.kind = kind;
  r.start_ns = start;
  r.end_ns = end;
  r.bytes = bytes;
  r.items = items;
  trace_->add(r);
}

Event Device::charge_write(std::size_t bytes, std::span<const Event> deps) {
  // A transfer holds both the shared PCIe link and this device's queue slot
  // (in-order semantics: later commands on this device cannot overtake it).
  const sim::SimTime earliest = std::max(deps_ready(deps), queue_.available_at());
  const auto slot = pcie_.acquire(earliest, pcie_model_.transfer_ns(bytes));
  queue_.acquire(slot.start, slot.end - slot.start);
  record(CommandKind::HostToDevice, slot.start, slot.end, bytes, 0);
  return Event{slot.end};
}

Event Device::charge_read(std::size_t bytes, std::span<const Event> deps) {
  const sim::SimTime earliest = std::max(deps_ready(deps), queue_.available_at());
  const auto slot = pcie_.acquire(earliest, pcie_model_.transfer_ns(bytes));
  queue_.acquire(slot.start, slot.end - slot.start);
  record(CommandKind::DeviceToHost, slot.start, slot.end, bytes, 0);
  return Event{slot.end};
}

Event Device::charge_kernel(const LaunchShape& shape, std::span<const Event> deps) {
  double duration = 0.0;
  if (shape.groups == 0) {
    duration = model_.kernel_ns(shape.items, shape.tsize_units, shape.bytes_per_item);
  } else {
    duration = model_.tiled_kernel_ns(shape.groups, shape.serial_steps, shape.syncs,
                                      shape.tsize_units, shape.bytes_per_item);
  }
  const sim::SimTime earliest = std::max(deps_ready(deps), queue_.available_at());
  const auto slot = queue_.acquire(earliest, duration);
  record(CommandKind::Kernel, slot.start, slot.end, 0,
         shape.items ? shape.items : shape.groups);
  return Event{slot.end};
}

Event Device::charge_async_write(std::size_t bytes, std::span<const Event> deps) {
  // DMA path: the transfer contends for the shared PCIe link only; the
  // compute queue keeps executing whatever it already holds.
  const auto slot = pcie_.acquire(deps_ready(deps), pcie_model_.transfer_ns(bytes));
  record(CommandKind::HostToDevice, slot.start, slot.end, bytes, 0);
  return Event{slot.end};
}

Event Device::charge_async_read(std::size_t bytes, std::span<const Event> deps) {
  const auto slot = pcie_.acquire(deps_ready(deps), pcie_model_.transfer_ns(bytes));
  record(CommandKind::DeviceToHost, slot.start, slot.end, bytes, 0);
  return Event{slot.end};
}

Event Device::charge_internal_copy(std::size_t bytes, std::span<const Event> deps) {
  const double duration = static_cast<double>(bytes) * model_.mem_ns_per_byte;
  const sim::SimTime earliest = std::max(deps_ready(deps), queue_.available_at());
  const auto slot = queue_.acquire(earliest, duration);
  record(CommandKind::DeviceCopy, slot.start, slot.end, bytes, 0);
  return Event{slot.end};
}

Event Device::charge_copy_to(Device& dst_device, std::size_t bytes,
                             std::span<const Event> deps) {
  const Event d2h = charge_read(bytes, deps);
  const Event deps2[] = {d2h};
  return dst_device.charge_write(bytes, deps2);
}

}  // namespace wavetune::ocl
