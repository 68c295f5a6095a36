#include "core/params.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/diag.hpp"

namespace wavetune::core {

void InputParams::validate() const {
  if (dim == 0) throw std::invalid_argument("InputParams: dim == 0");
  if (!std::isfinite(tsize)) throw std::invalid_argument("InputParams: non-finite tsize");
  if (tsize < 0.0) throw std::invalid_argument("InputParams: negative tsize");
  if (dsize < 0) throw std::invalid_argument("InputParams: negative dsize");
}

std::string InputParams::describe() const {
  std::ostringstream ss;
  ss << "dim=" << dim << " tsize=" << tsize << " dsize=" << dsize << " (" << elem_bytes()
     << " B/elem)";
  return ss.str();
}

util::Json InputParams::to_json() const {
  util::Json j = util::Json::object();
  j["dim"] = util::Json(dim);
  j["tsize"] = util::Json(tsize);
  j["dsize"] = util::Json(dsize);
  return j;
}

InputParams InputParams::from_json(const util::Json& j) {
  InputParams p;
  p.dim = static_cast<std::size_t>(j.at("dim").as_int());
  p.tsize = j.at("tsize").as_number();
  p.dsize = static_cast<int>(j.at("dsize").as_int());
  p.validate();
  return p;
}

std::size_t TunableParams::gpu_d_begin(std::size_t dim) const {
  if (band < 0) return 0;
  const auto main_d = static_cast<long long>(main_diagonal(dim));
  return static_cast<std::size_t>(std::max(0LL, main_d - band));
}

std::size_t TunableParams::gpu_d_end(std::size_t dim) const {
  if (band < 0) return 0;
  const auto main_d = static_cast<long long>(main_diagonal(dim));
  const auto last = static_cast<long long>(num_diagonals(dim));
  return static_cast<std::size_t>(std::min(last, main_d + band + 1));
}

long long TunableParams::max_halo(std::size_t dim, long long band) {
  if (band < 0) return -1;
  const long long clamped_band = std::min<long long>(band, static_cast<long long>(dim) - 1);
  // Length of the first offloaded diagonal d0 = dim-1-band is d0+1 = dim-band.
  const long long first_len = static_cast<long long>(dim) - clamped_band;
  const long long split = static_cast<long long>(dim / 2);
  return std::max(0LL, std::min(first_len / 2, split - 1));
}

long long TunableParams::max_halo_multi(std::size_t dim, long long band, int gpus) {
  if (band < 0 || gpus < 2) return -1;
  if (gpus == 2) return max_halo(dim, band);
  // Narrowest band of the N-way row split: the strip exchanged across a
  // boundary must lie entirely within the upstream device's ownership.
  long long narrowest = static_cast<long long>(dim);
  for (int g = 0; g < gpus; ++g) {
    const auto lo = static_cast<long long>(dim) * g / gpus;
    const auto hi = static_cast<long long>(dim) * (g + 1) / gpus;
    narrowest = std::min(narrowest, hi - lo);
  }
  const long long clamped_band = std::min<long long>(band, static_cast<long long>(dim) - 1);
  const long long first_len = static_cast<long long>(dim) - clamped_band;
  return std::max(0LL, std::min(first_len / 2, narrowest - 1));
}

TunableParams TunableParams::normalized(std::size_t dim) const {
  if (dim == 0) throw std::invalid_argument("TunableParams::normalized: dim == 0");
  TunableParams p = *this;
  p.cpu_tile = std::clamp(p.cpu_tile, 1, static_cast<int>(std::min<std::size_t>(dim, 1 << 20)));
  p.gpus = std::max(p.gpus, 0);
  if (p.band < 0) {
    p.band = -1;
    p.halo = -1;
    p.gpu_tile = 1;
    p.gpus = 0;
    return p;
  }
  p.band = std::min(p.band, static_cast<long long>(dim) - 1);
  if (p.gpus >= 3) {
    // N-way extension: needs a halo and no more devices than rows. A grid
    // too small for three devices falls through to the 1-/2-GPU rules
    // below (on a 1-row grid max_halo_multi has no valid halo at all).
    p.gpus = std::min<int>(p.gpus, static_cast<int>(std::min<std::size_t>(dim, 64)));
    if (p.gpus >= 3) {
      p.halo = std::clamp(p.halo, 0LL, max_halo_multi(dim, p.band, p.gpus));
      p.gpu_tile = 1;
      return p;
    }
  }
  if (p.gpus == 1) p.halo = -1;
  if (p.gpus == 2 && p.halo < 0) p.halo = 0;
  if (p.halo >= 0) {
    p.halo = std::min(p.halo, max_halo(dim, p.band));
    p.gpu_tile = 1;  // multi-GPU schedules run untiled (DESIGN.md §5)
  } else {
    p.halo = -1;
    p.gpu_tile = std::clamp(p.gpu_tile, 1, static_cast<int>(std::min<std::size_t>(dim, 1 << 20)));
  }
  return p;
}

bool TunableParams::is_normalized(std::size_t dim) const { return *this == normalized(dim); }

std::string TunableParams::describe() const {
  std::ostringstream ss;
  ss << "cpu-tile=" << cpu_tile << " band=" << band << " halo=" << halo
     << " gpu-tile=" << gpu_tile << " (gpu-count=" << gpu_count() << ")";
  return ss.str();
}

util::Json TunableParams::to_json() const {
  util::Json j = util::Json::object();
  j["cpu_tile"] = util::Json(cpu_tile);
  j["band"] = util::Json(band);
  j["halo"] = util::Json(halo);
  j["gpu_tile"] = util::Json(gpu_tile);
  if (gpus != 0) j["gpus"] = util::Json(gpus);
  return j;
}

TunableParams TunableParams::from_json(const util::Json& j) {
  TunableParams p;
  p.cpu_tile = static_cast<int>(j.at("cpu_tile").as_int());
  p.band = j.at("band").as_int();
  p.halo = j.at("halo").as_int();
  p.gpu_tile = static_cast<int>(j.at("gpu_tile").as_int());
  if (j.contains("gpus")) p.gpus = static_cast<int>(j.at("gpus").as_int());
  return p;
}

}  // namespace wavetune::core
