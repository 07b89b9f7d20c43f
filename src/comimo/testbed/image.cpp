#include "comimo/testbed/image.h"

#include <algorithm>
#include <cmath>

#include "comimo/common/error.h"
#include "comimo/common/units.h"

namespace comimo {

SyntheticImage make_test_image(std::size_t packets,
                               std::size_t packet_bytes) {
  COMIMO_CHECK(packets >= 1 && packet_bytes >= 1, "empty image request");
  const std::size_t total = packets * packet_bytes;
  // Pick width ~ sqrt(total) and pad the height up; trim pixels to the
  // exact byte budget.
  const auto width = static_cast<std::size_t>(std::sqrt(
      static_cast<double>(total)));
  const std::size_t height = (total + width - 1) / width;
  SyntheticImage img;
  img.width = width;
  img.height = height;
  img.pixels.resize(total);
  // Smooth diagonal gradient with a sinusoidal texture: any zeroed packet
  // region differs visibly from its surroundings.  Each factor depends
  // on the column or the row alone, so it is taken once per column or
  // row rather than once per pixel.
  std::vector<double> col_wave(width);
  std::vector<double> col_texture(width);
  for (std::size_t x = 0; x < width; ++x) {
    col_wave[x] = 64.0 * std::sin(2.0 * kPi * static_cast<double>(x) /
                                  static_cast<double>(width));
    col_texture[x] = 16.0 * std::sin(0.37 * static_cast<double>(x));
  }
  std::vector<double> row_wave(height);
  std::vector<double> row_texture(height);
  for (std::size_t y = 0; y < height; ++y) {
    row_wave[y] = 32.0 * std::cos(2.0 * kPi * static_cast<double>(y) / 97.0);
    row_texture[y] = std::cos(0.23 * static_cast<double>(y));
  }
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t x = i % width;
    const std::size_t y = i / width;
    const double gradient = 128.0 + col_wave[x] + row_wave[y];
    const double texture = col_texture[x] * row_texture[y];
    const double v = gradient + texture;
    img.pixels[i] = static_cast<std::uint8_t>(
        std::clamp(v, 0.0, 255.0));
  }
  return img;
}

std::vector<Packet> packetize(const SyntheticImage& image,
                              std::size_t packet_bytes) {
  COMIMO_CHECK(packet_bytes >= 1, "packet size must be positive");
  std::vector<Packet> packets;
  const std::size_t n = image.pixels.size();
  packets.reserve((n + packet_bytes - 1) / packet_bytes);
  std::uint16_t seq = 0;
  for (std::size_t off = 0; off < n; off += packet_bytes) {
    Packet p;
    p.sequence = seq++;
    const std::size_t len = std::min(packet_bytes, n - off);
    p.payload.assign(
        image.pixels.begin() + static_cast<std::ptrdiff_t>(off),
        image.pixels.begin() + static_cast<std::ptrdiff_t>(off + len));
    packets.push_back(std::move(p));
  }
  return packets;
}

ReassemblyReport reassemble(const SyntheticImage& original,
                            const std::vector<Packet>& received,
                            std::size_t packet_bytes) {
  COMIMO_CHECK(packet_bytes >= 1, "packet size must be positive");
  ReassemblyReport rpt;
  rpt.image.width = original.width;
  rpt.image.height = original.height;
  rpt.image.pixels.assign(original.pixels.size(), 0);
  rpt.packets_expected =
      (original.pixels.size() + packet_bytes - 1) / packet_bytes;

  for (const auto& p : received) {
    const std::size_t off = static_cast<std::size_t>(p.sequence) *
                            packet_bytes;
    if (off >= original.pixels.size()) continue;  // bogus sequence
    const std::size_t len =
        std::min(p.payload.size(), original.pixels.size() - off);
    std::copy(p.payload.begin(),
              p.payload.begin() + static_cast<std::ptrdiff_t>(len),
              rpt.image.pixels.begin() + static_cast<std::ptrdiff_t>(off));
    ++rpt.packets_received;
  }
  rpt.packet_error_rate =
      1.0 - static_cast<double>(rpt.packets_received) /
                static_cast<double>(rpt.packets_expected);

  double err = 0.0;
  for (std::size_t i = 0; i < original.pixels.size(); ++i) {
    err += std::abs(static_cast<double>(original.pixels[i]) -
                    static_cast<double>(rpt.image.pixels[i]));
  }
  rpt.mean_abs_error = err / static_cast<double>(original.pixels.size());
  return rpt;
}

}  // namespace comimo
