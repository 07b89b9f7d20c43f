#include "comimo/phy/gmsk.h"

#include <gtest/gtest.h>

#include <cmath>

#include "comimo/channel/awgn.h"
#include "comimo/common/error.h"
#include "comimo/common/units.h"
#include "comimo/phy/detector.h"

namespace comimo {
namespace {

TEST(GmskModem, PulseIntegratesToHalf) {
  const GmskModem modem;
  double sum = 0.0;
  for (const double v : modem.frequency_pulse()) sum += v;
  EXPECT_NEAR(sum, 0.5, 1e-12);
}

TEST(GmskModem, UnitEnvelope) {
  const GmskModem modem;
  const BitVec bits = random_bits(64, 2);
  const auto s = modem.modulate(bits);
  for (const auto& v : s) {
    EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
  }
}

TEST(GmskModem, OutputLengthMatchesContract) {
  const GmskModem modem;
  const BitVec bits = random_bits(100, 3);
  EXPECT_EQ(modem.modulate(bits).size(), modem.samples_for_bits(100));
}

TEST(GmskModem, NoiseFreeRoundTrip) {
  for (const double bt : {0.3, 0.5}) {
    GmskConfig cfg;
    cfg.bt = bt;
    const GmskModem modem(cfg);
    const BitVec bits = random_bits(2000, 4);
    const auto s = modem.modulate(bits);
    const BitVec decoded = modem.demodulate(s, bits.size());
    EXPECT_EQ(count_bit_errors(bits, decoded), 0u) << "BT=" << bt;
  }
}

TEST(GmskModem, RoundTripWithUnknownCarrierPhase) {
  // The differential detector must survive an arbitrary phase rotation
  // (unsynchronized USRP oscillators).
  const GmskModem modem;
  const BitVec bits = random_bits(1000, 5);
  auto s = modem.modulate(bits);
  const cplx rot{std::cos(1.234), std::sin(1.234)};
  for (auto& v : s) v *= rot;
  EXPECT_EQ(count_bit_errors(bits, modem.demodulate(s, bits.size())), 0u);
}

TEST(GmskModem, RoundTripWithAmplitudeScaling) {
  const GmskModem modem;
  const BitVec bits = random_bits(1000, 6);
  auto s = modem.modulate(bits);
  for (auto& v : s) v *= 0.01;
  EXPECT_EQ(count_bit_errors(bits, modem.demodulate(s, bits.size())), 0u);
}

TEST(GmskModem, HighSnrBerNearZero) {
  const GmskModem modem;
  const BitVec bits = random_bits(20000, 7);
  auto s = modem.modulate(bits);
  AwgnChannel noise(db_to_linear(-20.0), Rng(8));  // 20 dB SNR
  noise.apply(s);
  const std::size_t errors =
      count_bit_errors(bits, modem.demodulate(s, bits.size()));
  EXPECT_LT(errors, 5u);
}

TEST(GmskModem, BerDegradesGracefullyWithSnr) {
  const GmskModem modem;
  const BitVec bits = random_bits(20000, 9);
  const auto clean = modem.modulate(bits);
  double prev_ber = 0.0;
  for (const double snr_db : {12.0, 6.0, 2.0}) {
    auto s = clean;
    AwgnChannel noise(db_to_linear(-snr_db), Rng(10));
    noise.apply(s);
    const double ber =
        static_cast<double>(
            count_bit_errors(bits, modem.demodulate(s, bits.size()))) /
        static_cast<double>(bits.size());
    EXPECT_GE(ber, prev_ber);
    prev_ber = ber;
  }
  EXPECT_GT(prev_ber, 0.01);  // 2 dB must show substantial errors
}

TEST(GmskModem, TruncatedFramePadsWithZeros) {
  const GmskModem modem;
  const BitVec bits = random_bits(100, 11);
  auto s = modem.modulate(bits);
  s.resize(s.size() / 2);
  const BitVec decoded = modem.demodulate(s, bits.size());
  EXPECT_EQ(decoded.size(), bits.size());
}

TEST(GmskModem, ConfigValidation) {
  GmskConfig cfg;
  cfg.samples_per_symbol = 1;
  EXPECT_THROW(GmskModem{cfg}, InvalidArgument);
  cfg = GmskConfig{};
  cfg.bt = 0.0;
  EXPECT_THROW(GmskModem{cfg}, InvalidArgument);
  cfg = GmskConfig{};
  cfg.pulse_span_symbols = 0;
  EXPECT_THROW(GmskModem{cfg}, InvalidArgument);
}

TEST(GmskModem, RejectsFirstDetectorWindowBeforeSampleZero) {
  // Odd sps with a one-symbol span: bit 0's window would start at
  // sample 1 + 1 − 3 < 0.
  GmskConfig cfg;
  cfg.samples_per_symbol = 3;
  cfg.pulse_span_symbols = 1;
  EXPECT_THROW(GmskModem{cfg}, InvalidArgument);
}

TEST(GmskModem, NoiseFreeRoundTripOddSamplesPerSymbol) {
  GmskConfig cfg;
  cfg.samples_per_symbol = 3;
  cfg.pulse_span_symbols = 2;
  const GmskModem modem(cfg);
  const BitVec bits = random_bits(2000, 14);
  const auto s = modem.modulate(bits);
  EXPECT_EQ(count_bit_errors(bits, modem.demodulate(s, bits.size())), 0u);
}

TEST(GmskModem, NarrowerBtIncreasesIsi) {
  // BT = 0.2 spreads the pulse more than BT = 0.5; at moderate SNR the
  // tighter filter must not do better.
  const BitVec bits = random_bits(30000, 12);
  double ber_tight = 0.0;
  double ber_wide = 0.0;
  for (const double bt : {0.2, 0.5}) {
    GmskConfig cfg;
    cfg.bt = bt;
    const GmskModem modem(cfg);
    auto s = modem.modulate(bits);
    AwgnChannel noise(db_to_linear(-8.0), Rng(13));
    noise.apply(s);
    const double ber =
        static_cast<double>(
            count_bit_errors(bits, modem.demodulate(s, bits.size()))) /
        static_cast<double>(bits.size());
    (bt < 0.3 ? ber_tight : ber_wide) = ber;
  }
  EXPECT_GE(ber_tight, ber_wide * 0.8);
}

}  // namespace
}  // namespace comimo
