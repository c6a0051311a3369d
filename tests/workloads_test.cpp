// Tests for src/workloads/: every bundled kernel validates and interprets,
// numeric correctness against independent references (FIR convolution,
// EWF/ARF/CRC32/IDCT/Sobel), random CDFG determinism, and the profiling
// suite's paper size range.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "support/diagnostics.hpp"

#include "ir/interp.hpp"
#include "ir/print.hpp"
#include "ir/validate.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "workloads/workloads.hpp"

namespace hls::workloads {
namespace {

using ir::interpret;
using ir::Stimulus;

// ---- Validity of every bundled workload ----------------------------------------------

class AllWorkloads : public ::testing::TestWithParam<int> {
 public:
  static std::vector<Workload> make_all() { return suite(); }
};

TEST_P(AllWorkloads, ValidatesAndInterprets) {
  auto all = make_all();
  auto& w = all[static_cast<std::size_t>(GetParam())];
  DiagEngine diags;
  ASSERT_TRUE(ir::validate(w.module, diags)) << w.name << "\n"
                                             << diags.to_string();
  EXPECT_GT(w.op_count(), 0);
  // Drive every input with a short random stream; the module must produce
  // at least one output without tripping any internal checks.
  Rng rng(99);
  Stimulus s;
  for (const auto& p : w.module.ports) {
    if (p.dir != ir::PortDir::kIn) continue;
    std::vector<std::int64_t> v;
    for (int i = 0; i < 8; ++i) v.push_back(rng.uniform(-100, 100));
    s.set(p.name, std::move(v));
  }
  const auto r = interpret(w.module, s);
  EXPECT_FALSE(r.writes.empty()) << w.name;
}

INSTANTIATE_TEST_SUITE_P(Suite, AllWorkloads,
                         ::testing::Range(0, static_cast<int>(suite().size())),
                         [](const auto& param_info) {
                           return AllWorkloads::make_all()
                               [static_cast<std::size_t>(param_info.param)]
                                   .name;
                         });

// ---- Numeric correctness against independent references ---------------------------------

TEST(Fir, MatchesDirectConvolution) {
  const int taps = 8;
  auto w = make_fir(taps);
  Rng rng(5);
  std::vector<std::int64_t> xs;
  for (int i = 0; i < 32; ++i) xs.push_back(rng.uniform(-1000, 1000));
  Stimulus s;
  s.set("x", xs);
  const auto r = interpret(w.module, s);
  const auto ys = ir::writes_by_port(w.module, r.writes).at("y");
  ASSERT_EQ(ys.size(), 32u);
  // Reference: same coefficient rule as the generator.
  std::vector<std::int64_t> coef;
  for (int i = 0; i < taps; ++i) coef.push_back(2 * ((i * 37) % 31) + 3);
  for (int n = 0; n < 32; ++n) {
    std::int64_t acc = 0;
    for (int i = 0; i < taps; ++i) {
      const std::int64_t x = n - i >= 0 ? xs[static_cast<std::size_t>(n - i)] : 0;
      acc += coef[static_cast<std::size_t>(i)] * x;
    }
    EXPECT_EQ(ys[static_cast<std::size_t>(n)], acc) << "sample " << n;
  }
}

TEST(Crc32, MatchesBitwiseReference) {
  auto w = make_crc32();
  std::vector<std::int64_t> data = {0x31, 0x32, 0x33, 0x34, 0x35};  // "12345"
  Stimulus s;
  s.set("data", data);
  const auto r = interpret(w.module, s);
  const auto crcs = ir::writes_by_port(w.module, r.writes).at("crc");
  ASSERT_EQ(crcs.size(), data.size());
  // Reference CRC-32 (reflected, poly 0xEDB88320), running value per byte.
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < data.size(); ++i) {
    crc ^= static_cast<std::uint32_t>(data[i]);
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    EXPECT_EQ(static_cast<std::uint32_t>(crcs[i]), crc ^ 0xFFFFFFFFu)
        << "byte " << i;
  }
}

TEST(Idct8, CloseToDoublePrecisionReference) {
  auto w = make_idct8();
  Rng rng(11);
  Stimulus s;
  std::vector<std::vector<std::int64_t>> cols(8);
  for (int i = 0; i < 8; ++i) {
    for (int c = 0; c < 4; ++c) {
      cols[static_cast<std::size_t>(i)].push_back(rng.uniform(-256, 256));
    }
    s.set(indexed_name("x", i), cols[static_cast<std::size_t>(i)]);
  }
  const auto r = interpret(w.module, s);
  const auto by_port = ir::writes_by_port(w.module, r.writes);
  const double pi = 3.14159265358979323846;
  for (int col = 0; col < 4; ++col) {
    for (int k = 0; k < 8; ++k) {
      // Reference mirrors the generator's coefficient definition.
      double acc = 0;
      for (int n = 0; n < 8; ++n) {
        const double c = (n == 0 ? std::sqrt(0.5) : 1.0) *
                         std::cos((2 * k + 1) * n * pi / 16.0) * 0.5;
        acc += c * static_cast<double>(
                       cols[static_cast<std::size_t>(n)]
                           [static_cast<std::size_t>(col)]);
      }
      const auto got =
          by_port.at(indexed_name("y", k))[static_cast<std::size_t>(col)];
      EXPECT_NEAR(static_cast<double>(got), acc, 2.5)
          << "col " << col << " k " << k;
    }
  }
}

TEST(Ewf, OpMixMatchesTheClassicBenchmark) {
  auto w = make_ewf();
  int muls = 0;
  int adds = 0;
  const auto& dfg = w.module.thread.dfg;
  for (ir::OpId id = 0; id < dfg.size(); ++id) {
    if (dfg.op(id).kind == ir::OpKind::kMul) ++muls;
    if (dfg.op(id).kind == ir::OpKind::kAdd) ++adds;
  }
  EXPECT_EQ(muls, 8);
  EXPECT_EQ(adds, 26);
}

TEST(Arf, OpMixMatchesTheClassicBenchmark) {
  auto w = make_arf();
  int muls = 0;
  const auto& dfg = w.module.thread.dfg;
  for (ir::OpId id = 0; id < dfg.size(); ++id) {
    if (dfg.op(id).kind == ir::OpKind::kMul) ++muls;
  }
  EXPECT_EQ(muls, 16);
}

TEST(Sobel, ComputesGradientMagnitude) {
  auto w = make_sobel();
  Stimulus s;
  // Vertical edge: left column 0, right column 100.
  const std::int64_t px[9] = {0, 50, 100, 0, 50, 100, 0, 50, 100};
  for (int i = 0; i < 9; ++i) {
    s.set(indexed_name("p", i), {px[i]});
  }
  const auto r = interpret(w.module, s);
  const auto mags = ir::writes_by_port(w.module, r.writes).at("mag");
  ASSERT_EQ(mags.size(), 1u);
  // gx = (p2 + 3 p5 + p8) - (p0 + 3 p3 + p6) = 500; gy = 0.
  EXPECT_EQ(mags[0], 500);
}

// ---- Random CDFG generator and suite ---------------------------------------------------

TEST(RandomCdfg, DeterministicForSeed) {
  RandomCdfgOptions opts;
  opts.target_ops = 300;
  auto a = make_random_cdfg(123, opts);
  auto b = make_random_cdfg(123, opts);
  // Same seed: structurally identical. Different seed: different DAG
  // (sizes may coincide because generation targets an op count).
  EXPECT_EQ(ir::print_module(a.module), ir::print_module(b.module));
  auto c = make_random_cdfg(124, opts);
  EXPECT_NE(ir::print_module(a.module), ir::print_module(c.module));
}

TEST(RandomCdfg, HitsTargetSize) {
  for (int target : {100, 500, 2000}) {
    RandomCdfgOptions opts;
    opts.target_ops = target;
    auto w = make_random_cdfg(55, opts);
    EXPECT_GE(w.op_count(), target);
    EXPECT_LE(w.op_count(), target + target / 2 + 40);
  }
}

TEST(Suite, CoversThePaperSizeRange) {
  const auto suite = make_profile_suite();
  EXPECT_GE(suite.size(), 35u);
  int min_ops = 1 << 30;
  int max_ops = 0;
  double total = 0;
  std::set<std::string> names;
  for (const auto& w : suite) {
    DiagEngine diags;
    EXPECT_TRUE(ir::validate(w.module, diags)) << w.name;
    names.insert(w.name);
    const int n = w.op_count();
    min_ops = std::min(min_ops, n);
    max_ops = std::max(max_ops, n);
    total += n;
  }
  EXPECT_EQ(names.size(), suite.size());  // unique names
  // Paper: 100 to over 6000 ops, average 1400.
  EXPECT_LT(min_ops, 120);
  EXPECT_GT(max_ops, 5000);
  const double avg = total / static_cast<double>(suite.size());
  EXPECT_GT(avg, 700);
  EXPECT_LT(avg, 2200);
}

}  // namespace
}  // namespace hls::workloads
