#include <cmath>

#include "frontend/builder.hpp"
#include "support/strings.hpp"
#include "workloads/workloads.hpp"

namespace hls::workloads {

using frontend::Builder;
using frontend::Val;
using ir::int_ty;

namespace {

/// Fixed-point DCT-II / IDCT coefficient, Q12.
std::int64_t dct_coef(int k, int n, bool inverse) {
  const double pi = 3.14159265358979323846;
  const double c = (inverse ? (k == 0 ? std::sqrt(0.5) : 1.0)
                            : (k == 0 ? std::sqrt(0.5) : 1.0)) *
                   std::cos((2 * n + 1) * k * pi / 16.0) * 0.5;
  return static_cast<std::int64_t>(std::llround(c * 4096.0));
}

Workload make_dct_like(const std::string& name, bool inverse,
                       int data_width) {
  Builder b(name);
  const auto w = static_cast<std::uint8_t>(data_width);
  std::vector<frontend::PortHandle> ins;
  std::vector<frontend::PortHandle> outs;
  for (int i = 0; i < 8; ++i) {
    ins.push_back(b.in(indexed_name("x", i), int_ty(w)));
  }
  for (int i = 0; i < 8; ++i) {
    outs.push_back(b.out(indexed_name("y", i), int_ty(w)));
  }

  // One column of the 8-point transform per iteration (the paper's
  // Section VI IDCT: latencies 8..32 per column explored).
  auto loop = b.begin_counted(64);
  std::vector<Val> x;
  for (int i = 0; i < 8; ++i) {
    x.push_back(b.sext(b.read(ins[static_cast<std::size_t>(i)]), 32));
  }
  for (int k = 0; k < 8; ++k) {
    Val acc{};
    for (int n = 0; n < 8; ++n) {
      // IDCT: out[n] = sum_k coef(k,n) X[k]; DCT: out[k] = sum_n ...
      const std::int64_t c =
          inverse ? dct_coef(n, k, true) : dct_coef(k, n, false);
      auto prod = b.mul(x[static_cast<std::size_t>(inverse ? n : n)], b.c(c),
                        indexed_name(indexed_name("m", k) + "_", n));
      acc = n == 0 ? prod : b.add(acc, prod);
    }
    auto scaled = b.shr(acc, b.c(12, ir::uint_ty(5)));
    b.write(outs[static_cast<std::size_t>(k)],
            b.trunc(scaled, w, indexed_name("out", k)));
  }
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 32);

  Workload out;
  out.name = name;
  out.loop = loop;
  out.module = b.finish();
  return out;
}

}  // namespace

Workload make_dct8(int data_width) {
  return make_dct_like("dct8", /*inverse=*/false, data_width);
}

Workload make_idct8(int data_width) {
  return make_dct_like("idct8", /*inverse=*/true, data_width);
}

Workload make_fft8_stage() {
  // First DIT stage of an 8-point complex FFT: 4 butterflies with twiddle
  // factors W8^k in Q12 fixed point (16 multiplications, 24 additions).
  Builder b("fft8");
  std::vector<frontend::PortHandle> in_re, in_im, out_re, out_im;
  for (int i = 0; i < 8; ++i) {
    in_re.push_back(b.in(indexed_name("re", i), int_ty(16)));
    in_im.push_back(b.in(indexed_name("im", i), int_ty(16)));
  }
  for (int i = 0; i < 8; ++i) {
    out_re.push_back(b.out(indexed_name("ore", i), int_ty(16)));
    out_im.push_back(b.out(indexed_name("oim", i), int_ty(16)));
  }

  auto loop = b.begin_counted(128);
  std::vector<Val> re, im;
  for (int i = 0; i < 8; ++i) {
    re.push_back(b.sext(b.read(in_re[static_cast<std::size_t>(i)]), 32));
    im.push_back(b.sext(b.read(in_im[static_cast<std::size_t>(i)]), 32));
  }
  const double pi = 3.14159265358979323846;
  for (int k = 0; k < 4; ++k) {
    const auto wr = static_cast<std::int64_t>(
        std::llround(std::cos(-2 * pi * k / 8.0) * 4096.0));
    const auto wi = static_cast<std::int64_t>(
        std::llround(std::sin(-2 * pi * k / 8.0) * 4096.0));
    auto su = static_cast<std::size_t>(k);
    auto sl = static_cast<std::size_t>(k + 4);
    auto sum_r = b.add(re[su], re[sl]);
    auto sum_i = b.add(im[su], im[sl]);
    auto diff_r = b.sub(re[su], re[sl]);
    auto diff_i = b.sub(im[su], im[sl]);
    // (diff_r + j diff_i) * (wr + j wi)
    auto rr = b.mul(diff_r, b.c(wr));
    auto ii = b.mul(diff_i, b.c(wi));
    auto ri = b.mul(diff_r, b.c(wi));
    auto ir = b.mul(diff_i, b.c(wr));
    auto tw_r = b.shr(b.sub(rr, ii), b.c(12, ir::uint_ty(5)));
    auto tw_i = b.shr(b.add(ri, ir), b.c(12, ir::uint_ty(5)));
    b.write(out_re[su], b.trunc(sum_r, 16));
    b.write(out_im[su], b.trunc(sum_i, 16));
    b.write(out_re[sl], b.trunc(tw_r, 16));
    b.write(out_im[sl], b.trunc(tw_i, 16));
  }
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 32);

  Workload out;
  out.name = "fft8";
  out.loop = loop;
  out.module = b.finish();
  return out;
}

}  // namespace hls::workloads
