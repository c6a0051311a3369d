#include "frontend/builder.hpp"
#include "support/strings.hpp"
#include "workloads/workloads.hpp"

namespace hls::workloads {

using frontend::Builder;
using frontend::Val;
using ir::int_ty;

Workload make_conv3x3() {
  // 3x3 convolution over a streamed window: 9 multiplications by constant
  // kernel weights, 8 additions, one pixel out per iteration.
  Builder b("conv3x3");
  std::vector<frontend::PortHandle> win;
  for (int i = 0; i < 9; ++i) {
    win.push_back(b.in(indexed_name("w", i), int_ty(16)));
  }
  auto p_out = b.out("pix", int_ty(32));

  const std::int64_t kernel[9] = {1, 3, 1, 3, 9, 3, 1, 3, 1};
  auto loop = b.begin_counted(1024);
  Val acc{};
  for (int i = 0; i < 9; ++i) {
    auto prod = b.mul(b.sext(b.read(win[static_cast<std::size_t>(i)]), 32),
                      b.c(kernel[i]), indexed_name("k", i));
    acc = i == 0 ? prod : b.add(acc, prod);
  }
  b.write(p_out, acc);
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 32);

  Workload out;
  out.name = "conv3x3";
  out.loop = loop;
  out.module = b.finish();
  return out;
}

Workload make_sobel() {
  // Sobel gradient magnitude |gx| + |gy| with conditional negation
  // (if-branches become predicated muxes, exercising the predicate path).
  Builder b("sobel");
  std::vector<frontend::PortHandle> win;
  for (int i = 0; i < 9; ++i) {
    win.push_back(b.in(indexed_name("p", i), int_ty(16)));
  }
  auto m_out = b.out("mag", int_ty(32));

  auto loop = b.begin_counted(1024);
  std::vector<Val> p;
  for (int i = 0; i < 9; ++i) {
    p.push_back(b.sext(b.read(win[static_cast<std::size_t>(i)]), 32));
  }
  // gx = (p2 + 2 p5 + p8) - (p0 + 2 p3 + p6)
  auto gx = b.sub(b.add(p[2], b.add(b.mul(p[5], b.c(3), "gx_m"), p[8])),
                  b.add(p[0], b.add(b.mul(p[3], b.c(3), "gx_n"), p[6])));
  // gy = (p6 + 2 p7 + p8) - (p0 + 2 p1 + p2)
  auto gy = b.sub(b.add(p[6], b.add(b.mul(p[7], b.c(3), "gy_m"), p[8])),
                  b.add(p[0], b.add(b.mul(p[1], b.c(3), "gy_n"), p[2])));
  auto ax = b.var("ax", int_ty(32));
  auto ay = b.var("ay", int_ty(32));
  b.begin_if(b.ge(gx, b.c(0)));
  b.set(ax, gx);
  b.begin_else();
  b.set(ax, b.neg(gx));
  b.end_if();
  b.begin_if(b.ge(gy, b.c(0)));
  b.set(ay, gy);
  b.begin_else();
  b.set(ay, b.neg(gy));
  b.end_if();
  b.write(m_out, b.add(b.get(ax), b.get(ay)));
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 32);

  Workload out;
  out.name = "sobel";
  out.loop = loop;
  out.module = b.finish();
  return out;
}

}  // namespace hls::workloads
