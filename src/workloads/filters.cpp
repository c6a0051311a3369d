#include "frontend/builder.hpp"
#include "support/strings.hpp"
#include "workloads/workloads.hpp"

namespace hls::workloads {

using frontend::Builder;
using frontend::Val;
using frontend::VarHandle;
using ir::int_ty;
using ir::uint_ty;

int Workload::op_count() const {
  return static_cast<int>(
      module.thread.tree.ops_in(loop, /*into_nested_loops=*/false).size());
}

Workload make_fir(int taps, int data_width) {
  Builder b(indexed_name("fir", taps));
  const auto w = static_cast<std::uint8_t>(data_width);
  auto x_in = b.in("x", int_ty(w));
  auto y_out = b.out("y", int_ty(32));

  // Carried delay line x[n-1] .. x[n-taps+1].
  std::vector<VarHandle> delay;
  for (int i = 1; i < taps; ++i) {
    auto v = b.var(indexed_name("z", i), int_ty(w));
    b.set(v, b.c(0, int_ty(w)));
    delay.push_back(v);
  }

  auto loop = b.begin_counted(1024);
  auto x = b.read(x_in);
  std::vector<Val> window{x};
  for (auto& v : delay) window.push_back(b.get(v));

  // Odd coefficients so strength reduction cannot trivialize the muls.
  Val acc = b.c(0);
  for (int i = 0; i < taps; ++i) {
    const std::int64_t coef = 2 * ((i * 37) % 31) + 3;
    auto prod = b.mul(b.sext(window[static_cast<std::size_t>(i)], 32),
                      b.c(coef), indexed_name("mac", i));
    acc = i == 0 ? prod : b.add(acc, prod);
  }
  b.write(y_out, acc);
  // Shift the delay line.
  for (int i = taps - 2; i >= 1; --i) {
    b.set(delay[static_cast<std::size_t>(i)],
          b.get(delay[static_cast<std::size_t>(i - 1)]));
  }
  if (!delay.empty()) b.set(delay[0], x);
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 64);

  Workload out;
  out.name = indexed_name("fir", taps);
  out.loop = loop;
  out.module = b.finish();
  return out;
}

Workload make_ewf() {
  // Fifth-order elliptic wave filter in the classic HLS benchmark shape:
  // a lattice of 26 additions and 8 constant multiplications over carried
  // state variables (adapted; see DESIGN.md).
  Builder b("ewf");
  auto x_in = b.in("x", int_ty(16));
  auto y_out = b.out("y", int_ty(32));

  std::vector<VarHandle> st;
  for (int i = 0; i < 7; ++i) {
    auto v = b.var(indexed_name("s", i), int_ty(32));
    b.set(v, b.c(0));
    st.push_back(v);
  }

  auto loop = b.begin_counted(512);
  auto x = b.sext(b.read(x_in), 32);
  auto mulc = [&](Val v, std::int64_t c, const char* name) {
    return b.mul(v, b.c(c), name);
  };
  // Input adaptor section.
  auto t1 = b.add(x, b.get(st[0]));
  auto t2 = b.add(t1, b.get(st[1]));
  auto m1 = mulc(t2, 5, "m1");
  auto t3 = b.add(m1, b.get(st[2]));
  auto t4 = b.add(t3, t1);
  auto m2 = mulc(t4, 11, "m2");
  // Middle lattice.
  auto t5 = b.add(m2, b.get(st[3]));
  auto t6 = b.add(t5, t3);
  auto m3 = mulc(t6, 7, "m3");
  auto t7 = b.add(m3, b.get(st[4]));
  auto t8 = b.add(t7, t5);
  auto m4 = mulc(t8, 13, "m4");
  auto t9 = b.add(m4, t7);
  auto t10 = b.add(t9, b.get(st[5]));
  auto m5 = mulc(t10, 3, "m5");
  // Output adaptor section.
  auto t11 = b.add(m5, b.get(st[6]));
  auto t12 = b.add(t11, t9);
  auto m6 = mulc(t12, 9, "m6");
  auto t13 = b.add(m6, t11);
  auto t14 = b.add(t13, t4);
  auto m7 = mulc(t14, 5, "m7");
  auto t15 = b.add(m7, t13);
  auto t16 = b.add(t15, t2);
  auto m8 = mulc(t16, 7, "m8");
  auto t17 = b.add(m8, t15);
  auto t18 = b.add(t17, t12);
  auto t19 = b.add(t18, t16);
  auto t20 = b.add(t19, t14);
  auto t21 = b.add(t20, t10);
  auto t22 = b.add(t21, t8);
  auto t23 = b.add(t22, t6);
  auto t24 = b.add(t23, x);
  auto t25 = b.add(t24, t18);
  auto t26 = b.add(t25, t21);
  b.write(y_out, t26);
  // State updates (carried).
  b.set(st[0], t26);
  b.set(st[1], t19);
  b.set(st[2], t17);
  b.set(st[3], t13);
  b.set(st[4], t9);
  b.set(st[5], t5);
  b.set(st[6], t3);
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 64);

  Workload out;
  out.name = "ewf";
  out.loop = loop;
  out.module = b.finish();
  return out;
}

Workload make_arf() {
  // Auto-regression filter: 16 multiplications, 12 additions, 2 outputs.
  Builder b("arf");
  auto x0 = b.in("x0", int_ty(16));
  auto x1 = b.in("x1", int_ty(16));
  auto y0 = b.out("y0", int_ty(32));
  auto y1 = b.out("y1", int_ty(32));

  std::vector<VarHandle> st;
  for (int i = 0; i < 4; ++i) {
    auto v = b.var(indexed_name("r", i), int_ty(32));
    b.set(v, b.c(0));
    st.push_back(v);
  }

  auto loop = b.begin_counted(512);
  auto a = b.sext(b.read(x0), 32);
  auto c = b.sext(b.read(x1), 32);
  std::vector<Val> prods;
  const std::int64_t coefs[16] = {3,  5,  7,  11, 13, 17, 19, 23,
                                  29, 31, 37, 41, 43, 47, 53, 59};
  std::vector<Val> srcs{a, c, b.get(st[0]), b.get(st[1]), b.get(st[2]),
                        b.get(st[3])};
  for (int i = 0; i < 16; ++i) {
    prods.push_back(b.mul(srcs[static_cast<std::size_t>(i % srcs.size())],
                          b.c(coefs[i]), indexed_name("p", i)));
  }
  // Two adder trees of 8 products each (7 + 5 = 12 additions total: the
  // second tree reuses two partial sums from the first).
  auto sum4 = [&](int base) {
    auto s0 = b.add(prods[static_cast<std::size_t>(base)],
                    prods[static_cast<std::size_t>(base + 1)]);
    auto s1 = b.add(prods[static_cast<std::size_t>(base + 2)],
                    prods[static_cast<std::size_t>(base + 3)]);
    return b.add(s0, s1);
  };
  auto t0 = sum4(0);
  auto t1 = sum4(4);
  auto out0 = b.add(t0, t1);
  auto t2 = sum4(8);
  auto out1 = b.add(t2, b.add(t1, prods[15]));
  b.write(y0, out0);
  b.write(y1, out1);
  b.set(st[0], out0);
  b.set(st[1], out1);
  b.set(st[2], t0);
  b.set(st[3], t2);
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 64);

  Workload out;
  out.name = "arf";
  out.loop = loop;
  out.module = b.finish();
  return out;
}

Workload make_crc32() {
  // Byte-at-a-time CRC-32 (polynomial 0xEDB88320), eight unrolled bit
  // steps of shifts (free), XORs, and muxes over the carried register.
  Builder b("crc32");
  auto d_in = b.in("data", uint_ty(8));
  auto c_out = b.out("crc", uint_ty(32));
  auto crc = b.var("state", uint_ty(32));
  b.set(crc, b.c(0xFFFFFFFF, uint_ty(32)));

  auto loop = b.begin_counted(256);
  auto byte = b.zext(b.read(d_in), 32);
  auto cur = b.bxor(b.get(crc), byte);
  for (int i = 0; i < 8; ++i) {
    auto lsb = b.bits(cur, 0, 0);
    auto shifted = b.shr(cur, b.c(1, uint_ty(6)));
    auto xored = b.bxor(shifted, b.c(0xEDB88320, uint_ty(32)));
    cur = b.mux(lsb, xored, shifted, indexed_name("bit", i));
  }
  b.set(crc, cur);
  b.write(c_out, b.bxor(cur, b.c(0xFFFFFFFF, uint_ty(32))));
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 32);

  Workload out;
  out.name = "crc32";
  out.loop = loop;
  out.module = b.finish();
  return out;
}

}  // namespace hls::workloads
