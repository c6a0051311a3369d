// Memory-bound kernels exercising the mem:: constraint family
// (docs/MEMORY.md). Each is deliberately infeasible under its spec's
// starting bank/port/window configuration at the tight latency bound, and
// converges through exactly one of the expert's memory relaxations:
//
//   banked_fir   port-starved accesses   -> add-mem-port
//   transpose4   same-bank column reads  -> re-bank
//   stencil_row  early output contract   -> widen-window
#include "frontend/builder.hpp"
#include "support/strings.hpp"
#include "workloads/workloads.hpp"

namespace hls::workloads {

using frontend::Builder;
using frontend::PortHandle;
using frontend::Val;
using ir::int_ty;

Workload make_banked_fir() {
  // 8-tap FIR whose sample window is a banked array: 2 banks interleaved,
  // 1 RW port each, so only two reads issue per state. The latency bound
  // leaves no room for the four states the reads of one bank would need,
  // and re-banking is capped at 2, so the only lever is add-mem-port.
  Builder b("banked_fir");
  std::vector<PortHandle> xs;
  for (int i = 0; i < 8; ++i) {
    xs.push_back(b.in(indexed_name("x", i), int_ty(16)));
  }
  auto y_out = b.out("y", int_ty(32));

  auto loop = b.begin_counted(512);
  Val acc = b.c(0);
  for (int i = 0; i < 8; ++i) {
    const std::int64_t coef = 2 * ((i * 29) % 23) + 3;
    auto prod = b.mul(b.sext(b.read(xs[static_cast<std::size_t>(i)]), 32),
                      b.c(coef), indexed_name("mac", i));
    acc = i == 0 ? prod : b.add(acc, prod);
  }
  b.write(y_out, acc);
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 4);

  Workload out;
  out.name = "banked_fir";
  out.loop = loop;
  out.module = b.finish();
  mem::ArraySpec a;
  a.name = "x";
  a.first_port = 0;
  a.num_elems = 8;
  a.banks = 2;
  a.bank_rw_ports = 1;
  a.max_banks = 2;
  a.max_ports_per_bank = 4;
  out.memory.arrays.push_back(a);
  return out;
}

Workload make_transpose4() {
  // Reads two columns of a 4x4 row-major matrix held in a 4-bank
  // interleaved array. Element 4r+c lives in bank (4r+c) % 4 = c, so all
  // four reads of a column land in the SAME bank while the other banks
  // idle — the signature bank conflict. Ports per bank are capped at 1;
  // the fix is re-banking to 8 (element 4r+c then lives in bank
  // (4r+c) % 8, splitting each column across two banks).
  Builder b("transpose4");
  std::vector<PortHandle> as;
  for (int i = 0; i < 16; ++i) {
    as.push_back(b.in(indexed_name("a", i), int_ty(16)));
  }
  std::vector<PortHandle> ss;
  for (int r = 0; r < 4; ++r) {
    ss.push_back(b.out(indexed_name("s", r), int_ty(32)));
  }

  auto loop = b.begin_counted(256);
  for (int r = 0; r < 4; ++r) {
    auto c0 = b.sext(b.read(as[static_cast<std::size_t>(4 * r)]), 32);
    auto c1 = b.sext(b.read(as[static_cast<std::size_t>(4 * r + 1)]), 32);
    b.write(ss[static_cast<std::size_t>(r)], b.add(c0, c1));
  }
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 3);

  Workload out;
  out.name = "transpose4";
  out.loop = loop;
  out.module = b.finish();
  mem::ArraySpec a;
  a.name = "a";
  a.first_port = 0;
  a.num_elems = 16;
  a.banks = 4;
  a.bank_rw_ports = 1;
  a.max_banks = 8;
  a.max_ports_per_bank = 1;
  out.memory.arrays.push_back(a);
  return out;
}

Workload make_stencil_row() {
  // Row update of a 3-point stencil with ample read bandwidth (one bank,
  // three RW ports serves all reads in one state) but a soft I/O timing
  // window on the output port: the contract asks for the result by step 1,
  // while the multiply chain cannot deliver before step 2+. Only widening
  // the window helps, and max_step_limit permits it.
  Builder b("stencil_row");
  auto x0 = b.in("x0", int_ty(16));
  auto x1 = b.in("x1", int_ty(16));
  auto x2 = b.in("x2", int_ty(16));
  auto y_out = b.out("y", int_ty(32));

  auto loop = b.begin_counted(512);
  auto l = b.sext(b.read(x0), 32);
  auto c = b.sext(b.read(x1), 32);
  auto r = b.sext(b.read(x2), 32);
  // Three chained multiplies force the write past the window's max step.
  auto m1 = b.mul(c, b.c(5), "m1");
  auto m2 = b.mul(b.add(l, m1), b.c(7), "m2");
  auto m3 = b.mul(b.add(m2, r), b.c(9), "m3");
  b.write(y_out, b.add(m3, l));
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 3);

  Workload out;
  out.name = "stencil_row";
  out.loop = loop;
  out.module = b.finish();
  mem::ArraySpec a;
  a.name = "x";
  a.first_port = 0;
  a.num_elems = 3;
  a.banks = 1;
  a.bank_rw_ports = 3;
  a.max_banks = 1;
  a.max_ports_per_bank = 3;
  out.memory.arrays.push_back(a);
  mem::WindowSpec w;
  w.port = 3;  // the y output
  w.min_step = 0;
  w.max_step = 1;
  w.max_step_limit = 8;
  out.memory.windows.push_back(w);
  return out;
}

}  // namespace hls::workloads
