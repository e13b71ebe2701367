// Multirail bulk transfer over heterogeneous rails (paper §2: "dynamic load
// balancing on multiple resources, multiple NICs, or even NICs from
// multiple technologies"): one Myrinet/MX rail + one Quadrics/Elan rail,
// comparing the three bulk distribution policies.
//
// Build & run:  ./build/examples/multirail_transfer
#include <cstdio>

#include "core/world.hpp"
#include "drivers/profiles.hpp"

using namespace mado;
using namespace mado::core;

namespace {

double run_mbps(MultirailPolicy policy, std::size_t bytes) {
  EngineConfig cfg;
  cfg.multirail = policy;
  cfg.rdv_chunk = 64 * 1024;
  cfg.rdv_threshold_override = 32 * 1024;
  SimWorld world(2, cfg);
  world.connect(0, 1, drv::mx_myrinet_profile());    // ~250 MB/s
  world.connect(0, 1, drv::elan_quadrics_profile()); // ~900 MB/s

  Channel tx = world.node(0).open_channel(1, 7, TrafficClass::Bulk);
  Channel rx = world.node(1).open_channel(0, 7, TrafficClass::Bulk);

  Bytes data(bytes, Byte{0x42});
  Message m;
  m.pack(data.data(), data.size(), SendMode::Later);
  tx.post(std::move(m));

  Bytes out(bytes);
  IncomingMessage im = rx.begin_recv();
  const Nanos t0 = world.now();
  im.unpack(out.data(), out.size(), RecvMode::Cheaper);
  im.finish();
  const Nanos dt = world.now() - t0;
  return static_cast<double>(bytes) / to_usec(dt);  // bytes/us == MB/s
}

const char* name_of(MultirailPolicy p) {
  switch (p) {
    case MultirailPolicy::SingleRail: return "single-rail";
    case MultirailPolicy::DynamicSplit: return "dynamic-split";
    case MultirailPolicy::Stripe: return "stripe";
  }
  return "?";
}

}  // namespace

int main() {
  std::printf("bulk transfer over MX (250 MB/s) + Elan (900 MB/s) rails\n\n");
  std::printf("%-14s", "size");
  for (auto p : {MultirailPolicy::SingleRail, MultirailPolicy::DynamicSplit,
                 MultirailPolicy::Stripe})
    std::printf(" %14s", name_of(p));
  std::printf("   (MB/s)\n");
  for (std::size_t bytes : {256u << 10, 1u << 20, 4u << 20, 8u << 20}) {
    std::printf("%10zu KiB", bytes >> 10);
    for (auto p : {MultirailPolicy::SingleRail, MultirailPolicy::DynamicSplit,
                   MultirailPolicy::Stripe})
      std::printf(" %14.1f", run_mbps(p, bytes));
    std::printf("\n");
  }
  std::printf(
      "\nsingle-rail is capped by the Bulk class's rail; the split policies "
      "approach the 1150 MB/s aggregate,\nwith dynamic-split pulling chunks "
      "onto whichever NIC goes idle first (no per-technology tuning)\nand "
      "stripe sizing per-rail ranges from the cost model.\n");
  return 0;
}
