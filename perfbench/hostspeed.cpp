// The reference kernel of HostSpeed.  It is built on its own, with fixed
// flags and without link-time optimisation (CMakeLists.txt), so that no
// change to the repository's code or build settings changes its cost.

#include <cstdint>

#include "bench.h"

namespace popbench {

// Four independent xorshift chains and a data-dependent branch: several
// instructions per cycle, as in the program's inner loops, so that it slows
// as they do when other tenants share the core.  A single multiply chain,
// bound by latency, slowed less than half as much.
std::uint64_t reference_kernel(std::uint64_t seed) {
    std::uint64_t x0 = seed | 1, x1 = x0 * 3, x2 = x0 * 5, x3 = x0 * 7, acc = 0;
    for (int i = 0; i < 400000; ++i) {
        x0 ^= x0 << 13; x0 ^= x0 >> 7; x0 ^= x0 << 17;
        x1 ^= x1 << 13; x1 ^= x1 >> 7; x1 ^= x1 << 17;
        x2 ^= x2 << 13; x2 ^= x2 >> 7; x2 ^= x2 << 17;
        x3 ^= x3 << 13; x3 ^= x3 >> 7; x3 ^= x3 << 17;
        acc += (x0 & 0xff) + (x1 >> 56) + ((x2 ^ x3) & 0xf);
        if ((x0 & 7) == 0) acc ^= x3;
    }
    return acc;
}

}  // namespace popbench
