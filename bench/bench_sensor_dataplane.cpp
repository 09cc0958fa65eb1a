// Sensor data plane driver: loaned-slab vs encode event streaming over
// both transport backends (see suite_dataplane.cpp for the cases and
// gates). Standalone runs use non-default batch sizes via --frames, which
// keeps the throughput rows but skips the 300-frame DEAR digest anchors
// unless --anchor-digests is passed (bench_all always runs them against
// the golden value).
#include <algorithm>
#include <cstdint>

#include "suites.hpp"

namespace {

// The 300-frame/seed-7 DEAR anchor digest (same golden value bench_all
// pins); the payload-plane runs must reproduce it bit-exactly.
constexpr std::uint64_t kDearDigest300f7 = 0xe4eb73d5ff217bdeULL;

}  // namespace

int main(int argc, char** argv) {
  dear::bench::Harness harness(
      "bench_sensor_dataplane",
      "Sensor data plane: loaned-slab vs encode streaming at 64KiB..4MiB over both "
      "transports, with zero-copy/zero-alloc and digest-anchor gates.");
  harness.cli().add_int("frames", 256, "frames per measured batch at the 64KiB class");
  harness.cli().add_int("steady-frames", 128,
                        "frames for the steady-state zero-copy/zero-alloc audit");
  harness.cli().add_flag("no-anchor-digests",
                         "skip the 300-frame DEAR digest anchor runs (payload plane live)");
  if (!harness.parse(argc, argv)) {
    return harness.exit_code();
  }

  dear::bench::DataplaneOptions options;
  options.frames = std::max<std::uint64_t>(harness.cli().get_int("frames"), 4);
  options.steady_frames = std::max<std::uint64_t>(harness.cli().get_int("steady-frames"), 8);
  options.golden_digest =
      harness.cli().get_flag("no-anchor-digests") ? 0 : kDearDigest300f7;
  dear::bench::run_dataplane_suite(harness, options);
  return harness.finish();
}
