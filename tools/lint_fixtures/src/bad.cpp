// Synthetic lint fixture: every rule violated once. The
// `analyze_fixture_legacy` ctest case runs hylo_analyze --root over this
// tree and REQUIRES a nonzero exit (WILL_FAIL) — if the analyzer ever stops
// catching these, CI goes red. This file is never compiled.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>

#include "bad_header.hpp"

namespace fixture {

void violate_io() {
  std::cout << "direct console IO\n";        // rule: io
  printf("printf too\n");                    // rule: io
}

int violate_randomness() {
  srand(static_cast<unsigned>(time(nullptr)));  // rule: randomness (x2)
  return rand();                                // rule: randomness
}

double violate_std_random() {
  std::mt19937 gen(42);                              // rule: randomness
  std::uniform_real_distribution<double> dist(0, 1); // rule: randomness
  return dist(gen);
}

void violate_write_set(double* data, long n) {
  // rule: write_set — no audit::Footprint / audit::unchecked in the span.
  par::parallel_for(
      0, n, 1,
      [&](long b, long e) {
        for (long i = b; i < e; ++i) data[i] = 0.0;
      },
      "fixture/undeclared");
}

void violate_ckpt_io() {
  std::ofstream ckpt("model.ckpt");  // rule: ckpt_io — not an AtomicFile
  ckpt << "torn on crash";
}

void violate_metric_name(Registry& reg) {
  reg.counter("BadMetricName");     // rule: metric_name — no subsystem/
  reg.gauge("optim/Upper/Case");    // rule: metric_name — uppercase
}

void violate_health_catalogue(Registry& reg) {
  // rule: health_catalogue — probe not in the health.hpp catalogue (this
  // fixture tree has no catalogue header at all, so the set is empty).
  reg.counter("optim/hylo/health/bogus_probe");
  // rule: health_catalogue — not an alert rule or engine counter.
  reg.counter("obs/alerts/not_a_rule");
}

}  // namespace fixture
