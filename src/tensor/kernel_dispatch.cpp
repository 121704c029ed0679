#include "hylo/tensor/kernel_dispatch.hpp"

#include <atomic>

#include "hylo/common/check.hpp"
#include "hylo/common/env.hpp"

namespace hylo::kern {

namespace {

// Process-wide active tier: -1 = unresolved, else the Tier value. Resolution
// happens once under first use; set_tier stores directly.
std::atomic<int> g_tier{-1};

Tier resolve_tier() {
  return env::read("HYLO_KERNEL", [](const std::string& name) {
           const Tier t = parse_tier(name);  // throws on unknown names
           HYLO_CHECK(available(t),
                      "requests a kernel tier this CPU/build cannot run");
           return t;
         }).value_or(best());
}

}  // namespace

// Compile-time capability: the microkernels in gemm_packed.cpp are emitted
// with GCC/Clang target attributes, so x86 tiers exist in any x86 build
// regardless of -march; NEON is baseline on aarch64.
bool available(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return true;
    case Tier::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is architecturally baseline on aarch64
#else
      return false;
#endif
    case Tier::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Tier::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
  }
  return false;
}

Tier best() {
  for (const Tier t : {Tier::kAvx512, Tier::kAvx2, Tier::kNeon})
    if (available(t)) return t;
  return Tier::kScalar;
}

Tier active() {
  int v = g_tier.load(std::memory_order_relaxed);
  if (v < 0) {
    const Tier t = resolve_tier();
    // Racing first uses resolve to the same value; last store wins harmlessly.
    g_tier.store(static_cast<int>(t), std::memory_order_relaxed);
    return t;
  }
  return static_cast<Tier>(v);
}

Tier set_tier(Tier t) {
  HYLO_CHECK(available(t), "kernel tier '" << tier_name(t)
                                           << "' is not available on this "
                                              "CPU/build");
  const Tier prev = active();
  g_tier.store(static_cast<int>(t), std::memory_order_relaxed);
  return prev;
}

Tier parse_tier(const std::string& name) {
  if (name == "scalar") return Tier::kScalar;
  if (name == "neon") return Tier::kNeon;
  if (name == "avx2") return Tier::kAvx2;
  if (name == "avx512") return Tier::kAvx512;
  if (name == "native") return best();
  HYLO_CHECK(false, "unknown kernel tier '"
                        << name
                        << "' (expected scalar|neon|avx2|avx512|native)");
  return Tier::kScalar;  // unreachable
}

Tier set_tier_by_name(const std::string& name) {
  return set_tier(parse_tier(name));
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kNeon:
      return "neon";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "?";
}

}  // namespace hylo::kern
