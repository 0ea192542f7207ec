// Scoped save/restore of the process-wide util::simd kernel table.
#pragma once

#include "util/simd.hpp"

namespace tagwatch::util::simd {

/// Restores the entry ISA when a test that repoints the kernel table
/// exits (pass or fail), so test order can never leak an ISA change —
/// including the forced-scalar pin of a TAGWATCH_TEST_FORCE_SCALAR run.
struct IsaGuard {
  Isa saved = active_isa();
  ~IsaGuard() { set_active_isa(saved); }
};

}  // namespace tagwatch::util::simd
