// Table-seeded inversion of the incomplete sin^k integral.
//
// The scalar sinPowerQuantile solves every call with grid brackets it
// recomputes from scratch (~2 full-range Newton solves of up to 128
// iterations each). This registry precomputes the canonical bracket table
// — the sin_power_detail::gridQuantile values at the fixed
// kQuantileGridIntervals u-grid — once per k, behind a thread-safe
// call-once, and feeds it to the same quantileCore. Identical bracket
// doubles + identical core = bitwise-identical results; the only thing
// that changes is that the per-call cost collapses to a table load plus
// ~2-3 bracketed Newton steps.
//
// Memory: (kQuantileGridIntervals + 1) doubles = 8.2 KB per k, with k
// ranging over 2..kMaxDim-2 (the angular powers a d <= 8 build can need),
// so at most ~41 KB per process, built lazily.
#pragma once

#include <span>

namespace omt::kernels {

/// Largest k with a precomputed table: the angle marginals of a d-dim
/// build use k = d-2-j <= kMaxDim-2; k = 0, 1 invert in closed form.
inline constexpr int kMaxTabledPower = 6;  // kMaxDim - 2

/// The canonical bracket table for k in [2, kMaxTabledPower]: entry j is
/// sin_power_detail::gridQuantile(k, j). Built on first use (call-once;
/// safe from any thread); the span stays valid for the process lifetime.
std::span<const double> quantileTable(int k);

/// Table-seeded quantile. Bitwise identical to sinPowerQuantile(k, u) for
/// every argument; falls back to the scalar path (and counts a table miss)
/// when k is out of table range.
double sinPowerQuantileTabled(int k, double u);

}  // namespace omt::kernels
