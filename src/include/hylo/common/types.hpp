#pragma once
/// \file types.hpp
/// Fundamental scalar and index types used across the hylo library.

#include <cstddef>
#include <cstdint>

namespace hylo {

/// Scalar type for all numerical work. Double keeps the symmetric
/// eigensolver, pivoted QR and SMW solves well-conditioned; model sizes in
/// this reproduction are small enough that the bandwidth cost is irrelevant.
using real_t = double;

/// Signed index type (Core Guidelines ES.107: prefer signed for subscripts
/// involved in arithmetic).
using index_t = std::int64_t;

}  // namespace hylo
