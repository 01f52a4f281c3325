#pragma once

#include <cstddef>

namespace m3dfl {

/// Heap bytes held by a set of std::vector members (capacity, not size):
/// the building block of the per-component `bytes()` accessors.
template <class... Vectors>
std::size_t heap_bytes(const Vectors&... vs) {
  return (std::size_t{0} + ... +
          (vs.capacity() * sizeof(typename Vectors::value_type)));
}

}  // namespace m3dfl
