#include "infer/workspace.hpp"

namespace radix::infer {

void InferenceWorkspace::reserve(index_t batch, index_t max_width) {
  const std::size_t need =
      static_cast<std::size_t>(batch) * static_cast<std::size_t>(max_width);
  if (need <= capacity()) return;
  for (auto& b : buf_) b.resize(need + kLineFloats);
}

}  // namespace radix::infer
