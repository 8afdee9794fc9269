// Tensor shapes and buffers (NCHW, float32) for the operator layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.h"

namespace hios::ops {

/// 4-D NCHW shape. Linear tensors use h = w = 1.
struct TensorShape {
  int64_t n = 1;  ///< batch (the paper uses batch size 1 throughout)
  int64_t c = 0;  ///< channels / features
  int64_t h = 1;
  int64_t w = 1;

  int64_t elements() const { return n * c * h * w; }
  int64_t bytes() const { return elements() * static_cast<int64_t>(sizeof(float)); }

  bool operator==(const TensorShape&) const = default;

  std::string to_string() const {
    std::string s = "[";
    s.append(std::to_string(n)).append(",").append(std::to_string(c)).append(",");
    s.append(std::to_string(h)).append(",").append(std::to_string(w)).append("]");
    return s;
  }
};

/// Owning float32 tensor (value semantics; used by the reference runtime).
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(TensorShape shape)
      : shape_(shape), data_(static_cast<std::size_t>(shape.elements()), 0.0f) {
    HIOS_CHECK(shape.elements() >= 0, "negative tensor size " << shape.to_string());
  }

  const TensorShape& shape() const { return shape_; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }

  float& at(int64_t n, int64_t c, int64_t h, int64_t w) {
    return data_[static_cast<std::size_t>(((n * shape_.c + c) * shape_.h + h) * shape_.w + w)];
  }
  float at(int64_t n, int64_t c, int64_t h, int64_t w) const {
    return data_[static_cast<std::size_t>(((n * shape_.c + c) * shape_.h + h) * shape_.w + w)];
  }

 private:
  TensorShape shape_;
  std::vector<float> data_;
};

}  // namespace hios::ops
