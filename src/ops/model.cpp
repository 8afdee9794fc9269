#include "ops/model.h"

#include <algorithm>

namespace hios::ops {

OpId Model::add_input(const std::string& name, TensorShape shape) {
  HIOS_CHECK(shape.elements() > 0, "input '" << name << "' must have positive size");
  ops_.emplace_back(OpKind::kInput, name);
  inputs_.emplace_back();
  shapes_.push_back(shape);
  const OpId id = num_ops() - 1;
  input_ids_.push_back(id);
  mix_op(id);
  return id;
}

OpId Model::add_op(Op op, std::vector<OpId> inputs) {
  HIOS_CHECK(op.kind() != OpKind::kInput, "use add_input for input placeholders");
  std::vector<TensorShape> in_shapes;
  in_shapes.reserve(inputs.size());
  for (OpId in : inputs) {
    check(in);
    in_shapes.push_back(shapes_[static_cast<std::size_t>(in)]);
  }
  shapes_.push_back(op.infer_output(in_shapes));
  ops_.push_back(std::move(op));
  inputs_.push_back(std::move(inputs));
  const OpId id = num_ops() - 1;
  mix_op(id);
  return id;
}

int64_t Model::flops(OpId id) const {
  check(id);
  std::vector<TensorShape> in_shapes;
  for (OpId in : inputs_[static_cast<std::size_t>(id)])
    in_shapes.push_back(shapes_[static_cast<std::size_t>(in)]);
  return ops_[static_cast<std::size_t>(id)].flops(in_shapes);
}

int64_t Model::param_count(OpId id) const {
  check(id);
  std::vector<TensorShape> in_shapes;
  for (OpId in : inputs_[static_cast<std::size_t>(id)])
    in_shapes.push_back(shapes_[static_cast<std::size_t>(in)]);
  return ops_[static_cast<std::size_t>(id)].param_count(in_shapes);
}

int64_t Model::memory_bytes(OpId id) const {
  check(id);
  std::vector<TensorShape> in_shapes;
  for (OpId in : inputs_[static_cast<std::size_t>(id)])
    in_shapes.push_back(shapes_[static_cast<std::size_t>(in)]);
  return ops_[static_cast<std::size_t>(id)].memory_bytes(in_shapes);
}

int64_t Model::total_flops() const {
  int64_t total = 0;
  for (OpId id = 0; id < num_ops(); ++id)
    if (!is_input(id)) total += flops(id);
  return total;
}

int Model::num_compute_ops() const {
  int count = 0;
  for (OpId id = 0; id < num_ops(); ++id)
    if (!is_input(id)) ++count;
  return count;
}

int Model::num_compute_deps() const {
  int count = 0;
  for (OpId id = 0; id < num_ops(); ++id) {
    if (is_input(id)) continue;
    std::vector<OpId> seen;
    for (OpId in : inputs_[static_cast<std::size_t>(id)]) {
      if (is_input(in)) continue;
      if (std::find(seen.begin(), seen.end(), in) == seen.end()) {
        seen.push_back(in);
        ++count;
      }
    }
  }
  return count;
}

namespace {
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

void Model::mix_op(OpId id) {
  auto mix = [this](int64_t v) {
    fp_ = (fp_ ^ static_cast<uint64_t>(v)) * kFnvPrime;
    fp_check_ = splitmix64(fp_check_ ^ static_cast<uint64_t>(v));
  };
  const Op& op = ops_[static_cast<std::size_t>(id)];
  mix(static_cast<int64_t>(op.kind()));
  switch (op.kind()) {
    case OpKind::kConv2d:
    case OpKind::kSepConv2d: {
      const Conv2dAttr& a = op.conv_attr();
      for (int64_t v : {a.out_channels, a.kh, a.kw, a.sh, a.sw, a.ph, a.pw, a.groups}) mix(v);
      break;
    }
    case OpKind::kPool2d: {
      const Pool2dAttr& a = op.pool_attr();
      mix(static_cast<int64_t>(a.mode));
      for (int64_t v : {a.kh, a.kw, a.sh, a.sw, a.ph, a.pw}) mix(v);
      break;
    }
    case OpKind::kLinear:
      mix(op.linear_attr().out_features);
      break;
    default:
      break;
  }
  const TensorShape& shape = shapes_[static_cast<std::size_t>(id)];
  for (int64_t v : {shape.n, shape.c, shape.h, shape.w}) mix(v);
  const std::vector<OpId>& ins = inputs_[static_cast<std::size_t>(id)];
  mix(static_cast<int64_t>(ins.size()));
  for (OpId in : ins) mix(in);
}

uint64_t Model::fingerprint() const {
  return (fp_ ^ static_cast<uint64_t>(num_ops())) * kFnvPrime;
}

uint64_t Model::fingerprint_check() const {
  return splitmix64(fp_check_ ^ static_cast<uint64_t>(num_ops()));
}

graph::Graph Model::to_graph() const {
  graph::Graph g(name_);
  std::vector<graph::NodeId> node_of(static_cast<std::size_t>(num_ops()), graph::kInvalidNode);
  for (OpId id = 0; id < num_ops(); ++id) {
    if (is_input(id)) continue;
    node_of[static_cast<std::size_t>(id)] =
        g.add_node(ops_[static_cast<std::size_t>(id)].name(), 0.0, id);
  }
  for (OpId id = 0; id < num_ops(); ++id) {
    if (is_input(id)) continue;
    const graph::NodeId dst = node_of[static_cast<std::size_t>(id)];
    for (OpId in : inputs_[static_cast<std::size_t>(id)]) {
      if (is_input(in)) continue;
      const graph::NodeId src = node_of[static_cast<std::size_t>(in)];
      if (g.find_edge(src, dst) < 0) g.add_edge(src, dst, 0.0);
    }
  }
  return g;
}

}  // namespace hios::ops
