// From-scratch structural hashes: the test oracle for ops::Model's
// add-time fingerprint and fingerprint_check.
#include "oracles/oracles.h"

namespace hios::oracle {

namespace {
uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

ModelHashes model_hashes(const ops::Model& model) {
  constexpr uint64_t kFnvPrime = 1099511628211ULL;
  uint64_t fnv = 1469598103934665603ULL;
  uint64_t check = 0x6a09e667f3bcc908ULL;
  auto mix = [&](int64_t v) {
    fnv = (fnv ^ static_cast<uint64_t>(v)) * kFnvPrime;
    check = splitmix64(check ^ static_cast<uint64_t>(v));
  };
  for (ops::OpId id = 0; id < model.num_ops(); ++id) {
    const ops::Op& op = model.op(id);
    mix(static_cast<int64_t>(op.kind()));
    switch (op.kind()) {
      case ops::OpKind::kConv2d:
      case ops::OpKind::kSepConv2d: {
        const ops::Conv2dAttr& a = op.conv_attr();
        for (int64_t v : {a.out_channels, a.kh, a.kw, a.sh, a.sw, a.ph, a.pw, a.groups})
          mix(v);
        break;
      }
      case ops::OpKind::kPool2d: {
        const ops::Pool2dAttr& a = op.pool_attr();
        mix(static_cast<int64_t>(a.mode));
        for (int64_t v : {a.kh, a.kw, a.sh, a.sw, a.ph, a.pw}) mix(v);
        break;
      }
      case ops::OpKind::kLinear:
        mix(op.linear_attr().out_features);
        break;
      default:
        break;
    }
    const ops::TensorShape& shape = model.output_shape(id);
    for (int64_t v : {shape.n, shape.c, shape.h, shape.w}) mix(v);
    mix(static_cast<int64_t>(model.inputs(id).size()));
    for (ops::OpId in : model.inputs(id)) mix(in);
  }
  mix(model.num_ops());
  return {fnv, check};
}

}  // namespace hios::oracle
