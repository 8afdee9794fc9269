#include "cost/gpu_spec.h"

namespace hios::cost {

GpuSpec make_a40() {
  GpuSpec spec;
  spec.name = "NVIDIA A40";
  spec.sm_count = 84;
  spec.fp32_tflops = 37.4;
  spec.mem_bw_gbps = 696.0;
  spec.launch_overhead_ms = 0.006;
  return spec;
}

GpuSpec make_a5500() {
  GpuSpec spec;
  spec.name = "NVIDIA RTX A5500";
  spec.sm_count = 80;
  spec.fp32_tflops = 34.1;
  spec.mem_bw_gbps = 768.0;
  spec.launch_overhead_ms = 0.006;
  return spec;
}

GpuSpec make_v100s() {
  GpuSpec spec;
  spec.name = "NVIDIA Tesla V100S";
  spec.sm_count = 80;
  spec.fp32_tflops = 16.4;
  spec.mem_bw_gbps = 1134.0;
  spec.launch_overhead_ms = 0.007;
  return spec;
}

InterconnectSpec make_nvlink_bridge() {
  // 112.5 GB/s bidirectional bridge; one-way effective ~50 GB/s after
  // protocol overhead. Latency includes the CUDA-aware MPI send/recv path;
  // sync_overhead is the receiving-side kernel-launch stall (§VI-E).
  return InterconnectSpec{"NVLink bridge", 50.0, 0.012, 0.030};
}

InterconnectSpec make_pcie_gen3() {
  return InterconnectSpec{"PCIe Gen3 x16", 11.0, 0.030, 0.050};
}

Platform make_dual_a40_nvlink() {
  return Platform{"2x A40 + NVLink", make_a40(), make_nvlink_bridge(), 2, {}};
}

Platform make_dual_a5500_nvlink() {
  return Platform{"2x RTX A5500 + NVLink", make_a5500(), make_nvlink_bridge(), 2, {}};
}

Platform make_dual_v100s_pcie() {
  return Platform{"2x V100S + PCIe Gen3", make_v100s(), make_pcie_gen3(), 2, {}};
}

Platform make_a40_server(int num_gpus) {
  Platform p = make_dual_a40_nvlink();
  p.name = "A40 server (" + std::to_string(num_gpus) + " GPUs, NVLink)";
  p.num_gpus = num_gpus;
  return p;
}

Platform with_nccl_backend(Platform base) {
  base.link.sync_overhead_ms = 0.0;
  base.link.name += " (NCCL)";
  base.name += " + NCCL";
  return base;
}

Platform make_a40_cluster(int nodes, int gpus_per_node, double cross_bw_scale,
                          double cross_extra_latency_ms) {
  Platform p = make_dual_a40_nvlink();
  p.num_gpus = nodes * gpus_per_node;
  p.name = "A40 cluster (" + std::to_string(nodes) + "x" + std::to_string(gpus_per_node) +
           " GPUs, NVLink + network)";
  p.topology = Topology::hierarchical(p.num_gpus, gpus_per_node,
                                      LinkClass{cross_bw_scale, cross_extra_latency_ms});
  return p;
}

}  // namespace hios::cost
