"""Device specifications for the analytical GPU performance model.

The paper's hardware is the NVIDIA A100 SXM4 80GB (§6); since this
reproduction runs on CPU, kernel and end-to-end timings are produced by an
analytical model parameterized by the published device constants below.
The model's outputs are *simulated* times — absolute values approximate
the real device, and the experiments check relative shapes (speedups,
crossovers), not microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSpec:
    """Constants describing one GPU for the cost model.

    Attributes:
        name: marketing name.
        fp16_tflops: dense tensor-core peak (FP16 with FP32 accumulate).
        fp32_tflops: CUDA-core FP32 peak (used for non-tensor-op work).
        hbm_bandwidth_gbs: DRAM bandwidth, GB/s.
        l2_bytes: L2 cache capacity.
        sm_count: number of streaming multiprocessors.
        memory_bytes: HBM capacity.
        kernel_launch_latency_s: host-side launch + scheduling latency per
            kernel.
        threadblock_start_latency_s: cost to schedule + early-exit one
            empty threadblock (drives the §5.1.3 over-launch ablation).
        nvlink_bandwidth_gbs: per-GPU NVLink bandwidth (for collectives).
        nvlink_latency_s: per-message latency on NVLink.
    """

    name: str
    fp16_tflops: float
    fp32_tflops: float
    hbm_bandwidth_gbs: float
    l2_bytes: int
    sm_count: int
    memory_bytes: int
    kernel_launch_latency_s: float = 4.0e-6
    threadblock_start_latency_s: float = 2.0e-7
    nvlink_bandwidth_gbs: float = 600.0
    nvlink_latency_s: float = 2.0e-6

    @property
    def fp16_flops(self) -> float:
        return self.fp16_tflops * 1e12

    @property
    def hbm_bytes_per_s(self) -> float:
        return self.hbm_bandwidth_gbs * 1e9

    @property
    def nvlink_bytes_per_s(self) -> float:
        return self.nvlink_bandwidth_gbs * 1e9


#: The paper's evaluation device (NVIDIA, 2020 whitepaper numbers).
A100_SXM4_80GB = DeviceSpec(
    name="A100-SXM4-80GB",
    fp16_tflops=312.0,
    fp32_tflops=19.5,
    hbm_bandwidth_gbs=2039.0,
    l2_bytes=40 * 1024 * 1024,
    sm_count=108,
    memory_bytes=80 * 1024**3,
)

#: Smaller part kept for model sanity tests (different roofline ridge).
V100_SXM2_32GB = DeviceSpec(
    name="V100-SXM2-32GB",
    fp16_tflops=125.0,
    fp32_tflops=15.7,
    hbm_bandwidth_gbs=900.0,
    l2_bytes=6 * 1024 * 1024,
    sm_count=80,
    memory_bytes=32 * 1024**3,
    nvlink_bandwidth_gbs=300.0,
)
