"""Simulated SIMT GPU substrate: devices, warps, occupancy, timing."""

from .counters import KernelCounters
from .device import FERMI_GTX580, KEPLER_K40, DeviceSpec
from .multi_gpu import MultiGpuRun, run_multi_gpu
from .occupancy import KernelResources, Occupancy, best_occupancy, occupancy
from .shared_memory import transactions_for_access
from .warp import WARP_SIZE, shfl_xor

__all__ = [
    "DeviceSpec",
    "KEPLER_K40",
    "FERMI_GTX580",
    "KernelCounters",
    "MultiGpuRun",
    "run_multi_gpu",
    "KernelResources",
    "Occupancy",
    "occupancy",
    "best_occupancy",
    "transactions_for_access",
    "WARP_SIZE",
    "shfl_xor",
]
