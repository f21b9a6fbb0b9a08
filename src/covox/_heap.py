"""Fixed glibc malloc thresholds, set once when covox is imported.

Voxel grids list only their tagged voxels, but a trial still allocates and
frees 2 MiB planes (64 x 64 BEV cells x 64 float64 channels): each agent's
BEV and each receiver's aggregated plane, 16-32 MiB per trial.  glibc's
default thresholds are dynamic: after the first 2 MiB block is freed,
blocks that size go on the heap, but the trim threshold stays at twice that
size, so the freed top of the heap is handed back to the kernel at the end
of every trial and the next trial has to fault it in again.  Measured on a
2-core x86-64 host with glibc 2.36, after three warm-up trials: with the
dynamic thresholds a 4-agent LiDAR trial took a median of about 1.1k minor
faults (4.7 ms of system time) and an 8-agent camera trial about 4.6k
(15 ms).

Fixed values turn the dynamic thresholds off.  Blocks below 4 MiB stay on a
heap that is not trimmed until 256 MiB sit free at its top, so trials reuse
pages already mapped: a median of 0-1 faults per trial for both, and at
most about 200 in any trial.  Larger arrays, such as the 6-15 MiB phase-2
plane stacks, stay lazily zeroed mmaps whose untouched rows cost nothing.
The price is memory kept mapped between trials.
"""

from __future__ import annotations

import ctypes
import sys
import warnings

# <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 256 << 20


def fix_thresholds() -> None:
    """Set both thresholds through glibc's `mallopt`; a no-op on any other
    C library."""
    if sys.platform != "linux":
        return
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return  # not glibc: its mallopt, if any, takes other options
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    for name, param, value in (
        ("M_MMAP_THRESHOLD", _M_MMAP_THRESHOLD, MMAP_THRESHOLD),
        ("M_TRIM_THRESHOLD", _M_TRIM_THRESHOLD, TRIM_THRESHOLD),
    ):
        if libc.mallopt(param, value) != 1:
            warnings.warn(f"mallopt({name}, {value}) failed", RuntimeWarning, stacklevel=2)
            return
