"""Fixed glibc malloc thresholds, set once when covox is imported.

Voxel grids list only their tagged voxels and a BEV travels as its nonzero
rows, but a trial still allocates and frees blocks from a few hundred KiB
to 2 MiB: one agent's camera images and depth distributions at a time,
guidance attention's blocks of query rows, the aggregation's token stacks
and each receiver's aggregated plane (64 x 64 BEV cells x 64 float64
channels), which lives until its nonzero rows are taken.  glibc's default
thresholds are dynamic: after the first such block is freed, blocks that
size go on the heap, but the trim threshold stays at twice that size, so
the freed top of the heap is handed back to the kernel during a trial and
the next allocations fault it in again.  Measured on a 2-core x86-64 host
with glibc 2.36, after three warm-up trials, over 20 trials of the
benchmark's workloads at seeds 0 and 7919: with the dynamic thresholds an
8-agent camera trial took a median of 2.3k-2.6k minor faults (3.8-3.9 ms
of system time); a 4-agent LiDAR trial took a median of 0.

Fixed values turn the dynamic thresholds off.  Blocks below 4 MiB stay on a
heap that is not trimmed until 256 MiB sit free at its top, so trials reuse
pages already mapped: a median of 0 faults per trial for both, and at most
about 550 in any trial.  Larger arrays stay lazily zeroed mmaps whose
untouched pages cost nothing.  The price is memory kept mapped between
trials.
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
