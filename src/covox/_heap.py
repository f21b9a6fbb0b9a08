"""Fixed glibc malloc thresholds, set once when covox is imported.

Voxel grids list only their tagged voxels, and a BEV travels and is
aggregated as its nonzero rows, but a trial still allocates and frees
blocks from a few hundred KiB to a few MiB: one agent's camera images and
depth distributions at a time, guidance attention's blocks of query rows
and attention aggregation's (slots x cells x F) key and value stacks; a
caller that reads `AgentRound.aggregated` adds a 2 MiB plane per record.
glibc's default thresholds are dynamic: after the first such block is
freed, blocks that size go on the heap, but the trim threshold stays at
twice that size, so the freed top of the heap can be handed back to the
kernel during a trial and the next allocations fault it in again.
Measured on a 2-core x86-64 host with glibc 2.36 over trials 4-23 of the
benchmark's 8-agent camera workload at seeds 0 and 7919, with the planes
its checks build: the dynamic thresholds cost a median trial 0-1 minor
faults and the worst 480-2,100.

Fixed values turn the dynamic thresholds off.  Blocks below 4 MiB stay on a
heap that is not trimmed until 256 MiB sit free at its top, so trials reuse
pages already mapped: at most 4 faults in any of those trials.  Larger
arrays stay lazily zeroed mmaps whose untouched pages cost nothing.  The
price is memory kept mapped between trials, about 1.5 MB of peak RSS there.
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
