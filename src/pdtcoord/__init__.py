"""Coordination layer for parallel multi-stream decoding.

Implements the desk-scale mechanics of coordinated parallel decoding against
frozen replay artifacts: a versioned notes bus with lagged snapshots, gated
cross-stream note attention, agreement-gated rollback with stride commits,
emission cadence policies, KV memory budgeting with rollback-aware paging,
closed-form coordination analytics, and adaptive two-task loss balancing.
Every run is a pure function of its seed and configuration.

The package root exports the README quick start; every other name is
imported from the module that defines it.
"""

from .decode import DecodeConfig, run_parallel
from .replay import SynthSpec, synthesize_artifact

__version__ = "0.1.0"
