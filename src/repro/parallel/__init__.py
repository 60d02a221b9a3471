"""Host-side parallel execution: process-sharded path fleets."""

from .partition import chunk_evenly
from .shard import ShardedFleetRunner, ShardPlan, partition_paths

__all__ = [
    "chunk_evenly",
    "ShardPlan",
    "ShardedFleetRunner",
    "partition_paths",
]
