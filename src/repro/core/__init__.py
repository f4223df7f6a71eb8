"""The paper's contribution: k-reach, (h,k)-reach, and general-k support."""

from repro.core.condensed import CondensedKReach
from repro.core.dynamic import DynamicKReachIndex
from repro.core.general_k import INFINITE_DISTANCE, CoverDistanceOracle
from repro.core.hkreach import HKReachIndex
from repro.core.index_graph import (
    IndexGraph,
    cover_planes_blocked,
    cover_triples_blocked,
    cover_triples_serial,
)
from repro.core.kreach import KReachIndex
from repro.core.partition import (
    Shard,
    ShardedKReach,
    default_hub_count,
    partition_kreach,
)
from repro.core.serialize import (
    IndexCorruptionError,
    OpLog,
    load_mmap,
    load_sharded,
    read_oplog,
    recover_dynamic,
    recover_oplog,
    save_mmap,
    save_sharded,
    verify_file,
)
from repro.core.serve import (
    QueryServer,
    QueryTimeout,
    ThreadQueryServer,
    UnknownTicketError,
)
from repro.core.sharded import ShardedQueryServer
from repro.core.vertex_cover import (
    COVER_STRATEGIES,
    cover_from_strategy,
    greedy_vertex_cover,
    hhop_vertex_cover,
    is_hhop_vertex_cover,
    is_vertex_cover,
    vertex_cover_2approx,
)

__all__ = [
    "KReachIndex",
    "CondensedKReach",
    "HKReachIndex",
    "DynamicKReachIndex",
    "IndexGraph",
    "cover_planes_blocked",
    "cover_triples_blocked",
    "cover_triples_serial",
    "save_mmap",
    "load_mmap",
    "save_sharded",
    "load_sharded",
    "IndexCorruptionError",
    "OpLog",
    "read_oplog",
    "recover_oplog",
    "recover_dynamic",
    "verify_file",
    "QueryServer",
    "ThreadQueryServer",
    "QueryTimeout",
    "UnknownTicketError",
    "ShardedQueryServer",
    "ShardedKReach",
    "Shard",
    "partition_kreach",
    "default_hub_count",
    "CoverDistanceOracle",
    "INFINITE_DISTANCE",
    "COVER_STRATEGIES",
    "cover_from_strategy",
    "greedy_vertex_cover",
    "hhop_vertex_cover",
    "is_hhop_vertex_cover",
    "is_vertex_cover",
    "vertex_cover_2approx",
]
