"""Multilevel quantum layout synthesis: map logical circuits onto
restricted-connectivity devices with minimal inserted SWAP gates."""

from .cluster import (
    ClusterMap,
    ClusteringError,
    Level,
    LevelHierarchy,
    MappingRegion,
    cluster_physical,
    cluster_program,
    coarsen,
    interpolate,
)
from .exact import (
    ExactConfig,
    ExactResult,
    InstanceTooLarge,
    OracleLimitError,
    optimal_oracle,
    solve_exact,
)
from .flow import (
    FlowConfig,
    FlowResult,
    StageStat,
    compression_guard,
    run_mlqls,
)
from .model import (
    Circuit,
    CouplingGraph,
    DeviceError,
    Gate,
    Mapping,
    QasmError,
    build_dag,
    circuit_from_json,
    circuit_to_json,
    device_from_json,
    device_to_json,
    gen_chain,
    gen_qaoa,
    gen_queko,
    load_device,
    make_device,
    parse_qasm,
)
from .srefine import (
    SrefineConfig,
    astar_insert,
    forward_backward,
    initial_mapper,
    initial_matching,
    reverse_solution,
    sa_initial_mapping,
    srefine_run,
)
from .verify import (
    QlsSolution,
    SwapOp,
    VerifyReport,
    asap_depth,
    solution_from_json,
    solution_to_json,
    swap_count,
    verify,
)

__version__ = "0.1.0"
