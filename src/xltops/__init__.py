"""Operating protocols for trains longer than station platforms.

The package models platform/train alignment protocols as seven binary
decision tables, checks their feasibility, generates the staggered
"step" protocol family from closed-form parameters, routes passengers
with minimum transfers, simulates steady-state section loads, optimizes
entry-rate metering exactly, and renders bar-chart diagrams.
"""

from .core_model import (
    EolRule,
    LineInstance,
    ProtocolSpec,
    StationTypeCatalog,
    TrainPart,
    TrainTypeSpec,
    build_protocol,
    derive_parts,
    fr_h,
    fr_i,
    ftr,
    line_from_json,
    line_to_json,
    spec_from_json,
    spec_to_json,
)
from .errors import XltError
from .feasibility import (
    FeasibilityReport,
    Violation,
    check,
    check_eol,
    check_presentation_standard,
)
from .flow_sim import (
    AssignmentTensor,
    CapacityReport,
    LoadProfile,
    access_penalty_ftr,
    build_assignment,
    build_assignment_split,
    capacity_report,
    headway_capacity_reduction,
    headway_correction,
    section_capacities,
    simulate_loads,
    size_sections_proportional,
)
from .metering_opt import (
    EvenDensityReport,
    MeteringProblem,
    MeteringSolution,
    even_density_check,
    solve_inner_lp,
    solve_outer,
)
from .routing import (
    ConnectivityGraph,
    RoutePlan,
    build_graph,
    matrix_worst_pair,
    min_transfers,
    optimal_plans,
    transfer_matrix,
)
from .s_family import (
    Bar,
    BarChart,
    MultiTrainChart,
    SFamilySpec,
    build_ftr3,
    build_s52_2,
    chart_from_json,
    chart_to_json,
    chart_to_protocol,
    compose_skip_stop,
    generate_s,
    greedy_presentation_refine,
    max_connected_classes,
    max_length_with_transfers,
    stops_per_train,
    strict_floor,
    train_length_ratio,
    worst_case_transfers,
)
from .render_io import (
    ChartRendering,
    GateSignTable,
    derive_gate_signs,
    gate_door_consistency,
    main,
    render_chart,
)

__all__ = [name for name in dir() if not name.startswith("_")]
