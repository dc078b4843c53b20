"""Exact solver toolkit for the disk dispersal decision problem.

Decide whether moving at most k unit disks, each by at most d (Euclidean
or axis-parallel), yields a non-overlapping packing.  Ships exact scalar
arithmetic, instance reduction, a bounded search with certified grid
refutation, an independent brute-force oracle, hard-instance generators,
witness validation and SVG rendering.
"""

from .numerics import (
    Interval,
    Ordering,
    QuadExt,
    Scalar,
    compare,
    quadext,
    sqrt_lower_upper,
)
from .geometry import (
    Disk,
    Point,
    circle_circle_candidates,
    close_pairs,
    dist2,
    is_packing,
    overlap,
    within_move,
)
from .instance_io import (
    Instance,
    LatticeBlock,
    Witness,
    apply_witness,
    expand_blocks,
    parse_instance,
    parse_witness,
    validate_witness,
    write_instance,
    write_witness,
)
from .udg import IntersectionGraph, approx_vc, build_graph, components
from .kernel import (
    KernelReport,
    full_kernel,
    halo_partition,
    kernelize,
    shrink_kernel,
    shrink_parts,
    size_bound,
)
from .solver import Answer, Feasibility, SolverConfig, enumerate_candidate_sets, feasibility, solve
from .oracle import oracle
from .generators import (
    AppendingInstance,
    CompositionReachReport,
    gen_appending_frame,
    gen_colocated,
    gen_crosscompose,
    gen_random,
)
from .gridtiling import GridTilingInstance, gen_gridtiling, gridtiling_witness
from .render import RenderOptions, render_svg

__version__ = "0.1.0"
