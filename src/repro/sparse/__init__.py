"""Multifrontal sparse direct LU solver (the application substrate).

Public surface: :class:`SparseLU` for the full analyze/factor/solve
pipeline, plus the phase-level building blocks (orderings, symbolic
analysis, numeric kernels, comparator backends) for experiments.
"""

from ..errors import FactorizationError
from .baselines import naive_loop_factor, strumpack_like_factor, \
    superlu_like_factor
from .numeric.cpu_factor import multifrontal_factor_cpu
from .numeric.report import FactorReport, check_factors_ok
from .numeric.gpu_factor import GpuFactorResult, HYBRID_GEMM_CUTOFF, \
    STRUMPACK_BATCH_LIMIT, multifrontal_factor_gpu, plan_traversals
from .numeric.gpu_solve import GpuSolveResult, multifrontal_solve_gpu
from .numeric.solve_plan import DeviceFactorCache, SolvePlan
from .numeric.shard import RankAssignment, ShardedFactorResult, \
    multifrontal_factor_sharded, partition_tree
from .numeric.triangular import multifrontal_solve
from .ordering.mc64 import Mc64Result, StructurallySingularError, mc64
from .ordering.nested_dissection import NestedDissection, \
    SeparatorTreeNode, nested_dissection
from .solver import SolveInfo, SparseLU
from .symbolic.analysis import FrontInfo, SymbolicFactorization, \
    symbolic_analysis

__all__ = [
    "SparseLU", "SolveInfo",
    "FactorizationError", "FactorReport", "check_factors_ok",
    "nested_dissection", "NestedDissection", "SeparatorTreeNode",
    "mc64", "Mc64Result", "StructurallySingularError",
    "symbolic_analysis", "SymbolicFactorization", "FrontInfo",
    "multifrontal_factor_cpu", "multifrontal_factor_gpu",
    "multifrontal_solve", "GpuFactorResult",
    "naive_loop_factor", "strumpack_like_factor", "superlu_like_factor",
    "HYBRID_GEMM_CUTOFF", "STRUMPACK_BATCH_LIMIT",
    "plan_traversals", "multifrontal_solve_gpu", "GpuSolveResult",
    "SolvePlan", "DeviceFactorCache",
    "multifrontal_factor_sharded", "ShardedFactorResult",
    "partition_tree", "RankAssignment",
]
