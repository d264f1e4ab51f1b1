"""Irregular batched dense linear algebra — the paper's core contribution.

Public surface:

* :class:`IrrBatch` — the expanded-interface batch container (§IV-A).
* :func:`irr_getrf` — irrLU-GPU, blocked LU with partial pivoting on a
  batch of matrices of completely arbitrary sizes.
* :func:`irr_gemm`, :func:`irr_trsm` — the building blocks (irrGEMM,
  recursive irrTRSM), usable standalone.
* :func:`irr_geqrf` — irrQR, the blocked Householder QR the paper's
  conclusion names as the interface's natural next decomposition.
* Panel and row-swap kernels (``fused_getf2`` / ``columnwise_getf2``,
  ``rehearsed_laswp`` / ``looped_laswp``) for ablation studies.
* Baselines: :func:`magma_style_trsm`, :func:`streamed_getrf`,
  :func:`vendor_gemm` / :func:`vendor_getrf`, :func:`cpu_getrf_batch`.
"""

from .cpu_batch import CpuBatchResult, cpu_getrf_batch
from .dcwi import GemmWork, Workload, infer_extent, infer_gemm, \
    infer_gemm_batch, infer_matrix, infer_matrix_batch, infer_trsm, \
    infer_trsm_batch, op_shape
from .engine import BatchEngine, PlanCache, resolve_engine
from .gemm import irr_gemm
from .getrf import DEFAULT_PANEL_WIDTH, irr_getrf, lu_reconstruct, \
    lu_solve_factored
from .getrs import irr_getrs
from .interface import IrrBatch, Offsets
from .interleaved import INTERLEAVED_MAX_N, InterleaveError, deinterleave, \
    interleave, interleaved_getrf
from .laswp import irr_laswp, looped_laswp, rehearsed_laswp
from .panel import PanelPivots, columnwise_getf2, factor_panel_block, \
    fused_getf2, panel_shared_bytes
from .qr import DEFAULT_QR_PANEL, QrTaus, apply_q, geqrf_flops, irr_geqrf, \
    qr_least_squares, qr_reconstruct
from .streamed import streamed_getrf
from .trsm import TRSM_BASE_NB, irr_trsm, magma_style_trsm
from .vbatched import gemm_vbatched, getrf_vbatched, trsm_vbatched
from .vendor import VENDOR_PANEL_NB, vendor_gemm, vendor_getrf, vendor_trsm

__all__ = [
    "IrrBatch", "Offsets", "Workload", "GemmWork",
    "infer_extent", "infer_matrix", "infer_gemm", "infer_trsm", "op_shape",
    "infer_matrix_batch", "infer_gemm_batch", "infer_trsm_batch",
    "BatchEngine", "PlanCache", "resolve_engine",
    "irr_gemm", "irr_trsm", "magma_style_trsm", "TRSM_BASE_NB",
    "PanelPivots", "fused_getf2", "columnwise_getf2", "panel_shared_bytes",
    "factor_panel_block",
    "irr_laswp", "looped_laswp", "rehearsed_laswp",
    "irr_getrf", "lu_reconstruct", "lu_solve_factored",
    "DEFAULT_PANEL_WIDTH",
    "streamed_getrf", "vendor_gemm", "vendor_trsm", "vendor_getrf",
    "VENDOR_PANEL_NB", "cpu_getrf_batch", "CpuBatchResult",
    "irr_geqrf", "QrTaus", "apply_q", "qr_reconstruct",
    "qr_least_squares", "geqrf_flops", "DEFAULT_QR_PANEL",
    "interleave", "deinterleave", "interleaved_getrf", "INTERLEAVED_MAX_N",
    "InterleaveError",
    "irr_getrs",
    "gemm_vbatched", "trsm_vbatched", "getrf_vbatched",
]
