"""Workload generators for microbenchmarks and the application study."""

from .fronts import MaxwellWorkload, build_maxwell_workload, \
    level_front_dims, synthetic_front_batch
from .gallery import GALLERY, GalleryEntry, gallery_entry, gallery_names, \
    run_gallery
from .random_batch import large_square_batch, panel_batch, \
    random_square_batch, triangular_batch, uniform_random_sizes
from .traffic import MixResult, RequestClass, STANDARD_MIXES, TrafficMix, \
    VirtualClock, run_mix

__all__ = [
    "uniform_random_sizes", "random_square_batch", "large_square_batch",
    "triangular_batch", "panel_batch",
    "MaxwellWorkload", "build_maxwell_workload", "level_front_dims",
    "synthetic_front_batch",
    "GalleryEntry", "GALLERY", "gallery_entry", "gallery_names",
    "run_gallery",
    "RequestClass", "TrafficMix", "VirtualClock", "MixResult",
    "run_mix", "STANDARD_MIXES",
]
