"""Guaranteed-injective volumetric deformations.

A deformation net is a composition of prism layers.  Each layer picks an
orthonormal frame, deforms the two in-plane coordinates by a planar mesh
map whose vertex positions come from a Tutte embedding with positive edge
weights and a convex boundary, and leaves the third coordinate unchanged.
Every layer is a bijection of the [-1, 1]^3 box by construction, so the
composition is injective for any parameter values: optimization can never
produce a fold, and the exact inverse is always available.
"""

import os as _os

# Honor TUTTEDEFORM_THREADS before numpy loads its BLAS backend.  Only
# effective if this package is imported first; an exported variable in the
# shell always works.
_threads = _os.environ.get("TUTTEDEFORM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .errors import (DeformError, InternalError, NotInImageError,
                     NumericalError, OutOfDomainError)
from .mesh2d import Mesh2D, PLMap2D, build_mesh, locate_points, realize_plmap
from .tutte import (TutteLayerParams, boundary_rest_angles, build_boundary,
                    identity_params, solve_tutte, squash)
from .prism import Frame, frame_from_axis_angle, triplane_frames
from .deform import (DeformationNet, PointSet, forward, forward_trace, inverse,
                     inverse_jacobians, jacobians, realize)
from .energy import (HandleConstraint, LossWeights, distortion_multipliers,
                     layer_regularization, strain_energy_density)
from .grad import (FitTarget, LossConfig, LossValues, ParamGradient, evaluate,
                   evaluate_with_gradient)
from .optim import (AdamState, ElasticJob, FitJob, LearningRate, NetSpec,
                    RunReport, StopRule, adam_step, init_params, pack_params,
                    run_elastic, run_fit, unpack_params)
from .fileio import Geometry, Normalization, load_geometry, save_geometry
from .jobfile import ConfigError, JobFile, load_jobfile
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "DeformError", "InternalError", "NotInImageError", "NumericalError",
    "OutOfDomainError", "ConfigError",
    "Mesh2D", "PLMap2D", "build_mesh", "locate_points", "realize_plmap",
    "TutteLayerParams", "boundary_rest_angles", "build_boundary",
    "identity_params", "solve_tutte", "squash",
    "Frame", "frame_from_axis_angle", "triplane_frames",
    "DeformationNet", "PointSet", "forward", "forward_trace", "inverse",
    "inverse_jacobians", "jacobians", "realize",
    "HandleConstraint", "LossWeights", "distortion_multipliers",
    "layer_regularization", "strain_energy_density",
    "FitTarget", "LossConfig", "LossValues", "ParamGradient", "evaluate",
    "evaluate_with_gradient",
    "AdamState", "ElasticJob", "FitJob", "LearningRate", "NetSpec",
    "RunReport", "StopRule", "adam_step", "init_params", "pack_params",
    "run_elastic", "run_fit", "unpack_params",
    "Geometry", "Normalization", "load_geometry", "save_geometry",
    "JobFile", "load_jobfile",
    "Checkpoint", "load_checkpoint", "save_checkpoint",
    "__version__",
]
