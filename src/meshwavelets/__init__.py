"""Multi-scale diffusion wavelet dictionaries on triangle meshes.

Builds Mexican-hat-like wavelet families by backward-Euler heat diffusion of
Laplacian-filtered vertex indicators, and uses them for delta-function
reconstruction, self-matching and cross-shape correspondence, with spectral
oracles and an evaluation harness.
"""

from .errors import DataError, NumericalError
from .evaluation import EvalCurve, curve, geodesic_errors
from .experiments import parse_config, run_experiment
from .geodesics import edge_graph, geodesic_distances_multi
from .laplacian import LaplacianPair, Shape, build_laplacian
from .matching import (PointMap, identity_map, load_pointmap, nearest_rows,
                       reconstruct_delta_map, save_pointmap, transfer_pointmap)
from .mesh import (TriangleMesh, face_areas, load_mesh, normalize_unit_area,
                   total_area, write_off)
from .sampling import SampleSet, explicit_samples, perturb_samples, sample
from .solve import Spectrum, SpdSystem, factorize, generalized_eigs
from .spectral import (DictionaryError, FunctionalMap, dictionary_error,
                       eigenbasis_selfmatch_map, fmap_to_pointmap,
                       gt_functional_map, ground_truth_wavelets, spectral_mexican_hat)
from .wavelets import (Dictionary, build_dictionary, diffusion_step,
                       indicator_columns, load_dictionary, mother_wavelets,
                       pair_rhos, save_dictionary)

__version__ = "0.1.0"
