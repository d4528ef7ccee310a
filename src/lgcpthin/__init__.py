"""Log-Gaussian Cox processes under distance-based observation thinning.

Simulate spatial point patterns whose intensity is degraded by accessibility
(half-normal thinning in distance to a road network), fit them with either a
naive model that ignores the degradation or a varying-sampling-effort (VSE)
model that corrects for it, and compare the two with standard predictive
criteria.
"""

__version__ = "0.1.0"

from lgcpthin.errors import FitError, LgcpThinError, NotSpdError, ParseError
from lgcpthin.geo import Grid, PointPattern, RasterGrid, RoadNetwork
from lgcpthin.grf import MaternParams, PcPriorSpec, build_precision, matern_cov, sample_matern_field
from lgcpthin.inference import ModelSpec, NormalPrior, fit, predict_intensity
from lgcpthin.pointprocess import ThinningConfig, make_log_intensity, q_probability, simulate_lgcp, thin

__all__ = [
    "FitError", "Grid", "LgcpThinError", "MaternParams", "ModelSpec",
    "NormalPrior", "NotSpdError", "ParseError", "PcPriorSpec", "PointPattern",
    "RasterGrid", "RoadNetwork", "ThinningConfig", "__version__",
    "build_precision", "fit", "make_log_intensity", "matern_cov",
    "predict_intensity", "q_probability", "sample_matern_field",
    "simulate_lgcp", "thin",
]
