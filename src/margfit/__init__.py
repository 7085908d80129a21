"""margfit: marginal-survival-weighted relative-risk estimation.

Estimators for (possibly time-varying) relative-risk coefficients under
right censoring: classical partial likelihood, Kaplan-Meier-weighted, and
parametric-marginal-weighted score equations, with Andersen-Gill and robust
sandwich variances, an exact simulation engine with censoring calibration,
asymptotic relative-efficiency quadrature, and resampling distributions.

Each submodule's ``__all__`` declares its public names; this namespace
re-exports all of them.
"""

from . import dataset, efficiency, errors, estimate, marginal, resample, simulate
from .dataset import *  # noqa: F401,F403
from .efficiency import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimate import *  # noqa: F401,F403
from .marginal import *  # noqa: F401,F403
from .resample import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (errors, dataset, marginal, estimate, simulate, efficiency, resample)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
