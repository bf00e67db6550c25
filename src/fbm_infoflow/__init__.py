"""Entropy flow, Fisher information and De Bruijn-type identity checks for
channels driven by fractional Brownian motion."""

from . import channels, doss, fbm, identities, infofunc, montecarlo, sigma
from .channels import (
    ChannelSpec,
    DensityField,
    FlowField,
    GaussianField,
    GaussianLaw,
    GridField,
    GridLaw,
    additive,
    density_at,
    gaussian_field,
    gaussian_law,
    grid_law,
    multiplicative,
)
from .doss import PhiSolution, invert_phi, solve_phi
from .fbm import HurstParameter, covariance, sample_paths
from .identities import (
    IdentityReport,
    debruijn_check,
    entropy_power_check,
    fokker_planck_residual,
    kl_flow_check,
    stein_check,
)
from .infofunc import (
    entropy,
    entropy_power,
    expectation,
    generalized_fisher,
    kl_divergence,
    relative_fisher,
)
from .montecarlo import McEstimate, RunningMoments, mc_expectation
from .sigma import SigmaModel, constant, custom, sqrt_one_plus_square

__version__ = "0.1.0"
