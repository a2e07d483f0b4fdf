"""Scale-free synchronization protocol design, simulation, and certification
for discrete-time multi-agent systems with unknown bounded input delays."""

from .config import ScenarioConfig, load_config, parse_config, write_config
from .demos import demo_model, demo_scenario
from .design import (AgentModel, ProtocolDesign, choose_rho, choose_theta,
                     delay_admissible, design_protocol, estimate_mu,
                     validate_assumptions)
from .dynamics import DelayProfile, Trajectory, simulate
from .network import CommGraph, is_rooted
from .riccati import (DareSolution, dare_residual, feedback_gain,
                      solve_low_gain_dare)
from .spectral import eigenvalues, is_schur_stable, omega_max, spectral_radius
from .verify import (ConvergenceReport, StabilityCertificate,
                     closed_loop_certificate, convergence_report)

__version__ = "0.1.0"

__all__ = [
    "AgentModel", "CommGraph", "ConvergenceReport", "DareSolution",
    "DelayProfile", "ProtocolDesign", "ScenarioConfig",
    "StabilityCertificate", "Trajectory", "choose_rho", "choose_theta",
    "closed_loop_certificate", "convergence_report", "dare_residual",
    "delay_admissible", "demo_model", "demo_scenario", "design_protocol",
    "eigenvalues", "estimate_mu", "feedback_gain", "is_rooted",
    "is_schur_stable", "load_config", "omega_max", "parse_config",
    "simulate", "solve_low_gain_dare", "spectral_radius",
    "validate_assumptions", "write_config",
]
