"""Networked stochastic differential equations.

Simulation, quasi-likelihood estimation and sparse graph recovery for
systems of coupled diffusions on a directed graph.  The drift of each
node depends on its own state and the states of its parents; estimating
which couplings are nonzero recovers the graph.
"""
from .estimate import (EstimationError, FitResult, fit_adaptive_closed_form,
                       fit_diffusion_scale, fit_linear_closed_form, fit_qmle,
                       model_hessian, quasi_loglik)
from .experiments import (StudyError, StudyReport, cluster_lambda_curve,
                          detect_communities, error_bound_study,
                          find_er_graph_with_edges, label_agreement,
                          modularity, recovery_study, reference_er_graph,
                          run_study, select_graph, study_graph)
from .graph import (DirectedGraph, GraphError, build_graph, complete_graph,
                    erdos_renyi, ergodicity_margin, largest_singular_value,
                    polymer, sbm)
from .ingest import (IngestError, PanelData, complete_cases, load_panel_csv,
                     parse_panel_csv, to_sample_path)
from .lasso import (LassoError, LassoPath, adaptive_weights,
                    estimate_adjacency, graph_from_adjacency, kkt_residual,
                    lambda_max, lambda_path, lsa_solve, psd_project,
                    select_lambda, two_step_refit, validation_loss)
from .model import (ConfigFieldError, ConstantDiagonal, LinearDrift,
                    ModelError, NsdeSpec, ParamLayout, ParamVector,
                    RadialDictionaryDrift, TanhClipped, default_bounds,
                    parameter_layout, params_from_config, spec_from_config)
from .simulate import (SamplePath, SimulationError, derive_seeds, read_csv,
                       simulate_ensemble, simulate_path, write_csv)

__version__ = "0.1.0"

__all__ = [
    "ConfigFieldError", "ConstantDiagonal", "DirectedGraph", "EstimationError", "FitResult", "GraphError", "IngestError", "LassoError", "LassoPath",
    "LinearDrift", "ModelError", "NsdeSpec", "PanelData", "ParamLayout",
    "ParamVector", "RadialDictionaryDrift", "SamplePath", "SimulationError",
    "StudyError", "StudyReport", "TanhClipped", "adaptive_weights",
    "build_graph", "cluster_lambda_curve", "complete_cases", "complete_graph",
    "default_bounds", "derive_seeds", "detect_communities", "erdos_renyi",
    "ergodicity_margin", "error_bound_study", "estimate_adjacency",
    "find_er_graph_with_edges", "fit_adaptive_closed_form",
    "fit_diffusion_scale", "fit_linear_closed_form", "fit_qmle",
    "graph_from_adjacency", "kkt_residual", "label_agreement",
    "lambda_max", "lambda_path", "largest_singular_value", "load_panel_csv",
    "lsa_solve", "model_hessian", "modularity",
    "parameter_layout", "params_from_config",
    "parse_panel_csv", "polymer", "psd_project", "quasi_loglik",
    "read_csv", "recovery_study", "reference_er_graph", "run_study",
    "sbm", "select_graph",
    "select_lambda", "simulate_ensemble", "simulate_path", "spec_from_config",
    "study_graph", "to_sample_path", "two_step_refit",
    "validation_loss", "write_csv",
]
