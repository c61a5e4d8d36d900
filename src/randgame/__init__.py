"""Randomized prediction games for secure SVM learning.

Library + CLI that finds Nash equilibria of randomized prediction games
between an SVM learner and a data-manipulating attacker, and evaluates the
resulting randomized classifiers under worst-case evasion attacks.
"""

from .attacks import (
    AttackSpec,
    SecurityCurve,
    attack_flip_binary,
    attack_l2_box,
    attack_l2_closed,
    predict,
    security_curve,
    tp_at_fp,
)
from .costs import (
    attacker_cost,
    attacker_grad,
    game_operator,
    learner_cost,
    learner_grad,
    pseudo_gradient,
    train_baseline_svm,
)
from .data import GridSpec, SplitSpec, load_dense_csv, load_sparse, normalize_unit_interval, split, synth_2d
from .diagnostics import (
    DiagnosticsReport,
    loss_hessians,
    monotonicity_sample,
    pseudo_jacobian,
    pseudo_jacobian_min_eig,
    uniqueness_margin,
)
from .hinge import MarginMoments, hinge_expect, hinge_expect_dmu, hinge_expect_dvar, margin_moments
from .kernel import DualParams, Kernel, dual_costs_and_grads, dual_game_operator, dual_margin_moments, gram
from .model import (
    AttackerParams,
    Dataset,
    GameSpec,
    LearnerParams,
    ParamBox,
    ShapeError,
    default_boxes,
    flatten,
    project_box,
    unflatten,
)
from .ops import VIGame
from .solver import (
    EquilibriumResult,
    SolverConfig,
    extragradient_solve,
    nash_verify,
    solve_svm_game,
    vi_residual,
)

__version__ = "0.1.0"
