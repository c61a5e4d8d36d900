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
from .costs import costs_and_grads, game_operator, train_baseline_svm
from .data import GridSpec, SplitSpec, load_dense_csv, load_sparse, normalize_unit_interval, split, synth_2d
from .diagnostics import (
    DiagnosticsReport,
    loss_hessians,
    monotonicity_sample,
    pseudo_jacobian,
    uniqueness_margin,
)
from .hinge import hinge_expect
from .kernel import Kernel, dual_costs_and_grads, dual_game_operator, gram
from .model import (
    AttackerParams,
    Dataset,
    GameSpec,
    LearnerParams,
    ParamBox,
    ShapeError,
    default_boxes,
    flatten,
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
