"""Randomized prediction games for secure SVM learning.

Library + CLI that finds Nash equilibria of randomized prediction games
between an SVM learner and a data-manipulating attacker, and evaluates the
resulting randomized classifiers under worst-case evasion attacks.
"""

from .attacks import (SecurityCurve, attack_flip_binary, attack_l2_box, attack_l2_closed,
                      security_curve, tp_at_fp)
from .costs import game_operator, train_baseline_svm
from .data import load_dataset, load_dense_csv, load_sparse, synth_2d
from .diagnostics import (DiagnosticsReport, monotonicity_sample, profile_curvature,
                          uniqueness_margin)
from .hinge import hinge_expect
from .kernel import Kernel, dual_game_operator, gram
from .model import Dataset, GameSpec, ShapeError, default_boxes
from .ops import VIGame
from .solver import EquilibriumResult, SolverConfig, extragradient_solve, vi_residual

__version__ = "0.1.0"
