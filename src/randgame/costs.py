"""Expected player costs of the randomized prediction game and their analytic
gradients from one evaluation of a joint profile (or of a stack of them), the
game operator, and the exact baseline C-SVM.

One evaluation serves both games. The margins are 1 -+ y_i(a.M x_i + b) for a
symmetric PSD metric M, and the attacker's regularizer pulls each x_i towards
its anchor xhat_i in the same metric:

Learner cost:   rho_l/2 (mu_a.M mu_a + diag(M).sigma_a^2)
                + bias_reg/2 (mu_b^2 + sigma_b^2) + sum_i h(mu_s_i, sigma_i)
Attacker cost:  sum_i rho_d/2 ((mu_x_i - xhat_i).M(mu_x_i - xhat_i)
                + diag(M).sigma_x_i^2) + h(mu_t_i, sigma_i)

Both costs depend on the profile only through the margin means
mu_s/t = 1 -+ y(mu_a.M mu_x + mu_b) and one shared variance sigma^2. The
primal SVM game is M = I with the training points as anchors; the kernel game
(kernel.py) is M = K with the unit vectors as anchors.

rho_d multiplies the attacker's regularizer, and the gradient below is the
derivative of that cost as written. (The published gradient display instead
attaches rho_d to the loss terms, which is inconsistent with the cost it is
derived from; we keep cost/gradient consistency.)

Deviations are dominated. With v = dh/d(sigma^2) = phi(mu/sigma) / (2 sigma),
which is > 0 for every margin since phi > 0 and sigma > 0, _evaluation's
gradient in each player's own deviations is

    sigma_a:    rho_l diag(M) sigma_a + 2 sigma_a ((Mx)^2 v_s + (M*M)(sigma_x^2 v_s))
    sigma_b:    bias_reg sigma_b + 2 sigma_b sum(v_s)
    sigma_x_i:  (rho_d diag(M) + 2 w_x v_t_i) sigma_x_i,  w_x = (M mu_a)^2 + (M*M) sigma_a^2

with squares taken entrywise and sums over the samples. Every factor of the
loss terms is >= 0 (M*M is entrywise non-negative), every deviation is > 0 on
the box, and diag(M) > 0 for M = I and for a Gram matrix with no zero point in
feature space (an RBF K has diag(K) = 1). So with rho_l, rho_d > 0 each entry
is > 0 at every profile in the box, sigma_b's whenever bias_reg > 0 or some
v_s > 0, and the pseudo-gradient's positive weights keep the sign. A solution
of the VI on a box has F_j (theta_j - theta*_j) >= 0 for every theta_j in
[lower_j, upper_j], so F_j > 0 puts theta*_j at lower_j: every equilibrium
plays every deviation at its floor, and is the equilibrium of the means with
the deviations fixed there. In floating point sum(v_s) can underflow to 0
when every margin lies many sigma from the kink, so at bias_reg = 0 sigma_b
may end above its floor.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .hinge import hinge_expect, hinge_hessian
from .model import Dataset, GameSpec, ShapeError
from .ops import VIGame, dense_newton, dense_newton_price, pseudo_jacobian, solve_learner

# 1 + _SIGNS y score stacks the learner's margins 1 - y score over the attacker's.
_SIGNS = np.array([[-1.0], [1.0]])


def _unpack(theta, m, n):
    """The checked parts (mu_a, mu_b, sigma_a, sigma_b, planes) of the flat
    joint profiles theta, of shape (..., dim), of n attacker rows of m means
    and m deviations, where planes is a contiguous (..., 2m, n) copy of the
    attacker rows: column i is (mu_x_i; sigma_x_i). mu_b and sigma_b have the
    stack's shape (...), and are numpy floats for one profile. Every entry is
    checked: finite first, then every deviation strictly positive (on the
    planes, where the check runs along the rows)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (2 * m + 2 + 2 * n * m,):
        raise ShapeError(f"vector shape {theta.shape} inconsistent with n={n}, m={m}")
    stack = theta.shape[:-1]
    learner = theta[..., : 2 * m + 2]
    planes = theta[..., 2 * m + 2 :].reshape(stack + (n, 2 * m)).swapaxes(-1, -2).copy()
    if not (np.isfinite(learner).all() and np.isfinite(planes).all()):
        raise ValueError("parameters must be finite")
    if not (learner[..., m + 1 :].min(initial=np.inf) > 0
            and planes[..., m:, :].min(initial=np.inf) > 0):
        raise ValueError("deviations must be strictly positive")
    # [()] makes one profile's biases numpy floats, whose arithmetic costs no ufunc call
    return (learner[..., :m], learner[..., m][()], learner[..., m + 1 : 2 * m + 1],
            learner[..., 2 * m + 1][()], planes)


def _moments(mu_a, mu_b, sig_a, sig_b, planes, by_M, M_v, M2_v):
    """The margin moments of _unpack's parts, one profile or a stack: s2a, s2x,
    Mx, Mx2, Ma, w_x and each sample's score a.M x + b and sigma, on the
    (..., m, n) planes. _evaluation, jacobian and newton_step all take them
    here, so all three see the same bits: at a margin many sigma from the kink
    the hinge terms magnify a last-bit difference in sigma by (mu / sigma)^2."""
    m = planes.shape[-2] // 2
    s2a, s2x = sig_a**2, planes[..., m:, :] ** 2
    Mx = by_M(planes[..., :m, :])  # column i is M mu_x_i; mu_x itself when M = I
    Mx2 = Mx**2
    Ma = M_v(mu_a)
    w_x = Ma**2 + M2_v(s2a)  # the weight of sigma_x_i^2 in sigma_i^2
    score = np.vecmat(mu_a, Mx) + mu_b[..., None]
    sigma = np.sqrt(np.vecmat(s2a, Mx2) + np.vecmat(w_x, s2x) + (sig_b**2)[..., None])
    return s2a, s2x, Mx, Mx2, Ma, w_x, score, sigma


def _evaluation(theta, by_M, M_v, dM, M2_v, anchors, y, rho_l, rho_d, bias_reg):
    """The part of an evaluation at the flat joint profile theta = [mu_a (m);
    mu_b; sigma_a (m); sigma_b; per row (mu_x_i (m), sigma_x_i (m))], for
    anchors of shape (m, n) (column i is xhat_i), that both players' costs and
    gradients read: the checked profile, its attacker rows read into contiguous
    (m, n) planes, the M products, score, sigma and the one hinge_expect call
    on the stacked margins. Returns the calls (costs, grad) that finish it:
    costs() gives (cost_l, cost_d), and grad(r_d) each cost's gradient in its
    own block, in the layout and shape of theta, the attacker's times r_d.
    grad builds that block in place over the planes, so it is the last call.

    theta is one profile, of shape (dim,), or a stack of them, of shape
    (..., dim), on one path: each profile of a stack gets the bits of its own
    call, as the products with vectors are np.vecmat, np.matvec and np.vecdot
    and [..., None] and [..., None, :] line vectors up with the planes. The
    costs have the stack's shape (...), floats for one profile.

    M enters only as by_M(A) = M A on (..., m, n) planes, M_v(v) = M v and
    M2_v(v) = (M*M) v on (..., m) vectors, and dM = diag(M); the primal game
    passes the identity for all three maps, so M = I costs nothing.
    """
    m, n = anchors.shape
    mu_a, mu_b, sig_a, sig_b, planes = parts = _unpack(theta, m, n)
    stack = planes.shape[:-2]
    mu_x, sig_x = planes[..., :m, :], planes[..., m:, :]  # column i is mu_x_i, sigma_x_i
    s2a, s2x, Mx, Mx2, Ma, w_x, score, sigma = _moments(*parts, by_M, M_v, M2_v)
    # the margins 1 -+ y score: (..., 2, n), row 0 the learner's
    (h_s, h_t), (p_s, p_t), (v_s, v_t) = (
        (a[..., 0, :], a[..., 1, :])
        for a in hinge_expect(1.0 + _SIGNS * (y * score)[..., None, :], sigma[..., None, :]))

    def costs():
        cost_l = (0.5 * rho_l * (np.vecdot(mu_a, Ma) + np.vecdot(dM, s2a))
                  + 0.5 * bias_reg * (mu_b**2 + sig_b**2) + h_s.sum(axis=-1))
        shifted, flat = mu_x - anchors, stack + (m * n,)  # column i is mu_x_i - xhat_i
        cost_d = (0.5 * rho_d * (np.vecdot(shifted.reshape(flat), by_M(shifted).reshape(flat))
                                 + np.vecdot(dM, s2x.sum(axis=-1))) + h_t.sum(axis=-1))
        return (cost_l, cost_d) if stack else (float(cost_l), float(cost_d))

    def grad(r_d):
        py_s = p_s * y
        s2x_w = np.matvec(s2x, v_s)  # sum_i v_s_i * sigma_x_i^2
        g = np.empty(stack + (2 * m + 2 + 2 * n * m,))
        g[..., :m] = rho_l * Ma - np.matvec(Mx, py_s) + 2.0 * M_v(s2x_w * Ma)
        g[..., m] = bias_reg * mu_b - py_s.sum(axis=-1)
        g[..., m + 1 : 2 * m + 1] = rho_l * (dM * sig_a) + 2.0 * sig_a * (
            np.matvec(Mx2, v_s) + M2_v(s2x_w))
        g[..., 2 * m + 1] = bias_reg * sig_b + 2.0 * sig_b * v_s.sum(axis=-1)
        # The attacker block is built in place over the planes, reusing Mx2
        # (as 2 v_t s2a Mx) and s2x (as the deviations' factor).
        vt = v_t[..., None, :]
        np.multiply(np.multiply(Mx, (2.0 * s2a)[..., None], out=Mx2), vt, out=Mx2)
        shifted = np.subtract(mu_x, anchors, out=mu_x)  # column i is mu_x_i - xhat_i
        shifted *= rho_d
        shifted += Mx2  # M of this is rho_d M shifted + 2 M(v_t s2a Mx), as M is linear
        np.multiply(Ma[..., None], (p_t * y)[..., None, :], out=Mx2)
        np.add(by_M(shifted), Mx2, out=mu_x)
        np.multiply((2.0 * w_x)[..., None], vt, out=s2x)
        np.multiply(sig_x, np.add(s2x, (rho_d * dM)[:, None], out=s2x), out=sig_x)
        rows = g[..., 2 * m + 2 :].reshape(stack + (n, 2 * m))
        np.multiply(planes.swapaxes(-1, -2), r_d, out=rows)
        return g

    return costs, grad


def reg_hess(M, dM, rho_l, rho_d, bias_reg):
    """The constant Hessians of both expected regularizers in their cost
    weights, from M = by_M(eye): the learner's (L, L) block, L = 2m + 2, and
    the (2m, 2m) block that every attacker row shares. Each is M on the means
    and diag(M) on the deviations times its rho; the bias mean and deviation
    carry bias_reg."""
    m = dM.size
    reg_l, reg_d = np.zeros((2 * m + 2, 2 * m + 2)), np.zeros((2 * m, 2 * m))
    reg_l[:m, :m], reg_d[:m, :m] = rho_l * M, rho_d * M
    reg_l[m + 1 : 2 * m + 1, m + 1 : 2 * m + 1] = np.diag(rho_l * dM)
    reg_d[m:, m:] = np.diag(rho_d * dM)
    reg_l[m, m] = reg_l[-1, -1] = bias_reg
    return reg_l, reg_d


def _hinge_terms(score, sigma, y):
    """For each sample, the derivatives of the learner's (row 0) and the
    attacker's (row 1) expected hinge in the score, in sigma^2 and, as a
    (2, 2) matrix H[:, :, side], in (score, sigma^2), at margins 1 -+ y score."""
    sy = _SIGNS * y
    mu = 1.0 + sy * score
    _, p, v = hinge_expect(mu, sigma)
    H = np.empty((2, 2) + mu.shape)
    H[0, 0], H[0, 1], H[1, 1] = hinge_hessian(mu, sigma)
    H[0, 1] *= sy
    H[1, 0] = H[0, 1]
    return sy * p, v, H


def jacobian(theta, by_M, M_v, dM, M2_v, anchors, y):
    """The players' loss Hessians at theta, the derivative of _evaluation's
    unweighted gradient less its regularizers, as the four arrays
    (ll, ld, dl, dd): ll (L, L), L = 2m + 2, is the learner's own block, and
    for attacker row i, ld[i] (L, 2m) is the learner gradient along the row,
    dl[i] (2m, L) the row's gradient along the learner block and dd[i]
    (2m, 2m) the row's own block. Row i's gradient does not depend on any
    other row, so every other block is zero and the memory is O(n m^2), not
    O(dim^2).

    Each margin's loss h(mu, sigma^2) is differentiated twice by the chain
    rule, with hinge_hessian giving h's second derivatives; score = a.M x + b
    and sigma^2, taken from _moments as the evaluation takes them, are
    differentiated in closed form. It takes the loss terms alone, the game
    terms without the weights, which weight only the regularizers.
    """
    if np.ndim(theta) != 1:
        raise ShapeError(f"jacobian takes one profile, not a stack of shape {np.shape(theta)}")
    m, n = anchors.shape
    mu_a, _, sig_a, sig_b, planes = parts = _unpack(theta, m, n)
    s2a, s2x, Mx, Mx2, Ma, w_x, score, sigma = _moments(*parts, by_M, M_v, M2_v)
    # row-major copies (row i is sample i's), the layout of the block products below
    sig_x, s2x, Mx, Mx2 = (np.ascontiguousarray(a.T) for a in (planes[m:], s2x, Mx, Mx2))
    M, M2 = by_M(np.eye(m)), M2_v(np.eye(m))  # M*M is symmetric: its rows are its columns
    a_, s_, x_ = slice(0, m), slice(m + 1, 2 * m + 1), slice(m, 2 * m)  # mu_a, sigma_a, sigma_x
    L = 2 * m + 2

    # Per sample, the gradients of score (row 0) and of sigma^2 (row 1) in the
    # learner block (U_l) and in the sample's attacker row (U_x).
    U_l, U_x = np.zeros((n, 2, L)), np.zeros((n, 2, 2 * m))
    U_l[:, 0, a_], U_l[:, 0, m] = Mx, 1.0
    U_l[:, 1, a_] = 2.0 * (s2x * Ma) @ M
    U_l[:, 1, s_] = 2.0 * sig_a * (Mx2 + s2x @ M2)
    U_l[:, 1, 2 * m + 1] = 2.0 * sig_b
    U_x[:, 0, a_] = Ma
    U_x[:, 1, a_] = 2.0 * (s2a * Mx) @ M
    U_x[:, 1, x_] = 2.0 * sig_x * w_x
    # Second derivatives of sigma^2 across the blocks (score's is M in the
    # mu_a x mu_x corner): learner coordinates by row-i coordinates.
    cross = np.zeros((n, L, 2 * m))
    cross[:, a_, x_] = 4.0 * M * (sig_x * Ma)[:, None, :]
    cross[:, s_, a_] = 4.0 * (sig_a * Mx)[:, :, None] * M
    cross[:, s_, x_] = 4.0 * sig_a[:, None] * M2 * sig_x[:, None, :]

    # Per sample, the learner's (_s) and the attacker's (_t) hinge terms, each
    # Hessian H a contiguous (n, 2, 2) stack.
    (p_s, p_t), (v_s, v_t), H = _hinge_terms(score, sigma, y)
    H_s, H_t = np.ascontiguousarray(H.transpose(2, 3, 0, 1))

    # The chain-rule part of each block is U_u^T H U_w per sample.
    # The learner's losses.
    HU_l = H_s @ U_l
    ll = U_l.reshape(2 * n, L).T @ HU_l.reshape(2 * n, L)
    ll[a_, a_] += (M * (2.0 * (v_s @ s2x))) @ M
    ll[s_, s_] += np.diag(2.0 * (v_s @ Mx2 + M2 @ (v_s @ s2x)))
    ll[2 * m + 1, 2 * m + 1] += 2.0 * v_s.sum()
    ld = HU_l.transpose(0, 2, 1) @ U_x
    ld += v_s[:, None, None] * cross
    ld[:, a_, a_] += p_s[:, None, None] * M

    # The attacker's losses.
    HU_x = H_t @ U_x
    dl = HU_x.transpose(0, 2, 1) @ U_l
    dl += v_t[:, None, None] * cross.transpose(0, 2, 1)
    dl[:, a_, a_] += p_t[:, None, None] * M
    dd = U_x.transpose(0, 2, 1) @ HU_x
    dd[:, a_, a_] += 2.0 * v_t[:, None, None] * ((M * s2a) @ M)
    diag_x = dd.reshape(n, 4 * m * m)[:, m * (2 * m + 1) :: 2 * m + 1]  # row i's sigma_x diagonal
    diag_x += 2.0 * v_t[:, None] * w_x
    return ll, ld, dl, dd


# newton_step sums the Schur system over ranges of attacker rows with at most
# this many entries in one (L, rows) plane (1365 rows at k = 2): those sums'
# temporaries are the step's largest, and ranges hold its peak memory at
# n = 4000, k = 2 to 2.1 MB, against 4.5 MB for the sums over all rows.
SCHUR_RANGE_ENTRIES = 8192


def _by_rows(A, B):
    """The per-row products A B of a stack (2, 2, n) of 2 x 2 matrices and a
    stack (2, c, n) of 2 x c ones."""
    return np.einsum("ijn,jkn->ikn", A, B)


def _capacitance(H_s, H_t, G):
    """Per row, N H_t and H_s N^T for N = (I + H_t G)^-1, from the rows'
    (2, 2, n) stacks H_s, H_t and G; None when some I + H_t G is singular."""
    C = _by_rows(H_t, G)
    C[0, 0] += 1.0
    C[1, 1] += 1.0
    det = C[0, 0] * C[1, 1] - C[0, 1] * C[1, 0]
    if not det.all():
        return None
    N = np.array([[C[1, 1], -C[0, 1]], [-C[1, 0], C[0, 0]]]) / det
    return _by_rows(N, H_t), _by_rows(H_s, N.transpose(1, 0, 2))


def newton_step(theta, g, free, anchors, y, rho_l, rho_d, bias_reg):
    """The primal game's (M = I) Newton step in closed form: d with
    J_FF d_F = -g_F and d = 0 off the free coordinates, for J the Jacobian of
    the pseudo-gradient at theta and g the pseudo-gradient there; None when
    the system is singular or d is not finite. It is the step that
    dense_newton takes from jacobian's blocks, without building them and with
    no solve per row.

    Row i's own block is r_d D_i, D_i = A_i + U_i^T H_t U_i: A_i is positive
    and diagonal (rho_d + 2 v_t sigma_a^2 on the means, rho_d + 2 v_t w_x on
    the deviations), U_i (2, b) holds the gradients of score and sigma_i^2 in
    the row and H_t is the attacker's 2 x 2 hinge Hessian, so by Woodbury
    D^-1 = A^-1 - A^-1 U^T N H_t U A^-1 with N = (I + H_t G)^-1 and
    G = U A^-1 U^T: one 2 x 2 inverse per row. The row's coupling into the
    learner block is Ul H_s U + B, and back r_d (U^T H_t Ul^T + B'^T): Ul
    (L, 2) holds the learner gradients of score and sigma_i^2, and B, B'
    (L, b) are jacobian's p M and v cross terms, which pair each
    (mu_a_j, sigma_a_j) with (mu_x_ij, sigma_x_ij) only. So the Schur
    complement collapses to
        S = ll_0 - sum_i B A^-1 B'^T + sum_i (Ul H_s N^T - W N H_t)(Ul - W')^T
    with W = B A^-1 U^T, W' = B' A^-1 U^T and ll_0 the learner block's
    regularizer and diagonal terms: two (L x rows)(rows x L) products plus
    2 x 2 blocks on the diagonal. A fixed row coordinate gets A^-1 = 0, which
    decouples it as the dense elimination's identity row does.

    Every per-row term is a plane with the rows last, kept for all rows: the
    step holds O(n (L + b)) floats and never an (n, L, b) block. Only the
    sums that build S and its right side, with Ul's planes, are taken over
    ranges of rows (SCHUR_RANGE_ENTRIES). The learner block is taken in the
    order (mu_a, sigma_a, mu_b, sigma_b), so that the rows that B touches
    come first. Score and sigma come from _moments, as in the evaluation, and
    the rows' back-substitution sums D^-1 g_i and D^-1 E_i d_l as the dense
    elimination sums its two solves, so the step's last bits follow the dense
    step's as closely as the arithmetic allows."""
    m, n = anchors.shape
    L = 2 * m + 2
    order = np.r_[0:m, m + 1 : 2 * m + 1, m, 2 * m + 1]
    mu_a, _, sig_a, sig_b, planes = parts = _unpack(theta, m, n)
    s2a, s2x, x, x2, _, w_x, score, sigma = _moments(*parts, _identity, _identity, _identity)
    sx = planes[m:]
    (ps, pt), (vs, vt), H = _hinge_terms(score, sigma, y)
    reg_1, reg_d = map(np.diag, reg_hess(np.eye(1), np.ones(1), rho_l, rho_d, bias_reg))
    # A^-1 on the free row coordinates and 0 on the fixed ones; U's rows are
    # (mu_a, 0) and (u_m, u_s) on the (means, deviations)
    free_x = free[L:].reshape(n, 2 * m).T
    ia_m = free_x[:m] / (reg_d[0] + 2.0 * vt * s2a[:, None])
    ia_s = free_x[m:] / (reg_d[1] + 2.0 * vt * w_x[:, None])
    u_m, u_s = 2.0 * s2a[:, None] * x, 2.0 * w_x[:, None] * sx
    g_x = g[L:].reshape(n, 2 * m).T / (rho_l / rho_d)
    g_m, g_s = g_x[:m], g_x[m:]
    mu_c, sig_c = mu_a[:, None], sig_a[:, None]

    def learner_gradients(rows):  # Ul over the rows, (2, L, rows)
        x_r, x2_r, s2x_r = x[:, rows], x2[:, rows], s2x[:, rows]
        Ul = np.zeros((2, L, x_r.shape[1]))
        Ul[0, :m], Ul[0, -2] = x_r, 1.0
        Ul[1, :m], Ul[1, m:-2], Ul[1, -1] = (2.0 * mu_c * s2x_r, 2.0 * sig_c * (x2_r + s2x_r),
                                             2.0 * sig_b)
        return Ul

    def by_U(h_m, h_s, u_m, u_s):  # U h per row for the row vectors (h_m, h_s)
        return np.array([mu_a @ h_m, (u_m * h_m).sum(axis=0) + (u_s * h_s).sum(axis=0)])

    G01, G11 = by_U(ia_m * u_m, ia_s * u_s, u_m, u_s)
    factors = _capacitance(H[:, :, 0], H[:, :, 1],
                           np.array([[mu_a @ (ia_m * mu_c), G01], [G01, G11]]))
    if factors is None:
        return None
    NH, HN = factors
    S, rhs = np.zeros((L, L)), -g[order]
    j, k = np.arange(m), np.arange(m, 2 * m)

    def add_range(rows):  # the rows' terms of S and rhs
        x_r, x2_r, sx_r, s2x_r, ia_mr, ia_sr, u_mr, u_sr = (
            a[:, rows] for a in (x, x2, sx, s2x, ia_m, ia_s, u_m, u_s))
        p_s, p_t, v_s, v_t = ps[rows], pt[rows], vs[rows], vt[rows]
        r0, r1, rs = ia_mr * mu_c, ia_mr * u_mr, ia_sr * u_sr  # A^-1 U^T
        # B's entries: p on (mu_a_j, mu_x_ij), and v times 4 mu_a_j sx_ij on
        # (mu_a_j, sigma_x_ij), 4 sig_a_j x_ij on (sigma_a_j, mu_x_ij) and
        # 4 sig_a_j sx_ij on (sigma_a_j, sigma_x_ij); with B A^-1 U^T
        cr0, cr1 = 4.0 * sig_c * x_r * r0, 4.0 * sig_c * (x_r * r1 + sx_r * rs)
        ar1 = 4.0 * mu_c * sx_r * rs

        def W(p_u, v_u):  # one player's W, a column per plane, over the rows of B
            return np.array([[p_u * r0, v_u * cr0], [p_u * r1 + v_u * ar1, v_u * cr1]]).reshape(
                2, 2 * m, -1)

        W_s, W_t, Ul = W(p_s, v_s), W(p_t, v_t), learner_gradients(rows)
        e_m, e_s = ia_mr * g_m[:, rows], ia_sr * g_s[:, rows]
        q = by_U(e_m, e_s, u_mr, u_sr)
        for col in (0, 1):  # column col of (Ul H_s N^T - W N H_t) and of (Ul - W')
            left = Ul[0] * HN[0, col, rows] + Ul[1] * HN[1, col, rows]
            left[: 2 * m] -= W_s[0] * NH[0, col, rows] + W_s[1] * NH[1, col, rows]
            right = Ul[col].copy()
            right[: 2 * m] -= W_t[col]
            S[...] += left @ right.T
            rhs[...] += left @ q[col]
        # - B A^-1 B'^T, 2 x 2 blocks on (mu_a_j, sigma_a_j), and B A^-1 g
        vv, xm, ss = v_s * v_t, x_r * ia_mr, s2x_r * ia_sr
        sum_ss = ss @ vv
        S[j, j] += 2.0 * (s2x_r @ v_s) - ia_mr @ (p_s * p_t) - 16.0 * mu_a**2 * sum_ss
        S[j, k] -= 4.0 * sig_a * (xm @ (p_s * v_t) + 4.0 * mu_a * sum_ss)
        S[k, j] -= 4.0 * sig_a * (xm @ (v_s * p_t) + 4.0 * mu_a * sum_ss)
        S[k, k] += 2.0 * ((x2_r + s2x_r) @ v_s) - 16.0 * s2a * ((x_r * xm) @ vv + sum_ss)
        S[-1, -1] += 2.0 * v_s.sum()
        rhs[:m] += e_m @ p_s + 4.0 * mu_a * ((sx_r * e_s) @ v_s)
        rhs[m : 2 * m] += 4.0 * sig_a * ((x_r * e_m + sx_r * e_s) @ v_s)

    size = max(1, SCHUR_RANGE_ENTRIES // L)
    for start in range(0, n, size):
        add_range(slice(start, start + size))
    S[np.diag_indices(L)] += np.repeat(reg_1, [m, 1, m, 1])[order]  # M = I: one value per block
    d_l = solve_learner(S, rhs, free[order])
    if d_l is None:
        return None

    def by_D_inv(h_m, h_s):  # D^-1 h per row, (means; deviations) planes
        e_m, e_s = ia_m * h_m, ia_s * h_s
        kw = _by_rows(NH, by_U(e_m, e_s, u_m, u_s)[:, None])[:, 0]
        return np.concatenate([e_m - ia_m * (mu_c * kw[0] + u_m * kw[1]), e_s - ia_s * u_s * kw[1]])

    # d_i = -(D_i^-1 g_i + D_i^-1 E_i d_l), E_i d_l = r_d (U^T H_t Ul^T d_l + B'^T d_l):
    # the two solves summed, as the dense elimination sums its own
    d = np.empty(theta.size)
    d[order] = d_l
    da, ds = d_l[:m, None], d_l[m : 2 * m, None]
    hu = _by_rows(H[:, :, 1], (d_l @ learner_gradients(slice(None)))[:, None])[:, 0]
    Ed_m = mu_c * hu[0] + u_m * hu[1] + pt * da + 4.0 * sig_c * ds * vt * x
    Ed_s = u_s * hu[1] + 4.0 * vt * (mu_c * da + sig_c * ds) * sx
    d_x = by_D_inv(g_m, g_s)
    d_x += by_D_inv(Ed_m, Ed_s)
    np.negative(d_x.T, out=d[L:].reshape(n, 2 * m))
    return d if np.isfinite(d).all() else None


def _vi_game(terms, lower: np.ndarray, upper: np.ndarray) -> VIGame:
    """Operator on the joint box [lower, upper] whose pair of costs and whose
    pseudo-gradient (with r = (1, rho_l/rho_d)) each finish one
    _evaluation(theta, *terms), each computing only what it returns, whose
    loss Jacobian blocks come from one jacobian(theta, *terms[:6]) call, whose
    regularizer Hessians come from reg_hess, built only when asked, and whose
    Newton steps are dense_newton of pseudo_jacobian of those blocks, priced
    by dense_newton_price."""
    by_M, _, dM, _, _, y, rho_l, rho_d, bias_reg = terms
    r_d = rho_l / rho_d
    ops = VIGame(
        dim_l=2 * (dM.size + 1),
        lower=lower,
        upper=upper,
        costs=lambda theta: _evaluation(theta, *terms)[0](),
        pseudo_grad=lambda theta: _evaluation(theta, *terms)[1](r_d),
        loss_jacobian=lambda theta: jacobian(theta, *terms[:6]),
        newton_price=dense_newton_price(2 * dM.size + 2, 2 * dM.size, y.size),
        rho=(rho_l, rho_d),
        reg_hess=lambda: reg_hess(by_M(np.eye(dM.size)), dM, rho_l, rho_d, bias_reg),
    )
    # newton reads the operator without it: a step that read its own operator
    # would make a reference cycle, which only the garbage collector frees
    return dataclasses.replace(ops, newton=lambda z, g, free: dense_newton(
        pseudo_jacobian(ops, ops.loss_jacobian(z)), g, free))


def _identity(a):
    return a


def _primal_terms(game: GameSpec):
    """The fixed arguments of _evaluation for the SVM game: M = I, anchors = X."""
    anchors = np.ascontiguousarray(game.dataset.features.T)
    return (_identity, _identity, np.ones(game.k), _identity, anchors, game.dataset.labels,
            game.rho_l, game.rho_d, game.bias_reg)


def game_operator(game: GameSpec) -> VIGame:
    """Flat-vector operator view of the SVM game, as consumed by the solver
    and the diagnostics; its costs and pseudo-gradient (with
    r = (1, rho_l/rho_d)) all come from one evaluation, and its Newton steps
    from newton_step."""
    terms = _primal_terms(game)
    ops = _vi_game(terms, game.lower, game.upper)
    # newton_step keeps dense_newton's price, which overprices it, so that its
    # attempts come at the dense step's evaluation counts
    return dataclasses.replace(ops, newton=lambda z, g, free: newton_step(z, g, free, *terms[4:]))


# The baseline's SMO: the cap on pair steps, about ten times the most that a
# 1000 x 1000 binary set took (10,425), and the KKT gap that ends it.
BASELINE_STEPS = 100_000
BASELINE_TOL = 1e-9


def train_baseline_svm(data: Dataset, C: float):
    """(w~, b) of the C-SVM minimizing 1/(2C) ||w~||^2 + sum_i [1 - y_i (w~.x_i + b)]_+,
    exactly, by SMO on the maximal violating pair (Platt 1998; Keerthi et al.
    2001) over its dual max sum(a) - 1/2 ||w~||^2, w~ = sum_i a_i y_i x_i,
    0 <= a <= C, y.a = 0, in g = y a. With s = y - X w~ (the b that puts each
    x_i on its margin), a step takes i of largest s where g may grow, j of
    smallest s where g may shrink, and g_i += t, g_j -= t with the dual's best
    t = (s_i - s_j)/||x_i - x_j||^2 clipped to the box, so each step costs one
    X @ w~. It stops at the KKT gap s_i - s_j <= BASELINE_TOL, and warns
    (RuntimeWarning) with the gap if BASELINE_STEPS steps leave it above; b is
    the midpoint of [s_i, s_j], or its finite end on one-class data (w~ = 0)."""
    if not 0 < C < np.inf:  # NaN fails too
        raise ValueError("C must be positive and finite")
    X, y = data.features, data.labels
    upper = np.where(y > 0, C, 0.0)
    lower = upper - C
    g, w = np.zeros(data.n), np.zeros(data.k)
    for step in range(BASELINE_STEPS + 1):
        s = y - X @ w
        s_up, s_low = np.where(g < upper, s, -np.inf), np.where(g > lower, s, np.inf)
        i, j = int(np.argmax(s_up)), int(np.argmin(s_low))
        gap = s_up[i] - s_low[j]
        if gap <= BASELINE_TOL or step == BASELINE_STEPS:
            break
        d = X[i] - X[j]
        q = d @ d
        room_i, room_j = upper[i] - g[i], g[j] - lower[j]
        t = min(gap / q if q > 0 else np.inf, room_i, room_j)
        g[i] = upper[i] if t == room_i else g[i] + t  # a clipped step lands on the bound
        g[j] = lower[j] if t == room_j else g[j] - t
        w += t * d
    if gap > BASELINE_TOL:
        warnings.warn(f"the baseline C-SVM stopped at the cap of {BASELINE_STEPS} SMO steps "
                      f"with KKT gap {gap:.3e} > {BASELINE_TOL:g}", RuntimeWarning, stacklevel=2)
    ends = np.array([s_up[i], s_low[j]])
    return w, float(ends[np.isfinite(ends)].mean())
