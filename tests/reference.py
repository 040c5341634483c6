"""Independent references the suite compares the package against.

Each quantity is recomputed here from its definition, with loops and
``einsum``, sharing no code with ``ctrlchan``: from the package this module
reads only the input data classes, whose fields it uses directly.
"""

import numpy as np

from ctrlchan.control import ControlState


def spike(d):
    """The rank-one depolarising-admissible matrix (1/sqrt(d)) |0><0|."""
    t = np.zeros((d, d), dtype=complex)
    t[0, 0] = 1.0 / np.sqrt(d)
    return t


def _control_matrix(control):
    """rho_c of a pure control a|0> + b|1>, or the 2 x 2 control matrix given."""
    if isinstance(control, ControlState):
        c = np.array([control.a, control.b])
        return np.outer(c, c.conj())
    return np.asarray(control, dtype=complex)


def _embedded(env):
    """An environment vector on a register one slot larger than the dilation
    basis, slot 0 holding the weight outside it."""
    return np.concatenate(([np.sqrt(max(1.0 - float(np.sum(np.abs(env) ** 2)), 0.0))], env))


def _branches(b0, b1):
    """|0><0| (x) b0 + |1><1| (x) b1, control on the slow index."""
    d = b0.shape[0]
    w = np.zeros((2 * d, 2 * d), dtype=complex)
    w[:d, :d], w[d:, d:] = b0, b1
    return w


def _oracle_per_kraus(i0, i1, control, x):
    """The controlled output of rho_c (x) x through the explicit dilation,
    filled one Kraus operator at a time.  Environment slots m of arm 0 and n
    of arm 1 give the joint Kraus operator

        W_mn = |0><0| (x) e1[n] K_m + |1><1| (x) e0[m] L_n,

    with K_0 = L_0 = 0 on slot 0 and K_m, L_n the Kraus operators after it;
    the output is sum_mn W_mn (rho_c (x) x) W_mn^dag, for any d x d block x."""
    d = i0.dim
    e0, e1 = _embedded(i0.env), _embedded(i1.env)
    # w[m, n, c, :, c', :]: the block (c, c') of W_mn
    w = np.zeros((e0.size, e1.size, 2, d, 2, d), dtype=complex)
    for m, k in enumerate(i0.channel.kraus):
        w[m + 1, :, 0, :, 0, :] = e1[:, None, None] * k
    for n, l in enumerate(i1.channel.kraus):
        w[:, n + 1, 1, :, 1, :] = e0[:, None, None] * l
    w = w.reshape(-1, 2 * d, 2 * d)
    joint_in = np.kron(_control_matrix(control), x)
    return np.einsum("wab,bc,wdc->ad", w, joint_in, w.conj(), optimize=True)


def _switch_double_sum(ch0, ch1, control, x):
    """The switch output of rho_c (x) x as the literal double sum over the
    switch Kraus operators W_ij = |0><0| (x) L_j K_i + |1><1| (x) K_i L_j."""
    joint_in = np.kron(_control_matrix(control), x)
    out = np.zeros_like(joint_in)
    for k in ch0.kraus:
        for l in ch1.kraus:
            w = _branches(l @ k, k @ l)
            out += w @ joint_in @ w.conj().T
    return out


def _switch_dilation(ch0, ch1, control, x):
    """The switch output of rho_c (x) x through an explicit isometry into
    control x target x env0 x env1, whose environments are traced out."""
    d = ch0.dim
    k0, k1 = len(ch0.kraus), len(ch1.kraus)
    v = np.zeros((2 * d, k0, k1, 2 * d), dtype=complex)
    for i, k in enumerate(ch0.kraus):
        for j, l in enumerate(ch1.kraus):
            v[:, i, j, :] = _branches(l @ k, k @ l)
    blocks = v.reshape(2 * d, k0 * k1, 2 * d)
    joint_in = np.kron(_control_matrix(control), x)
    return np.einsum("aeb,bc,dec->ad", blocks, joint_in, blocks.conj())


def entropy(rho):
    """Von Neumann entropy in bits from numpy's own spectrum, with negative
    eigenvalues set to zero."""
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def trace_out_first(m, d_first, d_second):
    """Partial trace over the first factor of a matrix on first x second."""
    return np.einsum("iaib->ab", m.reshape(d_first, d_second, d_first, d_second))


def trace_norm(m):
    """Sum of the singular values."""
    return float(np.linalg.svd(m, compute_uv=False).sum())


def literal_gridsearch(angle_step, prob_step, out_map):
    """The qubit switch Holevo grid search as a literal triple loop over
    (theta0, theta1, p0) through ``out_map``, with numpy's own spectra."""
    thetas = np.arange(0.0, np.pi + angle_step / 2.0, angle_step)
    states = [np.array([np.cos(th / 2.0), np.sin(th / 2.0)], dtype=complex) for th in thetas]
    outputs = [out_map(np.outer(s, s.conj())) for s in states]
    entropies = [entropy(out) for out in outputs]
    best, best_point = -np.inf, None
    for idx0 in range(len(thetas)):
        for idx1 in range(idx0, len(thetas)):
            for p0 in np.arange(prob_step, 1.0, prob_step):
                avg = p0 * outputs[idx0] + (1.0 - p0) * outputs[idx1]
                value = entropy(avg) - p0 * entropies[idx0] - (1.0 - p0) * entropies[idx1]
                if value > best:
                    best = value
                    best_point = (float(thetas[idx0]), float(thetas[idx1]), float(p0))
    return best, best_point


def _weyl_by_powers(d):
    """X^a Z^b as products of matrix powers of the shift and the clock."""
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    x[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    z = np.diag(omega ** np.arange(d))
    return [
        np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
        for a in range(d)
        for b in range(d)
    ]


def choi_route(ch, t):
    """Range residual and quadratic form of ``t`` through the Choi
    pseudoinverse, <<T|C^+|T>>, with C = sum_i |K_i>><<K_i| and the
    vectorisation column-stacked (input index slow)."""
    vecs = np.einsum("iab->iba", ch.kraus).reshape(len(ch.kraus), -1)
    c = np.einsum("ix,iy->xy", vecs, vecs.conj())
    c_pinv = np.linalg.pinv(c, rcond=1e-12, hermitian=True)
    tvec = t.T.reshape(-1)
    residual = np.linalg.norm(tvec - c @ (c_pinv @ tvec)) / np.linalg.norm(tvec)
    return float(residual), float(np.real(tvec.conj() @ c_pinv @ tvec))


def kraus_matrix(ch):
    """V, the d^2 x k matrix whose columns are the row-major flattened Kraus operators."""
    k = len(ch.kraus)
    return ch.kraus.reshape(k, -1).T


def lstsq_route(ch, t):
    """Range residual and quadratic form of ``t`` from a fresh ``lstsq`` on
    the Kraus matrix V."""
    v = kraus_matrix(ch)
    tvec = np.asarray(t, dtype=complex).reshape(-1)
    coeff = np.linalg.lstsq(v, tvec, rcond=None)[0]
    residual = float(np.linalg.norm(tvec - v @ coeff) / np.linalg.norm(tvec))
    return residual, float(np.vdot(coeff, coeff).real)
