"""Independent oracles for the robustness SDP and product-overlap searches.

These deliberately avoid the library's solver path: feasibility of the
PPT-relaxed robustness program at a given mixing weight is decided by plain
alternating projections onto the constraint cones, and the optimum is then
bracketed by bisection on the weight. The partial transpose is realized
through explicit digit arithmetic rather than the library's axis swaps.
The dense constructors (tensor products, Schmidt vectors by SVD and the cut
witness as a d x d matrix) check the library's closed forms, and the two dense
bound reports check the superposition bounds against them. The exact deck at
the end builds multi-qubit states whose generalized robustness is known in
closed form: products of pair and GHZ blocks, and graph states.
"""

import math

import numpy as np

from entsup.linops import Partition, operator_norm, single_cut_partitions
from entsup.qstate import Ket, Register, density, superpose
from entsup.quantifiers import negativity
from entsup.supbound import SATURATION_TOL, BoundReport, check_bound_k
from entsup.witnesses import (
    SCHMIDT_RANK_TOL,
    _reflection_witness,
    eval_witness,
    negativity_optimal_witness,
    zero_witness,
)


def _pt_index_map(dims, axes):
    """Flat index permutation of the partial transpose, by digit arithmetic."""
    n = len(dims)
    d = int(np.prod(dims))
    axes = set(axes)

    def digits(flat):
        out = []
        for dim in reversed(dims):
            out.append(flat % dim)
            flat //= dim
        return list(reversed(out))

    def flat(ds):
        value = 0
        for label, dim in zip(ds, dims):
            value = value * dim + label
        return value

    rows = np.empty((d, d), dtype=np.intp)
    cols = np.empty((d, d), dtype=np.intp)
    for i in range(d):
        di = digits(i)
        for j in range(d):
            dj = digits(j)
            ri = [dj[k] if k in axes else di[k] for k in range(n)]
            cj = [di[k] if k in axes else dj[k] for k in range(n)]
            rows[i, j] = flat(ri)
            cols[i, j] = flat(cj)
    return rows, cols


def _apply_pt(matrix, index_map):
    rows, cols = index_map
    out = np.empty_like(matrix)
    out[rows, cols] = matrix
    return out


def _project_psd_capped_trace(x, s):
    """Nearest matrix with eigenvalues >= 0 and trace <= s (Frobenius metric)."""
    if s <= 0.0:
        return np.zeros_like(x)
    w, v = np.linalg.eigh(x)
    w = np.clip(w, 0.0, None)
    total = float(np.sum(w))
    if total > s:
        # Euclidean projection of the eigenvalue vector onto the simplex of size s.
        u = np.sort(w)[::-1]
        css = np.cumsum(u) - s
        idx = np.arange(1, len(u) + 1)
        rho_idx = np.max(np.where(u - css / idx > 0)[0]) + 1
        theta = css[rho_idx - 1] / rho_idx
        w = np.clip(w - theta, 0.0, None)
    return (v * w) @ v.conj().T


def _residual(rho, maps, x, s):
    res = max(0.0, -float(np.linalg.eigvalsh(x)[0]))
    res = max(res, float(np.trace(x).real) - s)
    for index_map in maps:
        y = _apply_pt(rho + x, index_map)
        res = max(res, -float(np.linalg.eigvalsh(y)[0]))
    return res


def ppt_mixing_feasible(rho, dims, cuts, s, x0=None, iters=4000, tol=1e-9, maps=None):
    """Does some X >= 0 with Tr X <= s make (rho + X)^{T_A} PSD on every cut?

    Returns (verdict, last_iterate); the iterate warm-starts nearby weights.
    Runs of an infeasible weight settle into a cycle whose per-sweep
    displacement stops shrinking, which is detected to exit early.
    """
    if maps is None:
        maps = [_pt_index_map(dims, cut) for cut in cuts]
    x = np.zeros_like(rho) if x0 is None else x0.copy()
    prev_res = None
    for it in range(1, iters + 1):
        x = _project_psd_capped_trace(x, s)
        for index_map in maps:
            y = _apply_pt(rho + x, index_map)
            w, v = np.linalg.eigh(y)
            y = (v * np.clip(w, 0.0, None)) @ v.conj().T
            x = _apply_pt(y, index_map) - rho
        if it % 10 == 0:
            res = _residual(rho, maps, x, s)
            if res <= tol:
                return True, x
            # Infeasible weights leave the residual pinned at the cone gap.
            if prev_res is not None and abs(res - prev_res) <= 1e-7 * res:
                return False, x
            prev_res = res
    return _residual(rho, maps, x, s) <= tol, x


def robustness_by_bisection(rho, dims, cuts, hi=None, resolution=1e-5):
    """Bisection on the mixing weight with PPT feasibility as the inner test."""
    d = rho.shape[0]
    hi = hi if hi is not None else float(d)
    maps = [_pt_index_map(dims, cut) for cut in cuts]
    feasible, warm = ppt_mixing_feasible(rho, dims, cuts, 0.0, maps=maps)
    if feasible:
        return 0.0
    lo = 0.0
    top, warm = ppt_mixing_feasible(rho, dims, cuts, hi, x0=warm, maps=maps)
    assert top, "bracket top infeasible"
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        feasible, warm = ppt_mixing_feasible(rho, dims, cuts, mid, x0=warm, maps=maps)
        if feasible:
            hi = mid
        else:
            lo = mid
    return hi


def grid_product_overlap_2q(projector, steps=400):
    """Exhaustive real-product-state grid for two qubits."""
    angles = np.linspace(0.0, np.pi, steps)
    best = 0.0
    for t1 in angles:
        v1 = np.array([np.cos(t1), np.sin(t1)])
        for t2 in angles:
            v2 = np.array([np.cos(t2), np.sin(t2)])
            prod = np.kron(v1, v2)
            best = max(best, float(np.real(prod @ projector @ prod)))
    return best


def diagonal_mixing_scan(rho, pi, tol, s_max, steps=100_000):
    """First weight on a uniform grid over [0, s_max] whose mixture is diagonal.

    A weight passes when every off-diagonal entry of (rho + s*pi)/(1+s) has
    modulus at most ``tol``. Returns ``(previous, first)`` grid weights, with
    ``previous`` None when s = 0 passes, or None when no grid weight passes.
    """
    off = ~np.eye(rho.shape[0], dtype=bool)
    r, p = rho[off], pi[off]
    grid = np.linspace(0.0, s_max, steps + 1)
    for start in range(0, grid.size, 4096):
        s = grid[start:start + 4096, None]
        passing = np.max(np.abs((r + s * p) / (1.0 + s)), axis=1) <= tol
        if passing.any():
            k = start + int(np.argmax(passing))
            return (grid[k - 1] if k else None), grid[k]
    return None


def tensor(left, right):
    """Tensor product; the result's register is the concatenation of the inputs'."""
    reg = Register(left.register.dims + right.register.dims)
    return Ket(reg, np.kron(left.amplitudes, right.amplitudes))


def schmidt_decomposition(psi, partition):
    """Schmidt data of a pure state across a bipartition.

    Returns ``(coeffs, a_vectors, b_vectors)``: nonincreasing Schmidt
    coefficients and orthonormal vectors, columns of a_vectors living on the
    transposed side and columns of b_vectors on the rest, chosen so that
    ``psi == sum_i coeffs[i] * embed_product_vector(..., a_i, b_i)``.
    """
    partition.validate(psi.register)
    perm, d_a, d_b = _split_axes(psi.register, partition)
    cut = psi.amplitudes.reshape(psi.register.dims).transpose(perm).reshape(d_a, d_b)
    u, s, vh = np.linalg.svd(cut, full_matrices=False)
    return s, u, vh.T


def svd_spectra(amplitudes, register, partitions):
    """Singular values of each ket in a (..., d) stack across each partition, one SVD each.

    The layout of ``entsup.linops.schmidt_spectra``: (..., len(partitions), r),
    zero-padded to the longest spectrum r.
    """
    kets = np.asarray(amplitudes).reshape(-1, register.size)
    spectra = []
    for partition in partitions:
        perm, d_a, d_b = _split_axes(register, partition)
        spectra.append([
            np.linalg.svd(ket.reshape(register.dims).transpose(perm).reshape(d_a, d_b), compute_uv=False)
            for ket in kets
        ])
    out = np.zeros((len(kets), len(partitions), max(len(rows[0]) for rows in spectra)))
    for j, rows in enumerate(spectra):
        for i, s in enumerate(rows):
            out[i, j, : len(s)] = s
    return out.reshape(np.shape(amplitudes)[:-1] + out.shape[1:])


def embed_product_vector(register, partition, a_vec, b_vec):
    """Amplitudes of (a_vec on partition) x (b_vec on the rest) in register order."""
    perm, d_a, d_b = _split_axes(register, partition)
    prod = np.outer(np.asarray(a_vec), np.asarray(b_vec)).reshape(
        [register.dims[i] for i in perm]
    )
    return prod.transpose(np.argsort(perm)).reshape(register.size)


def _split_axes(register, partition):
    a_axes = sorted(partition.transposed)
    b_axes = [i for i in range(register.nsub) if i not in partition.transposed]
    d_a = int(np.prod([register.dims[i] for i in a_axes]))
    d_b = int(np.prod([register.dims[i] for i in b_axes]))
    return a_axes + b_axes, d_a, d_b


def maxent_cut_witness(psi, partition):
    """Cap-identity witness I - 2|chi><chi| aligned with psi's Schmidt structure.

    chi is the maximally entangled state on the two leading Schmidt vectors of
    psi across the cut; its largest product overlap is 1/2, so the operator is
    a genuine witness for that bipartition, with spectral class (1, 1). For a
    pure psi, -<psi|W|psi> = (s1 + s2)^2 - 1, the generalized robustness of
    psi across the cut. A state of Schmidt rank 1 yields the zero witness.
    """
    s, avecs, bvecs = schmidt_decomposition(psi, partition)
    if s[1] <= SCHMIDT_RANK_TOL:
        return zero_witness(psi.register)
    chi = (
        embed_product_vector(psi.register, partition, avecs[:, 0], bvecs[:, 0])
        + embed_product_vector(psi.register, partition, avecs[:, 1], bvecs[:, 1])
    ) / math.sqrt(2)
    return _reflection_witness(psi.register, chi)


def dense_negativity_report(psi, phi, coeffs, partition):
    """The negativity bound of one instance through d x d operators.

    N(psi) and N(phi) are eigensolves of the partial transposes. The left side
    -<gamma|W|gamma> and ||W|| come from W, the optimal witness of
    gamma/||gamma|| built as a matrix; a gamma of squared norm below 1e-12
    gives 0 for both.
    """
    gamma = superpose(coeffs, psi, phi)
    gamma_norm = gamma.norm() ** 2
    lhs = w_norm = 0.0
    if gamma_norm >= 1e-12:
        w = negativity_optimal_witness(density(gamma.normalized()), partition)
        lhs, w_norm = -eval_witness(w, gamma), operator_norm(w.op)
    abs_a, abs_b = abs(coeffs.a), abs(coeffs.b)
    terms = (
        abs_a**2 * negativity(density(psi), partition),
        abs_b**2 * negativity(density(phi), partition),
        2.0 * abs_a * abs_b * w_norm,
    )
    rhs = sum(terms)
    gap = rhs - lhs
    return BoundReport(lhs, *terms, rhs, gap, gap <= SATURATION_TOL, "witness-norm", gamma_norm)


def dense_robustness_report(psi, phi, coeffs):
    """The robustness bound of one instance through dense cut witnesses and check_bound_k."""
    def best(ket):
        value, witness = 0.0, zero_witness(ket.register)
        for cut in single_cut_partitions(ket.register):
            w = maxent_cut_witness(ket, cut)
            v = max(0.0, -eval_witness(w, ket))
            if v > value:
                value, witness = v, w
        return value, witness

    gamma = superpose(coeffs, psi, phi)
    norm = gamma.norm() ** 2
    e_gamma, w = 0.0, zero_witness(psi.register)
    if norm >= 1e-12:
        e_hat, w = best(gamma.normalized())
        e_gamma = norm * e_hat
    return check_bound_k(psi, phi, coeffs, w, best(psi)[0], best(phi)[0], e_gamma)


def haar_unitary(rng, d):
    """Haar-random d x d unitary: QR of a complex Gaussian, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_product(blocks, rng):
    """A product of pair and GHZ blocks in a random local frame and qubit order.

    ``blocks`` lists a Schmidt pair (s_1, s_2), s_1^2 + s_2^2 = 1, for each
    two-qubit block s_1|00> + s_2|11>, and a qubit count m >= 2 for each GHZ_m
    block. Returns the amplitudes, the truth R_g = prod_m (1 + R_m) - 1, with
    R_m = (s_1 + s_2)^2 - 1 for a pair and 1 for a GHZ block, and the deciding
    cut: the first qubit of each block. Its Schmidt coefficients are the
    products of the blocks', so the cut's bound (sum_i s_i)^2 - 1 meets the
    separable upper bound built from the blocks' own optimal ones. Local
    unitaries and qubit permutations leave R_g unchanged.
    """
    amps, truth, cut, n = np.ones(1, dtype=complex), 1.0, [], 0
    for block in blocks:
        if isinstance(block, int):
            factor = np.zeros(2**block, dtype=complex)
            factor[[0, -1]] = 1 / math.sqrt(2)
            truth, size = 2 * truth, block
        else:
            factor = np.array([block[0], 0, 0, block[1]], dtype=complex)
            truth, size = truth * (block[0] + block[1]) ** 2, 2
        amps, cut, n = np.kron(amps, factor), cut + [n], n + size
    amps, perm = local_frame(amps, n, rng)
    return amps, truth - 1.0, Partition(frozenset(j for j in range(n) if perm[j] in cut))


def local_frame(amps, n, rng):
    """n-qubit amplitudes after a Haar-random unitary on each qubit and a random qubit order.

    Returns the amplitudes and the permutation: qubit j of the result is qubit
    perm[j] of the input.
    """
    local = np.asarray(amps, dtype=complex).reshape((2,) * n)
    for q in range(n):
        local = np.moveaxis(np.tensordot(haar_unitary(rng, 2), local, axes=([1], [q])), 0, q)
    perm = rng.permutation(n)
    return local.transpose(perm).reshape(-1), perm


def graph_state(n, edges):
    """Real amplitudes of prod over (i, j) in ``edges`` of CZ_ij applied to |+>^n.

    The amplitude of |x> is (-1)^(number of edges with x_i = x_j = 1) / 2^(n/2),
    qubit 0 the most significant bit.
    """
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    parity = sum(bits[:, i] & bits[:, j] for i, j in edges) & 1
    return (1.0 - 2.0 * parity) / 2 ** (n / 2)


def graph_deck():
    """(name, n, edges, truth, deciding cut) of graph states whose R_g is known exactly.

    A cut of a graph state has 2^r equal Schmidt coefficients, r the GF(2) rank
    of the cut's adjacency block (Hein, Eisert & Briegel, PRA 69, 062311, 2004),
    so R_g >= 2^r - 1. A Hadamard on each qubit of an independent set I leaves
    2^(n - |I|) equal-modulus amplitudes, so l1 gives R_g <= 2^(n - |I|) - 1.
    Each state here has a cut with r = n - |I| for a maximum independent set I:
    lines (the even against the odd qubits), even rings (qubit 0 and the odd
    qubits up to n - 3, whose cut block is triangular), the 2 x 3 grid (its
    checkerboard colouring) and a star, which is GHZ in a local frame (its centre).
    """
    deck = [
        (f"line-{n}", n, [(i, i + 1) for i in range(n - 1)], 2 ** (n // 2) - 1.0, range(0, n, 2))
        for n in range(3, 17)
    ]
    deck += [
        (
            f"ring-{n}", n, [(i, (i + 1) % n) for i in range(n)], 2 ** (n // 2) - 1.0,
            [0, *range(1, n - 2, 2)],
        )
        for n in range(4, 17, 2)
    ]
    grid = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    deck += [
        ("grid-2x3", 6, grid, 7.0, [0, 2, 4]),
        ("star-5", 5, [(0, k) for k in range(1, 5)], 1.0, [0]),
    ]
    return [(*state, Partition(frozenset(cut))) for *state, cut in deck]
