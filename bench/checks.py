"""Independent references and output checkers for the benchmark.

Nothing here imports ``funcspace``: every reference is rebuilt from the closed
formulas of the kernels, symbols, Pick matrices and metrics, so a checker
that accepts a result has compared it with a computation made apart from the
program.  A checker returns ``None`` when the result is acceptable and
otherwise a one-line reason that starts with a tag.  The tags of the two
faults the workloads keep on purpose are ``PICK_SHORTFALL`` and
``ROUNDTRIP_INACCURATE``; any other tag is an unexpected failure.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

EPS = float(np.finfo(float).eps)

PICK_SHORTFALL = "pick-shortfall"
ROUNDTRIP_INACCURATE = "roundtrip-inaccurate"

#: Relative agreement required between the program's sampled multiplier norm
#: and the independent pencil.
MULT_NORM_REL = 1e-8
#: Coefficient recovery accuracy required of ``roundtrip``.
ROUNDTRIP_REL = 1e-9
#: A PSD verdict is compared only when the independent smallest eigenvalue
#: lies this many tolerances away from the verdict threshold.
VERDICT_CLEARANCE = 1e3
#: Factor on ``eps * cond * t`` giving the rounding margin of a Pick reference.
PICK_MARGIN_FACTOR = 32.0


# --- closed forms -------------------------------------------------------------


def halving_nodes(start: float, m: int) -> np.ndarray:
    """Nodes y_{k+1} = 1 - (1 - y_k) / 2 seeded at ``start`` (seed excluded)."""
    out, y = [], float(start)
    for _ in range(m):
        y = 1.0 - (1.0 - y) / 2.0
        out.append(y)
    return np.array(out)


def eval_symbol(spec: dict, z: np.ndarray) -> np.ndarray:
    """Values of a benchmark symbol on points ``z`` of shape (n, d).

    The benchmark only emits Moebius maps, polynomials, positive multiples of
    either, and those composed with the first coordinate.
    """
    kind = spec["kind"]
    if kind == "compose":
        return eval_symbol(spec["outer"], z[:, :1])
    if kind == "coordinate":
        return z[:, spec["index"]]
    x = z[:, 0]
    if kind == "moebius":
        a = complex(*spec["a"])
        return (x - a) / (1.0 - np.conj(a) * x)
    if kind == "polynomial":
        coeffs = np.array([complex(*c) for c in spec["coeffs"]])
        return np.polyval(coeffs[::-1], x)
    if kind == "scale":
        return complex(*spec["factor"]) * eval_symbol(spec["arg"], z)
    raise ValueError(f"symbol kind {kind!r} is not produced by the benchmark")


def symbol_disk_sup(spec: dict) -> float:
    """An upper bound for sup |w| over the unit disk of a one-variable symbol.

    Moebius maps have sup 1.  A polynomial is bounded by its maximum over a
    fine boundary grid plus the grid gap times a bound on |w'|.
    """
    kind = spec["kind"]
    if kind == "moebius":
        return 1.0
    if kind == "scale":
        return abs(complex(*spec["factor"])) * symbol_disk_sup(spec["arg"])
    if kind == "polynomial":
        coeffs = np.array([complex(*c) for c in spec["coeffs"]])
        grid = 1 << 16
        vals = np.polyval(coeffs[::-1], np.exp(2j * np.pi * np.arange(grid) / grid))
        deriv = sum(k * abs(c) for k, c in enumerate(coeffs))
        return float(np.abs(vals).max() + deriv * np.pi / grid)
    raise ValueError(f"no disk bound for symbol kind {kind!r}")


def kernel_matrix(spec: dict, z: np.ndarray) -> np.ndarray:
    """Hermitian Gram matrix of a benchmark kernel on points ``z`` (n, d)."""
    op = spec["op"]
    if op == "szego":
        x = z[:, 0]
        g = 1.0 / (1.0 - x[:, None] * np.conj(x)[None, :])
    elif op == "ball":
        g = 1.0 / (1.0 - z @ z.conj().T)
    elif op == "constant":
        g = np.full((len(z), len(z)), complex(spec["value"]))
    elif op == "sum":
        g = sum(kernel_matrix(t, z) for t in spec["terms"])
    elif op == "hadamard":
        g = kernel_matrix(spec["left"], z) * kernel_matrix(spec["right"], z)
    elif op == "geom":
        inner = spec["arg"]
        if inner["op"] != "rank1":
            raise ValueError("the benchmark only uses geom of a rank-one kernel")
        w = eval_symbol(inner["fn"], z)
        g = 1.0 / (1.0 - w[:, None] * np.conj(w)[None, :])
    else:
        raise ValueError(f"kernel op {op!r} is not produced by the benchmark")
    return 0.5 * (g + g.conj().T)


def pencil_norm(A: np.ndarray, G: np.ndarray) -> float:
    """Least t with t^2 G - A PSD, for Hermitian A and positive definite G."""
    lam = scipy.linalg.eigh(A, G, eigvals_only=True)
    return float(np.sqrt(max(lam.max(), 0.0)))


def _szego_normalized(nodes: np.ndarray) -> np.ndarray:
    """Szego Gram on the nodes scaled to unit diagonal (same pencil, better scaled)."""
    s = np.sqrt(1.0 - np.abs(nodes) ** 2)
    c = (s[:, None] * s[None, :]) / (1.0 - nodes[:, None] * np.conj(nodes)[None, :])
    return 0.5 * (c + c.conj().T)


def pick_reference(nodes: np.ndarray, values: np.ndarray) -> tuple:
    """Minimal Pick interpolation norm by a scipy pencil, with its rounding margin.

    The Pick matrix at t is ``t^2 C - W C W*`` with C the Szego Gram, so the
    minimal t is the square root of the top eigenvalue of the pencil
    ``(W C W*, C)``.  Scaling C to unit diagonal is a congruence that leaves
    the pencil's eigenvalues unchanged.  The margin is
    ``PICK_MARGIN_FACTOR * eps * cond(C) * max(1, t)``.
    """
    c = _szego_normalized(np.asarray(nodes, dtype=complex))
    w = np.asarray(values, dtype=complex)
    t = pencil_norm((w[:, None] * c) * np.conj(w)[None, :], c)
    eig = np.linalg.eigvalsh(c)
    margin = PICK_MARGIN_FACTOR * EPS * float(eig.max() / eig.min()) * max(1.0, t)
    return t, margin


def pick_reference_mp(nodes, values, digits: int = 50) -> float:
    """The same pencil solved in ``digits``-digit arithmetic with mpmath."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = digits
    z = [ctx.mpc(complex(v)) for v in nodes]
    w = [ctx.mpc(complex(v)) for v in values]
    n = len(z)
    c = ctx.matrix(n, n)
    a = ctx.matrix(n, n)
    for i in range(n):
        for j in range(n):
            c[i, j] = 1 / (1 - z[i] * ctx.conj(z[j]))
            a[i, j] = w[i] * c[i, j] * ctx.conj(w[j])
    linv = ctx.inverse(ctx.cholesky(c))
    m = linv * a * linv.transpose_conj()
    m = (m + m.transpose_conj()) / 2
    top = max(ctx.eigh(m, eigvals_only=True))
    return float(ctx.sqrt(max(top, 0)))


def spot_check_mp(cases) -> None:
    """Raise if a scipy Pick reference is farther than its margin from mpmath.

    ``cases`` holds ``[nodes, values, ref, margin]`` with complex numbers as
    ``[re, im]`` pairs."""
    for nodes, values, ref, margin in cases:
        exact = pick_reference_mp([complex(*z) for z in nodes], [complex(*w) for w in values])
        if abs(exact - ref) > margin:
            raise RuntimeError(f"scipy Pick reference {ref!r} is {abs(exact - ref):.3g} from mpmath {exact!r}")


def graph_metric(n: int, edges) -> np.ndarray:
    """Shortest-path distances of a weighted graph given as (i, j, w) triples."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in edges:
        d[i, j] = d[j, i] = min(d[i, j], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def realization_g(dist: np.ndarray, order, depth: int) -> np.ndarray:
    """Rows g_0..g_depth: g_m = min(distance to the first m enumerated points, 1)."""
    n = dist.shape[0]
    g = np.ones((depth + 1, n))
    running = np.full(n, np.inf)
    for m in range(1, depth + 1):
        running = np.minimum(running, dist[:, order[m - 1]])
        g[m] = np.minimum(running, 1.0)
    return g


def lip_norm(values: np.ndarray, dist: np.ndarray, base: int) -> float:
    """Largest difference quotient plus |f(base)|."""
    iu = np.triu_indices(dist.shape[0], k=1)
    quot = np.abs(values[:, None] - values[None, :])[iu] / dist[iu]
    return float(quot.max() + abs(values[base]))


def submult_reference(dist: np.ndarray, base: int, fs: np.ndarray) -> float:
    """max over pairs i <= j of lip(f_i f_j) / (lip(f_i) lip(f_j))."""
    norms = [lip_norm(f, dist, base) for f in fs]
    best = 0.0
    for i in range(len(fs)):
        for j in range(i, len(fs)):
            best = max(best, lip_norm(fs[i] * fs[j], dist, base) / (norms[i] * norms[j]))
    return best


# --- checkers -----------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_pick_norm(answer: float, ref: float, margin: float, tol: float):
    """The endpoint must lie in [ref - margin, ref + tol + margin]."""
    if answer < ref - margin:
        return f"{PICK_SHORTFALL}: {answer!r} is {ref - answer:.3g} below the exact minimum {ref!r} (margin {margin:.2g})"
    if answer > ref + tol + margin:
        return f"pick-excess: {answer!r} is {answer - ref:.3g} above the exact minimum {ref!r} (tol {tol:g})"
    return None


def check_mult_norm(sampled: float, ref: float):
    if _rel(sampled, ref) > MULT_NORM_REL:
        return f"mult-norm: {sampled!r} differs from the pencil {ref!r} by {_rel(sampled, ref):.2e} relative"
    return None


def check_sandwich(sampled: float, sample_max: float, disk_sup: float, tol: float):
    """max |w(x_i)| <= sampled norm <= sup_D |w|, up to rounding and the bracket."""
    if sampled < sample_max * (1.0 - 64 * EPS):
        return f"sandwich: norm {sampled!r} below max |w(x_i)| = {sample_max!r}"
    if sampled > disk_sup + tol + 64 * EPS * disk_sup:
        return f"sandwich: norm {sampled!r} above sup |w| = {disk_sup!r}"
    return None


def check_psd_report(report: dict, matrix: np.ndarray, tol: float):
    """Verdict and smallest eigenvalue of a PSD report against numpy.

    The smallest eigenvalue must agree to 1e-10 of the eigenvalue scale; the
    verdict is compared only where the independent eigenvalue clears the
    threshold ``-tol * scale`` by ``VERDICT_CLEARANCE`` tolerances.
    """
    eig = np.linalg.eigvalsh(matrix)
    scale = max(1.0, float(np.abs(eig).max()))
    lam = float(eig.min())
    if abs(report["min_eigenvalue"] - lam) > 1e-10 * scale:
        return f"psd: min eigenvalue {report['min_eigenvalue']!r} differs from numpy {lam!r}"
    threshold = -tol * scale
    if abs(lam - threshold) > VERDICT_CLEARANCE * tol * scale and report["is_psd"] != (lam >= threshold):
        return f"psd: verdict {report['is_psd']} but numpy gives min eigenvalue {lam!r} (threshold {threshold:.3g})"
    return None


def check_gram(result: dict, ref: np.ndarray):
    got = np.asarray(result["re"]) + 1j * np.asarray(result["im"])
    if got.shape != ref.shape:
        return f"gram: shape {got.shape} != {ref.shape}"
    if not np.array_equal(got, got.conj().T):
        return "gram: not exactly Hermitian"
    err = float(np.abs(got - ref).max() / np.abs(ref).max())
    if err > 1e-12:
        return f"gram: entries differ from the closed form by {err:.2e} relative"
    return None


def check_roundtrip(code: int, report: dict, coeffs: np.ndarray):
    """Recovery within ROUNDTRIP_REL, or an honest IllConditionedPrefix exit."""
    if code == 3 and report["error"]["code"] == "IllConditionedPrefix":
        return None
    if code != 0:
        return f"roundtrip: exit {code} {report['error']}"
    got = np.array([complex(*p) for p in report["result"]["recovered"]])
    err = float(np.abs(got - coeffs).max() / np.abs(coeffs).max())
    if err > ROUNDTRIP_REL:
        return f"{ROUNDTRIP_INACCURATE}: relative error {err:.3g} without IllConditionedPrefix"
    return None


def check_equal(what: str, got, expected):
    if got != expected:
        return f"{what}: {got!r} != {expected!r}"
    return None


def check_close(what: str, got: float, expected: float, rel: float):
    if _rel(got, expected) > rel:
        return f"{what}: {got!r} differs from {expected!r} by {_rel(got, expected):.2e} relative"
    return None


def first_failure(*reasons):
    """The first non-None reason, so a checker can list its conditions in order."""
    return next((r for r in reasons if r is not None), None)


if __name__ == "__main__":  # python3 checks.py < cases.json: the spot check in a process of its own
    import json
    import sys

    spot_check_mp(json.load(sys.stdin))
