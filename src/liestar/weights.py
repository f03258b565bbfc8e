"""Graph weights: the hyperbolic angle function on the upper half-plane, the
configuration-space integrand, Monte Carlo weight estimation, and the table
of known exact weights with the union factorization rule.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, GraphError, canonicalize, decompose, parse_graph
from .poly import as_fraction

DEFAULT_BLOCKS = 32
COLLISION_GUARD = 1e-9

# median of B block means: stderr of the median for a normal population
_MEDIAN_FACTOR = math.sqrt(math.pi / 2.0)


class WeightError(ValueError):
    pass


def _as_complex(z) -> complex:
    return complex(z)


def phi(z1, z2) -> float:
    """Hyperbolic angle between two points of the closed upper half-plane,
    taken on the principal branch."""
    z1, z2 = _as_complex(z1), _as_complex(z2)
    if abs(z2 - z1) < COLLISION_GUARD:
        raise WeightError("coincident points")
    num = (z2 - z1) * (z2.conjugate() - z1)
    den = (z2 - z1.conjugate()) * (z2.conjugate() - z1.conjugate())
    if abs(den) == 0.0:
        raise WeightError("degenerate pair")
    ratio = num / den
    if ratio.imag == 0.0:
        ratio = complex(ratio.real, 0.0)  # avoid the -0.0 branch edge
    return (cmath.log(ratio) / 2j).real


def phi_gradient(z1, z2):
    """Partials of phi with respect to (x1, y1, x2, y2).

    The branch-dependent pieces of phi cancel in the differential, which
    equals d arg(z2 - z1) + d arg(conj(z2) - z1)."""
    z1, z2 = _as_complex(z1), _as_complex(z2)
    if abs(z2 - z1) < COLLISION_GUARD:
        raise WeightError("coincident points")
    u = z2.real - z1.real
    va = z2.imag - z1.imag
    vb = -(z2.imag + z1.imag)
    ra = u * u + va * va
    rb = u * u + vb * vb
    if ra == 0.0 or rb == 0.0:
        raise WeightError("degenerate pair")
    return (
        va / ra + vb / rb,
        -u / ra - u / rb,
        -va / ra - vb / rb,
        u / ra - u / rb,
    )


def _gradient_arrays(x1, y1, x2, y2):
    """Vectorized phi_gradient on numpy arrays."""
    u = x2 - x1
    va = y2 - y1
    vb = -(y2 + y1)
    ra = u * u + va * va
    rb = u * u + vb * vb
    return (
        va / ra + vb / rb,
        -u / ra - u / rb,
        -(va / ra + vb / rb),
        u / ra - u / rb,
    )


def _edge_list(g: Graph):
    """(source vertex, encoded target) in integration row order."""
    edges = []
    for k, (a, b) in enumerate(g.targets):
        edges.append((k, a))
        edges.append((k, b))
    return edges


def _integrand_batch(g: Graph, x, y):
    """Density of the weight form at a batch of configurations.

    x, y are numpy arrays of shape (m, n); returns shape (m,), including the
    1/(n! (2 pi)^(2n)) normalization."""
    import numpy as np

    m, n = x.shape
    rows = np.zeros((m, 2 * n, 2 * n))
    for row, (k, t) in enumerate(_edge_list(g)):
        x1, y1 = x[:, k], y[:, k]
        if t < 2:
            x2 = np.full(m, float(t))
            y2 = np.zeros(m)
        else:
            x2, y2 = x[:, t - 2], y[:, t - 2]
        dx1, dy1, dx2, dy2 = _gradient_arrays(x1, y1, x2, y2)
        rows[:, row, 2 * k] = dx1
        rows[:, row, 2 * k + 1] = dy1
        if t >= 2:
            j = t - 2
            rows[:, row, 2 * j] += dx2
            rows[:, row, 2 * j + 1] += dy2
    norm = math.factorial(n) * (2.0 * math.pi) ** (2 * n)
    return np.linalg.det(rows) / norm


def integrand(g: Graph, config) -> float:
    """Weight-form density at one configuration of internal points."""
    n = g.n
    pts = [_as_complex(z) for z in config]
    if len(pts) != n:
        raise WeightError(f"expected {n} points, got {len(pts)}")
    if n == 0:
        return 1.0
    for z in pts:
        if z.imag <= 0:
            raise WeightError("internal points must lie in the open upper half-plane")
    special = pts + [0j, 1 + 0j]
    for i in range(len(special)):
        for j in range(i + 1, len(special)):
            if abs(special[i] - special[j]) < COLLISION_GUARD:
                raise WeightError("coincident points in configuration")
    import numpy as np

    x = np.array([[z.real for z in pts]])
    y = np.array([[z.imag for z in pts]])
    return float(_integrand_batch(g, x, y)[0])


def _sample_block(g: Graph, count: int, seed: int, block: int) -> float:
    """Mean of `count` importance-weighted integrand draws for one block."""
    import numpy as np

    n = g.n
    rng = np.random.default_rng([seed, block])
    total = 0.0
    remaining = count
    while remaining > 0:
        m = remaining
        u = rng.random((m, n))
        t = rng.random((m, n))
        x = np.tan(np.pi * (u - 0.5))
        y = t / (1.0 - t)
        ok = np.ones(m, dtype=bool)
        for i in range(n):
            ok &= (y[:, i] > COLLISION_GUARD)
            for j in range(i + 1, n):
                d2 = (x[:, i] - x[:, j]) ** 2 + (y[:, i] - y[:, j]) ** 2
                ok &= d2 > COLLISION_GUARD**2
        x, y = x[ok], y[ok]
        if x.shape[0] == 0:
            continue
        jac = np.prod(np.pi * (1.0 + x * x) * (1.0 + y) ** 2, axis=1)
        total += float(np.sum(_integrand_batch(g, x, y) * jac))
        remaining -= x.shape[0]
    return total / count


def worker_count() -> int:
    cap = os.environ.get("STARFORGE_THREADS")
    if cap:
        return max(1, int(cap))
    return min(8, os.cpu_count() or 1)


@dataclass(frozen=True)
class WeightEstimate:
    graph: str
    mean: float
    stderr: float
    samples: int
    seed: int
    method: str = "MedianOfMeans"

    def __post_init__(self):
        if self.stderr < 0:
            raise WeightError("stderr must be nonnegative")


def estimate_weight(
    g: Graph, samples: int, seed: int, blocks: int = DEFAULT_BLOCKS
) -> WeightEstimate:
    """Monte Carlo weight estimate, aggregated as a median of block means.

    Deterministic in (seed, samples, blocks); the worker count only changes
    scheduling, never the draws.  A graph with internal vertices needs at
    least two blocks of at least one draw each, or there is no error bar."""
    if samples < 1:
        raise WeightError("sample count must be positive")
    if g.n == 0:
        return WeightEstimate(g.encode(), 1.0, 0.0, samples, seed, "MonteCarloMean")
    blocks = min(blocks, samples)
    if blocks < 2:
        raise WeightError(f"a standard error needs at least 2 blocks of draws, got {blocks}")
    # numpy and the thread pool are loaded here, before the workers start,
    # and not at import: commands that estimate no weight never pay for them
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    base, extra = divmod(samples, blocks)
    counts = [base + (1 if b < extra else 0) for b in range(blocks)]
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        means = list(
            pool.map(lambda b: _sample_block(g, counts[b], seed, b), range(blocks))
        )
    arr = np.array(means)
    mean = float(np.median(arr))
    stderr = _MEDIAN_FACTOR * float(np.std(arr, ddof=1)) / math.sqrt(blocks)
    return WeightEstimate(g.encode(), mean, stderr, samples, seed)


# -- known weights ------------------------------------------------------------

PROVENANCE_PAPER = "exact-paper"
PROVENANCE_ANALYTIC = "exact-analytic"
PROVENANCE_ESTIMATED = "estimated"


@dataclass(frozen=True)
class WeightEntry:
    exact: Fraction | None
    estimate: WeightEstimate | None
    provenance: str

    @property
    def value(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        return self.estimate.mean

    @property
    def stderr(self) -> float:
        return 0.0 if self.exact is not None else self.estimate.stderr


class WeightTable:
    """Exact or estimated weights keyed by canonical graph encoding.

    Exact entries shadow estimates on merge."""

    def __init__(self, entries=None):
        self.entries: dict = dict(entries or {})

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def get(self, key: str) -> WeightEntry | None:
        return self.entries.get(key)

    def set_exact(self, key: str, value, provenance: str = PROVENANCE_ANALYTIC):
        self.entries[key] = WeightEntry(as_fraction(value), None, provenance)

    def add_estimate(self, est: WeightEstimate):
        key = est.graph
        prev = self.entries.get(key)
        if prev is not None and prev.exact is not None:
            return
        self.entries[key] = WeightEntry(None, est, PROVENANCE_ESTIMATED)

    def merge(self, other: "WeightTable") -> "WeightTable":
        out = WeightTable(self.entries)
        for key, entry in other.entries.items():
            prev = out.entries.get(key)
            if prev is not None and prev.exact is not None and entry.exact is None:
                continue
            out.entries[key] = entry
        return out

    def to_json(self) -> list:
        rows = []
        for key in sorted(self.entries):
            entry = self.entries[key]
            if entry.exact is not None:
                rows.append({"graph": key, "exact": str(entry.exact)})
            else:
                est = entry.estimate
                rows.append(
                    {
                        "graph": key,
                        "estimate": est.mean,
                        "stderr": est.stderr,
                        "samples": est.samples,
                        "seed": est.seed,
                    }
                )
        return rows

    @classmethod
    def from_json(cls, rows) -> "WeightTable":
        table = cls()
        for row in rows:
            key = row["graph"]
            if "exact" in row:
                table.set_exact(key, Fraction(row["exact"]), PROVENANCE_PAPER)
            else:
                table.add_estimate(
                    WeightEstimate(
                        graph=key,
                        mean=float(row["estimate"]),
                        stderr=float(row["stderr"]),
                        samples=int(row["samples"]),
                        seed=int(row["seed"]),
                    )
                )
        return table

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "WeightTable":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _set_exact_for(table: "WeightTable", text: str, value: Fraction, provenance: str):
    """Store the weight of the given graph on its canonical representative,
    adjusted by the edge-swap parity between the two."""
    cls = canonicalize(parse_graph(text))
    table.set_exact(cls.key, cls.sign * value, provenance)


def seed_table() -> WeightTable:
    """Known exact weights for all graphs with at most two internal
    vertices."""
    table = WeightTable()
    table.set_exact("0:", 1, PROVENANCE_ANALYTIC)
    _set_exact_for(table, "1:(L,R)", Fraction(1, 2), PROVENANCE_ANALYTIC)
    exact2 = {
        "2:(L,R)(L,R)": Fraction(1, 8),
        "2:(2,L)(R,L)": Fraction(1, 24),
        "2:(2,R)(L,R)": Fraction(1, 24),
        "2:(L,2)(R,1)": Fraction(-1, 48),
    }
    for text, value in exact2.items():
        _set_exact_for(table, text, value, PROVENANCE_PAPER)
    from .graphs import enumerate_graphs

    for g in enumerate_graphs(2):
        if g.is_bad():
            key = canonicalize(g).key
            if key not in table:
                table.set_exact(key, 0, PROVENANCE_PAPER)
    return table


def known_weight(g: Graph, table: WeightTable) -> Fraction | None:
    """Exact weight of a graph from the table, adjusted by the edge-swap
    parity to its canonical representative; None when unknown."""
    if g.is_bad():
        return Fraction(0)
    cls = canonicalize(g)
    entry = table.get(cls.key)
    if entry is None or entry.exact is None:
        return None
    return cls.sign * entry.exact


def table_weight(g: Graph, table: WeightTable):
    """(value, stderr, provenance) of a graph, exact or estimated, else
    None."""
    if g.is_bad():
        return Fraction(0), 0.0, PROVENANCE_ANALYTIC
    cls = canonicalize(g)
    entry = table.get(cls.key)
    if entry is None:
        return None
    if entry.exact is not None:
        return cls.sign * entry.exact, 0.0, entry.provenance
    return cls.sign * Fraction(entry.estimate.mean), entry.estimate.stderr, entry.provenance


def factorized_weight(g: Graph, table: WeightTable):
    """Weight of a decomposable graph from its components: the product of
    component weights times prod(r_i!) / n!.

    Returns (value, stderr, provenance); value is a Fraction, exact only
    when every component is."""
    comps = decompose(g)
    if len(comps) < 2:
        raise GraphError("graph is indecomposable")
    prefactor = Fraction(
        math.prod(math.factorial(c.n) for c in comps), math.factorial(g.n)
    )
    value = prefactor
    rel_err = 0.0
    provenance = PROVENANCE_ANALYTIC
    for comp in comps:
        looked = table_weight(comp, table)
        if looked is None:
            raise WeightError(f"no weight for component {comp.encode()}")
        w, err, tag = looked
        if tag == PROVENANCE_ESTIMATED:
            provenance = PROVENANCE_ESTIMATED
            if w == 0:
                return Fraction(0), prefactor_abs_err(prefactor, comps, table, comp, err), provenance
            rel_err += (err / abs(float(w))) ** 2
        elif tag == PROVENANCE_PAPER and provenance != PROVENANCE_ESTIMATED:
            provenance = PROVENANCE_PAPER
        value *= w
    stderr = abs(float(value)) * math.sqrt(rel_err)
    return value, stderr, provenance


def prefactor_abs_err(prefactor, comps, table, zero_comp, err):
    """Absolute error bound when one estimated component mean is zero."""
    other = float(prefactor) * err
    for comp in comps:
        if comp is zero_comp:
            continue
        w, _, _ = table_weight(comp, table)
        other *= abs(float(w))
    return other
