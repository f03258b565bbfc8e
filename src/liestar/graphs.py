"""Admissible graphs: enumeration, canonical classes, shape classification,
decomposition into unions, and compilation to bidifferential operators.

A graph with n internal vertices stores, for each vertex k, the ordered pair
of edge targets (first edge, second edge).  Targets are encoded as integers
with L = 0, R = 1, and internal vertex k = k + 1, which realizes the ordering
L < R < 1 < ... < n used for canonical forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .algebra import PoissonTensor
from .operators import BiDiffOperator
from .poly import Polynomial

L = 0
R = 1

ENUMERATION_CAP = 4


class GraphError(ValueError):
    pass


def _target_label(t: int) -> str:
    if t == L:
        return "L"
    if t == R:
        return "R"
    return str(t - 1)


@dataclass(frozen=True)
class Graph:
    """Admissible graph: n internal vertices, each emitting an ordered edge
    pair into {L, R, 1..n} with no loops and no parallel pair."""

    n: int
    targets: tuple  # n pairs of encoded targets

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        if len(self.targets) != self.n:
            raise GraphError("wrong number of target pairs")
        for k, (a, b) in enumerate(self.targets):
            me = k + 2
            for t in (a, b):
                if not 0 <= t <= self.n + 1:
                    raise GraphError(f"target {t} out of range")
                if t == me:
                    raise GraphError(f"loop at vertex {k + 1}")
            if a == b:
                raise GraphError(f"parallel pair at vertex {k + 1}")

    def encode(self) -> str:
        pairs = "".join(f"({_target_label(a)},{_target_label(b)})" for a, b in self.targets)
        return f"{self.n}:{pairs}"

    def incoming(self, target: int) -> list:
        """Edge slots (vertex, which) ending at the encoded target."""
        out = []
        for k, pair in enumerate(self.targets):
            for which, t in enumerate(pair):
                if t == target:
                    out.append((k, which))
        return out

    def is_bad(self) -> bool:
        """L or R receives no edge (meaningful for n >= 2)."""
        if self.n < 2:
            return False
        return not self.incoming(L) or not self.incoming(R)

    def __str__(self):
        return self.encode()


def parse_graph(text: str) -> Graph:
    try:
        head, _, body = text.partition(":")
        n = int(head)
        pairs = []
        body = body.strip()
        while body:
            if body[0] != "(":
                raise ValueError
            end = body.index(")")
            a, b = body[1:end].split(",")
            pairs.append(tuple(_parse_target(t.strip(), n) for t in (a, b)))
            body = body[end + 1:]
    except ValueError as exc:
        raise GraphError(f"malformed graph encoding {text!r}") from exc
    return Graph(n=n, targets=tuple(pairs))


def _parse_target(t: str, n: int) -> int:
    if t == "L":
        return L
    if t == "R":
        return R
    v = int(t)
    if not 1 <= v <= n:
        raise ValueError
    return v + 1


def enumerate_graphs(n: int, cap: int = ENUMERATION_CAP) -> list:
    """All (n(n+1))^n admissible graphs, in deterministic order."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n > cap:
        raise GraphError(f"enumeration of G_{n} exceeds the cap {cap}")
    if n == 0:
        return [Graph(0, ())]
    choices = []
    for k in range(n):
        me = k + 2
        pool = [t for t in range(n + 2) if t != me]
        pairs = [(a, b) for a in pool for b in pool if a != b]
        choices.append(pairs)
    return [Graph(n, combo) for combo in itertools.product(*choices)]


@dataclass(frozen=True)
class GraphClass:
    """Canonical form of a graph under vertex relabeling and edge swaps.

    `sign` is the edge-swap parity of a group element carrying the queried
    graph onto the representative; vertex permutations do not contribute.
    """

    representative: Graph
    symmetry_count: int
    sign: int

    @property
    def key(self) -> str:
        return self.representative.encode()


def _relabel(targets: tuple, perm: tuple) -> tuple:
    """Apply an internal-vertex permutation: vertex k goes to perm[k]."""
    n = len(targets)
    mapped = []
    for k in range(n):
        a, b = targets[k]
        a2 = a if a < 2 else perm[a - 2] + 2
        b2 = b if b < 2 else perm[b - 2] + 2
        mapped.append((a2, b2))
    # reorder the list so position perm[k] holds vertex k's pair
    out = [None] * n
    for k in range(n):
        out[perm[k]] = mapped[k]
    return tuple(out)


def canonicalize(g: Graph) -> GraphClass:
    """Lex-least member of the orbit of g under the n! * 2^n vertex
    relabelings and edge swaps, with its orbit size and swap parity.

    For a fixed relabeling the least member over all swap masks is the
    relabeled graph with every target pair sorted, so only the n!
    relabelings are walked.  Graph rejects a pair with equal targets, so each
    relabeling reaches its sorted form through exactly one mask.  The group
    elements reaching the representative form a coset of the stabilizer of g,
    so the orbit size is n! * 2^n over their number.  When those elements
    have both swap parities the class operator vanishes (w(G) * B_G = 0), and
    the sign is set to 1, as either sign is valid."""
    n = g.n
    best = None
    hits = 0
    parities = set()
    for perm in itertools.permutations(range(n)):
        base = _relabel(g.targets, perm)
        member = tuple((a, b) if a < b else (b, a) for a, b in base)
        if best is None or member < best:
            best, hits, parities = member, 0, set()
        if member == best:
            hits += 1
            parities.add(sum(a > b for a, b in base) % 2)
    return GraphClass(
        representative=Graph(n, best),
        symmetry_count=math.factorial(n) * 2**n // hits,
        sign=-1 if parities == {1} else 1,
    )


def canonical_classes(graphs) -> list:
    """Distinct GraphClass objects (one per orbit), sorted by canonical key."""
    out: dict = {}
    for g in graphs:
        cls = canonicalize(g)
        out.setdefault(cls.key, GraphClass(cls.representative, cls.symmetry_count, 1))
    return [out[k] for k in sorted(out)]


@lru_cache(maxsize=ENUMERATION_CAP + 1)
def good_classes(n: int) -> tuple:
    """The classes of G_n that are not bad, sorted by canonical key; each
    order is enumerated and canonicalized once per process."""
    return tuple(c for c in canonical_classes(enumerate_graphs(n)) if not c.representative.is_bad())


# -- shapes -------------------------------------------------------------------


@dataclass(frozen=True)
class GraphKind:
    kind: str  # "bad" | "wheel1" | "wheel2" | "union" | "other"
    r: int | None = None
    components: tuple = ()

    def __str__(self):
        if self.kind in ("wheel1", "wheel2"):
            return f"{self.kind}({self.r})"
        if self.kind == "union":
            return f"union[{', '.join(str(c) for c in self.components)}]"
        return self.kind


def wheel1_graph(r: int) -> Graph:
    """Cycle 1 -> 2 -> ... -> r -> 1; vertex 1 also points at L, the others
    at R."""
    if r < 2:
        raise GraphError("wheel needs r >= 2")
    targets = [(L, 3)] if r > 1 else []
    for k in range(1, r):
        nxt = (k + 1) % r
        targets.append((R, nxt + 2))
    return Graph(r, tuple(targets))


def wheel2_graph(r: int) -> Graph:
    """Cycle 1 -> 2 -> ... -> r -> 1 with every second edge pointing at R."""
    if r < 2:
        raise GraphError("wheel needs r >= 2")
    targets = tuple((R, (k + 1) % r + 2) for k in range(r))
    return Graph(r, targets)


@lru_cache(maxsize=None)
def _wheel_keys(r: int):
    return canonicalize(wheel1_graph(r)).key, canonicalize(wheel2_graph(r)).key


def decompose(g: Graph) -> list:
    """Connected components of the internal vertices (L, R shared);
    a singleton list iff the graph is indecomposable."""
    n = g.n
    if n == 0:
        return []
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k, pair in enumerate(g.targets):
        for t in pair:
            if t >= 2:
                ra, rb = find(k), find(t - 2)
                if ra != rb:
                    parent[ra] = rb
    groups: dict = {}
    for k in range(n):
        groups.setdefault(find(k), []).append(k)
    comps = sorted(groups.values(), key=min)
    out = []
    for comp in comps:
        index = {v: i for i, v in enumerate(comp)}
        targets = tuple(
            tuple(t if t < 2 else index[t - 2] + 2 for t in g.targets[v])
            for v in comp
        )
        out.append(Graph(len(comp), targets))
    return out


def classify(g: Graph) -> GraphKind:
    if g.n >= 2:
        key = canonicalize(g).key
        w1, w2 = _wheel_keys(g.n)
        if key == w1:
            return GraphKind("wheel1", r=g.n)
        if key == w2:
            return GraphKind("wheel2", r=g.n)
        if g.is_bad():
            return GraphKind("bad")
    comps = decompose(g)
    if len(comps) > 1:
        return GraphKind("union", components=tuple(comps))
    return GraphKind("other")


def has_internal_cycle(g: Graph) -> bool:
    """Directed cycle among the internal vertices."""
    adj = {k: [t - 2 for t in g.targets[k] if t >= 2] for k in range(g.n)}
    color = [0] * g.n  # 0 unvisited, 1 on stack, 2 done

    def dfs(v) -> bool:
        color[v] = 1
        for w in adj[v]:
            if color[w] == 1 or (color[w] == 0 and dfs(w)):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and dfs(v) for v in range(g.n))


# -- compilation --------------------------------------------------------------


def bidiff_of_graph(g: Graph, pi: PoissonTensor) -> BiDiffOperator:
    """Bidifferential operator of a graph: sum over index assignments of the
    product over vertices of the (differentiated) Poisson components, with
    edges into L and R becoming derivatives of the two arguments.

    The assignments are walked depth first, vertex by vertex: step k fixes
    the pair (i, j) of vertex k, branching only over the nonzero components
    pi^{ij} in sorted order.  The factor d_{incoming(v)} pi^{ij} of a vertex
    v is multiplied in at the first step that has fixed v's own pair and the
    source of every edge into v; when it is zero the branch is dropped.  A
    product of nonzero polynomials is nonzero, so the leaves reached are
    exactly the assignments with a nonzero term, met in the lexicographic
    order of the full d^(2n) walk."""
    d = pi.dim
    n = g.n
    if n == 0:
        return BiDiffOperator.multiplication(d)
    incoming = [[] for _ in range(n)]  # edge slot index per internal vertex
    into_l, into_r = [], []
    for k, pair in enumerate(g.targets):
        for which, t in enumerate(pair):
            slot = 2 * k + which
            if t == L:
                into_l.append(slot)
            elif t == R:
                into_r.append(slot)
            else:
                incoming[t - 2].append(slot)
    # ready[k]: the vertices whose factor has all its indices after step k
    ready = [[] for _ in range(n)]
    for v in range(n):
        ready[max([v] + [s // 2 for s in incoming[v]])].append(v)
    pairs = sorted(pi.components)
    assign = [0] * (2 * n)
    terms: dict = {}

    def walk(k: int, product: Polynomial | None) -> None:
        if k == n:
            key = (
                tuple(sorted(assign[s] for s in into_l)),
                tuple(sorted(assign[s] for s in into_r)),
            )
            prev = terms.get(key)
            terms[key] = product if prev is None else prev + product
            return
        for i, j in pairs:
            assign[2 * k], assign[2 * k + 1] = i, j
            out = product
            for v in ready[k]:
                comp = pi.components[(assign[2 * v], assign[2 * v + 1])]
                f = comp.partial_multi(assign[s] for s in incoming[v])
                if f.is_zero:
                    break
                out = f if out is None else out * f
            else:
                walk(k + 1, out)

    walk(0, None)
    return BiDiffOperator._trusted(d, {key: c for key, c in terms.items() if not c.is_zero})
