"""Seeded input generator and fixed task lists for the three workloads.

The generator writes every truth-table, sign-matrix, group-map and values
file the CLI reads, builds the argv of each task, and gives each task its
expected exit code and the independent data its oracle needs.  It never
calls into commbound for the files; library-call tasks get their arguments
from the package's plain constructors only.

Cost control: the expensive tasks (the desk-scale ceilings) are fixed
instances, and the seed only picks entries, permutations and values of inputs
whose shape, and therefore whose cost, is fixed.  Pass times then depend on
the code, not on the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

EPS = repr(1.0 / 3.0)

CORE4 = np.array([[1, -1, 1, -1], [1, -1, -1, 1],
                  [-1, 1, 1, -1], [-1, 1, -1, 1]])
COREFREE6 = np.array([[1, 1, 1, -1, -1, -1], [1, 1, -1, 1, -1, -1],
                      [1, -1, -1, -1, 1, 1], [-1, -1, 1, 1, 1, -1],
                      [-1, 1, -1, -1, 1, 1], [-1, -1, 1, 1, -1, 1]])
XOR2 = np.array([[1, -1], [-1, 1]])
H2 = np.array([[1, 1], [1, -1]])
BUILTIN_MATRICES = {"core4": CORE4, "corefree6": COREFREE6, "xor2": XOR2,
                    "h2": H2}


@dataclass
class Task:
    """One user action: a CLI argv or one public library call."""

    id: str
    argv: list | None = None        # CLI arguments, --output is appended
    call: str | None = None         # "module.function" for library tasks
    args: tuple = ()
    expect: int | None = None       # expected CLI exit code
    check: dict = field(default_factory=dict)   # oracle kind and its data


# ---------------------------------------------------------------------------
# Boolean functions, as +-1 tables indexed by the mask of -1 inputs

def builtin_table(name: str, n: int) -> np.ndarray:
    x = np.arange(2 ** n)
    ones = np.array([bin(v).count("1") for v in x])
    if name == "PARITY":
        minus = ones % 2 == 1
    elif name == "AND":
        minus = x == 2 ** n - 1
    elif name == "OR":
        minus = x != 0
    elif name == "MAJ":
        minus = 2 * ones > n
    else:
        raise ValueError(name)
    return np.where(minus, -1, 1)


def random_table(rng, n: int) -> np.ndarray:
    while True:
        t = rng.choice([-1, 1], size=2 ** n)
        if abs(int(t.sum())) < 2 ** n:   # non-constant, so deg_eps >= 1
            return t


def strongly_balanced(M: np.ndarray) -> bool:
    return bool((M.sum(axis=0) == 0).all() and (M.sum(axis=1) == 0).all())


def random_strongly_balanced(rng, rows: int, cols: int) -> np.ndarray:
    """Rows come in complementary pairs (r, -r) of balanced rows, so every
    column sums to zero; rows and columns are then shuffled."""
    half = []
    for _ in range(rows // 2):
        r = np.array([1] * (cols // 2) + [-1] * (cols // 2))
        half.append(rng.permutation(r))
    M = np.array([s * r for r in half for s in (1, -1)])
    return M[rng.permutation(rows)][:, rng.permutation(cols)]


# ---------------------------------------------------------------------------
# groups: mixed radix, first modulus least significant

def group_add_table(moduli) -> np.ndarray:
    order = int(np.prod(moduli))
    idx = np.arange(order)
    digits = []
    for m in moduli:
        digits.append(idx % m)
        idx = idx // m
    out = np.zeros((order, order), dtype=np.int64)
    scale = 1
    for m, d in zip(moduli, digits):
        out += ((d[:, None] + d[None, :]) % m) * scale
        scale *= m
    return out


def sign_blocks_map(blocks) -> np.ndarray:
    """Z_2^t map: block 1 is the most significant index factor and bit 0."""
    rows = int(np.prod([b.shape[0] for b in blocks]))
    cols = int(np.prod([b.shape[1] for b in blocks]))
    out = np.zeros((rows, cols), dtype=np.int64)
    r_div, c_div = rows, cols
    for i, b in enumerate(blocks):
        r_div //= b.shape[0]
        c_div //= b.shape[1]
        xi = (np.arange(rows) // r_div) % b.shape[0]
        yi = (np.arange(cols) // c_div) % b.shape[1]
        out |= (b[np.ix_(xi, yi)] == -1).astype(np.int64) << i
    return out


def permuted_addition_map(rng, moduli) -> np.ndarray:
    """g(x, y) = pi(x) + sigma(y) for random bijections pi, sigma."""
    add = group_add_table(moduli)
    order = add.shape[0]
    return add[np.ix_(rng.permutation(order), rng.permutation(order))]


def map_text(entries: np.ndarray, moduli) -> str:
    def element(v):
        parts = []
        for m in moduli:
            parts.append(str(v % m))
            v //= m
        return ":".join(parts)
    lines = ["group " + ",".join(str(m) for m in moduli)]
    for row in entries:
        lines.append(",".join(element(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def char_table(moduli) -> np.ndarray:
    """Abelian character table chi_a(x) = prod_j exp(2 pi i a_j x_j / m_j)."""
    out = np.ones((1, 1), dtype=complex)
    for m in moduli:
        k = np.arange(m)
        out = np.kron(np.exp(2j * np.pi * np.outer(k, k) / m), out)
    return out


# ---------------------------------------------------------------------------
# writers

class _Files:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def table(self, name: str, t: np.ndarray) -> str:
        n = int(np.log2(t.size))
        bits = "".join("1" if v == -1 else "0" for v in t)
        return self.write(name + ".tt", f"n={n}\n{bits}\n")

    def matrix(self, name: str, M: np.ndarray) -> str:
        lines = [f"{M.shape[0]} {M.shape[1]}"]
        lines += [" ".join("+1" if v == 1 else "-1" for v in row) for row in M]
        return self.write(name + ".sm", "\n".join(lines) + "\n")


def _fn_spec(spec: str):
    name, n = spec.split(":")
    return builtin_table(name, int(n))


class _TaskList:
    """Appends tasks of each kind, writing the input files they read."""

    def __init__(self, rng, files: _Files, cb):
        self.rng, self.files, self.cb = rng, files, cb
        self.tasks = []

    def add(self, tid, argv=None, expect=0, **check):
        self.tasks.append(Task(tid, argv=argv, expect=expect, check=check))

    def call(self, tid, name, args, **check):
        self.tasks.append(Task(tid, call=name, args=args, check=check))

    def approx(self, tid, fspec, table, eps=EPS, dual=True):
        argv = ["approx-degree", "--function", fspec, "--epsilon", eps]
        self.add(tid, argv + (["--dual"] if dual else []), kind="approx",
                 table=table, eps=float(eps), dual=dual)

    def bound(self, tid, theorem, fspec, table, inner_spec, g):
        # disc_U >= 1/size(g) >= 2^-7 at these sizes: always vacuous, exit 1
        ok = theorem == "sherstov" and strongly_balanced(g) and \
            np.linalg.matrix_rank(g) > 1
        self.add(tid, ["lower-bound", "--theorem", theorem, "--function",
                       fspec, "--inner", inner_spec], 0 if ok else 1,
                 kind=theorem, table=table, g=g)

    def analyze(self, tid, spec, M):
        self.add(tid, ["analyze-matrix", "--input", spec], kind="analyze", M=M)

    def compose(self, tid, fspec, inner_spec, g, table=None, witness=True):
        table = _fn_spec(fspec) if table is None else table
        argv = ["compose", "--function", fspec, "--inner", inner_spec,
                "--verify-rank"] + (["--witness"] if witness else [])
        self.add(tid, argv, kind="compose", table=table, g=g,
                 eps=1.0 / 3.0, witness=witness)

    def search(self, rows, cols, min_rank=None, forbidden=None, limit=None):
        argv = ["search-balanced", "--rows", str(rows), "--cols", str(cols)]
        tid = f"search-{rows}x{cols}"
        if min_rank is not None:
            argv += ["--min-rank", str(min_rank)]
            tid += f"-rank{min_rank}"
        if forbidden is not None:
            argv += ["--forbidden", forbidden]
            tid += f"-no-{forbidden}"
        if limit is not None:
            argv += ["--limit", str(limit)]
            tid += f"-limit{limit}"
        self.add(tid, argv, kind="search", rows=rows, cols=cols,
                 min_rank=min_rank or 0, limit=limit,
                 forbidden=None if forbidden is None
                 else BUILTIN_MATRICES[forbidden])

    def group_check(self, tid, entries, moduli, easy=None, eps=0.0):
        order = int(np.prod(moduli))
        vals = self.rng.uniform(-1.0, 1.0, size=order)
        gpath = self.files.write(tid + ".gmap", map_text(entries, moduli))
        vpath = self.files.write(tid + ".vals", " ".join(
            repr(float(v)) for v in vals) + "\n")
        argv = ["group-check", "--gmap", gpath, "--values", vpath]
        if easy is not None:
            argv += ["--easy", ",".join(str(i) for i in easy)]
        if eps:
            argv += ["--epsilon", repr(eps)]
        counts = np.bincount(entries.reshape(-1), minlength=order)
        ok = bool((counts == counts[0]).all())
        if easy is None:    # distance to the constants is (max - min) / 2
            ok = ok and (vals.max() - vals.min()) / 2 > 2 * eps
        self.add(tid, argv, 0 if ok else 1, kind="group_check",
                 entries=entries, moduli=tuple(moduli), values=vals,
                 easy=[0] if easy is None else easy, eps=eps)

    def idle_layers(self, workload):
        """One tiny task for each layer the workload leaves idle, so every
        per-layer time in a traced run is measured rather than zero."""
        if workload != "inner":
            self.compose("layers-compose-AND:2-core4", "AND:2", "core4", CORE4)
            self.analyze("layers-analyze-core4", "core4", CORE4)
            self.search(4, 4)
        if workload == "group":
            self.bound("layers-sherstov-AND:2-core4", "sherstov", "AND:2",
                       _fn_spec("AND:2"), "core4", CORE4)
        if workload != "group":
            self.group_check("layers-group-core4", sign_blocks_map([CORE4]),
                             (2,))


# ---------------------------------------------------------------------------
# workloads

def degree_tasks(b: _TaskList) -> None:
    for spec in ["AND:3", "PARITY:3", "PARITY:5", "AND:4", "OR:3", "OR:5",
                 "MAJ:3", "MAJ:5"]:
        b.approx(f"approx-dual-{spec}", spec, _fn_spec(spec))
    for spec, eps in [("AND:5", "0.1"), ("OR:6", "0.5"), ("MAJ:5", "0.1"),
                      ("PARITY:4", "0.25"), ("AND:2", "0.5"),
                      ("MAJ:7", "0.9")]:
        b.approx(f"approx-{spec}-eps{eps}", spec, _fn_spec(spec), eps, False)
    for spec, inner in [("AND:3", "core4"), ("AND:4", "core4"),
                        ("MAJ:5", "corefree6"), ("OR:4", "corefree6"),
                        ("PARITY:3", "xor2"), ("OR:4", "h2"),
                        ("MAJ:3", "xor2"), ("AND:5", "corefree6")]:
        b.bound(f"sherstov-{spec}-{inner}", "sherstov", spec, _fn_spec(spec),
                inner, BUILTIN_MATRICES[inner])
    # The LP cost of a random table depends on its degree and on the pivot
    # path, so two 5-bit tables keep the seed's share of the pass small;
    # 6-bit tables varied 2x in cost between seeds and are left to builtins.
    for k, inner in enumerate(["core4", "corefree6"]):
        t = random_table(b.rng, 5)
        path = b.files.table(f"rand5-{k}", t)
        b.approx(f"approx-dual-rand5-{k}", path, t)
        b.bound(f"sherstov-rand5-{k}-{inner}", "sherstov", path, t, inner,
                BUILTIN_MATRICES[inner])


def inner_tasks(b: _TaskList) -> None:
    for name in ["core4", "corefree6", "xor2", "h2"]:
        b.analyze(f"analyze-{name}", name, BUILTIN_MATRICES[name])
    b.search(6, 6, forbidden="core4")
    b.search(6, 6, min_rank=4)
    b.search(6, 8, min_rank=4, limit=5)
    for fspec, inner in [("AND:2", "core4"), ("PARITY:2", "core4"),
                         ("MAJ:3", "core4"), ("AND:3", "core4"),
                         ("AND:2", "corefree6"), ("PARITY:2", "corefree6")]:
        b.compose(f"compose-{fspec}-{inner}", fspec, inner,
                  BUILTIN_MATRICES[inner])
    # 216 x 216 composition and its exact rank; its witness would add a
    # single 8 s Jacobi spectrum, too long to repeat within one run
    b.compose("compose-AND:3-corefree6-rank", "AND:3", "corefree6",
              COREFREE6, witness=False)
    for fspec, inner in [("AND:3", "core4"), ("MAJ:3", "corefree6"),
                         ("PARITY:2", "corefree6"), ("AND:2", "xor2")]:
        for theorem in ("sherstov", "disc"):
            b.bound(f"{theorem}-{fspec}-{inner}", theorem, fspec,
                    _fn_spec(fspec), inner, BUILTIN_MATRICES[inner])
    for k, (rows, cols) in enumerate([(6, 6), (6, 6), (6, 8), (6, 8)]):
        g = random_strongly_balanced(b.rng, rows, cols)
        path = b.files.matrix(f"inner-{k}", g)
        b.analyze(f"analyze-inner-{k}", path, g)
        t = random_table(b.rng, 2)
        b.compose(f"compose-rand2-inner-{k}", b.files.table(f"outer2-{k}", t),
                  path, g, table=t)
        for theorem in ("sherstov", "disc"):
            b.bound(f"{theorem}-MAJ:3-inner-{k}", theorem, "MAJ:3",
                    _fn_spec("MAJ:3"), path, g)
    # the exhaustive ordered core4 search stops at the first hit, so few
    # columns keep its seed-dependent cost small next to the 2^rows
    # discrepancy enumeration
    for rows, cols in ((12, 6), (14, 4), (16, 4)):
        M = b.rng.choice([-1, 1], size=(rows, cols))
        b.analyze(f"analyze-rand-{rows}x{cols}",
                  b.files.matrix(f"rand-{rows}x{cols}", M), M)


def group_tasks(b: _TaskList) -> None:
    # core4^3 (64 x 64) is left out: its group-check and degeneration check
    # take about 10 s each, too long to repeat within one run; corefree6^2
    # (1 s) would halve the passes a run gets
    block_sets = {"core4x2": [CORE4, CORE4],
                  "core4-corefree6": [CORE4, COREFREE6],
                  "xor2x4": [XOR2] * 4}
    for name, blocks in block_sets.items():
        b.group_check(f"group-{name}", sign_blocks_map(blocks),
                      (2,) * len(blocks))
    # the easy-partition variant runs on one sign-block map and the epsilon
    # variant on addition tables only, to keep a pass short
    b.group_check("group-core4x2-easy", sign_blocks_map(block_sets["core4x2"]),
                  (2, 2), easy=[0, 1])
    for moduli in [(3, 3), (4, 2), (3,), (5,), (7,), (8,), (2, 2), (6,),
                   (3, 2), (5, 2), (2, 2, 2)]:
        name = "x".join(f"Z{m}" for m in moduli)
        b.group_check(f"group-add-{name}",
                      permuted_addition_map(b.rng, moduli), moduli)
    b.group_check("group-add-Z3xZ3-easy", permuted_addition_map(b.rng, (3, 3)),
                  (3, 3), easy=[0, 1, 2])
    for moduli in [(3, 3), (4, 2)]:
        name = "x".join(f"Z{m}" for m in moduli)
        b.group_check(f"group-add-{name}-eps",
                      permuted_addition_map(b.rng, moduli), moduli, eps=0.05)
    # 8x8 over Z3: 64 entries cannot split evenly into 3 classes
    b.group_check("group-nonregular-Z3", b.rng.integers(0, 3, size=(8, 8)),
                  (3,))
    # 6x7 over Z2xZ2: 42 entries cannot split evenly into 4 classes
    b.group_check("group-nonregular-Z2xZ2", b.rng.integers(0, 4, size=(6, 7)),
                  (2, 2))

    gc = b.cb.groupcomp
    for t in (8, 9):
        b.call(f"characters-Z2^{t}", "groupcomp.characters_abelian",
               (gc.AbelianGroupSpec((2,) * t),), kind="characters",
               moduli=(2,) * t)
    skewed = b.rng.permutation(np.array([[1, 1, 1, -1]] * 2 +
                                        [[1, -1, -1, -1]] * 2))
    for name, blocks in [("core4-corefree6", [CORE4, COREFREE6]),
                         ("corefree6-skewed", [COREFREE6, skewed])]:
        b.call(f"degeneration-{name}", "groupcomp.degeneration_check",
               ([b.cb.SignMatrix(m) for m in blocks],), kind="degeneration",
               blocks=blocks)

    def table(m):
        return gc.CharacterTable(m, m, char_table((m,)), list(range(m)),
                                 [1] * m)

    z2_maps = [(m == -1).astype(np.int64)
               for m in (CORE4, COREFREE6, CORE4, XOR2)]
    z3_maps = [permuted_addition_map(b.rng, (3,)) for _ in range(2)]
    u, w = b.rng.uniform(-1, 1, size=3), b.rng.uniform(-1, 1, size=3)
    for name, m, maps, fvals in [
            ("Z2x4", 2, z2_maps, builtin_table("AND", 4).astype(float)),
            # f(a1, a2) = u(a1) + w(a2) at index a1 + 3 a2: degree 1
            ("Z3x2", 3, z3_maps, (u[:, None] + w[None, :]).T.reshape(-1))]:
        gmaps = [gc.GroupMapMatrix(e, gc.AbelianGroupSpec((m,)))
                 for e in maps]
        b.call(f"block-bound-{name}", "groupcomp.block_group_bound",
               (gmaps, fvals, [table(m) for _ in maps]), kind="block_bound",
               maps=[(e, (m,)) for e in maps], fvals=fvals)


WORKLOADS = ("degree", "inner", "group")


def generate(workload: str, seed: int, root: str, cb) -> list:
    """Write the workload's input files under root and return its tasks."""
    b = _TaskList(np.random.default_rng([seed, WORKLOADS.index(workload)]),
                 _Files(root), cb)
    {"degree": degree_tasks, "inner": inner_tasks,
     "group": group_tasks}[workload](b)
    b.idle_layers(workload)
    return b.tasks
