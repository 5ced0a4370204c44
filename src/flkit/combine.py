"""Technique combination: normalized feature vectors, a pairwise max-margin
linear ranker, cross-validation, and the run-time-level presets.

The ranker is RankSVM (Joachims, KDD 2002) without a bias: over the n
(faulty, correct) training pairs with differences d_i it minimizes

    F(w) = (1/n) sum_i max(0, MARGIN - w.d_i) + L2_LAMBDA ||w||^2,

which equals 2 L2_LAMBDA (1/2 ||w||^2 + C sum_i hinge_i) with
C = 1/(2 L2_LAMBDA n). `train` solves its dual, where each distinct non-zero
difference has one variable in [0, C x its count]. WARMUP_EPOCHS epochs of
dual coordinate descent (Hsieh et al., ICML 2008, LIBLINEAR's solver), in a
fixed cyclic order, bring it near the optimum's face; a primal active-set
solve (Nocedal & Wright, ch. 16.5) then finds the optimum exactly, as OSQP's
solution polishing does (Stellato et al., 2020). A result is certified once
its projected gradients span at most TOLERANCE. If the finish does not
certify, descent goes on until they do or EPOCH_CAP epochs have run. Since
L2_LAMBDA > 0 the optimum is unique, so a model depends only on its pairs;
the seed only samples pairs and orders folds."""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from .metrics import expected_first_faulty_rank

PAIR_CAP = 50  # correct elements sampled per faulty element
L2_LAMBDA = 0.01
MARGIN = 1.0
TOLERANCE = 1e-6  # stopping bound on the projected-gradient spread
EPOCH_CAP = 20_000  # bounds coordinate descent where the exact finish fails
WARMUP_EPOCHS = 10  # coordinate-descent epochs before the exact finish
INDEPENDENCE = 1e-9  # a basis row's least squared pivot, relative to its squared norm


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    """Left-to-right dot product for every score and margin, so equal rows score
    equally on every Python version (sum() compensates rounding from 3.12)."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


@dataclass(frozen=True)
class Family:
    """A localization family, the preset level that adds it, and the optional
    FaultBundle attribute (`requires`) and corpus file (`source`) it reads."""

    name: str
    level: int
    techniques: tuple
    requires: Optional[str] = None
    source: Optional[str] = None


# Families grouped by order-of-magnitude run-time cost. The row order fixes
# the technique order, and so the feature column order training depends on.
FAMILIES = (
    Family("history", 1, ("history",), "commits", "history.json"),
    Family("stacktrace", 1, ("stacktrace",)),
    Family("ir", 1, ("ir",), "bug_report", "report.txt"),
    Family("slicing", 2, ("slice-union", "slice-intersection", "slice-frequency")),
    Family("sbfl", 2, ("ochiai", "dstar")),
    Family("predswitch", 3, ("predswitch",)),
    Family("mbfl", 4, ("metallaxis", "muse")),
)


class CombineError(Exception):
    pass


def preset_families(level: int) -> tuple:
    levels = [f.level for f in FAMILIES]
    if level not in levels:
        raise CombineError(f"unknown time level {level}; expected {min(levels)}..{max(levels)}")
    return tuple(f.name for f in FAMILIES if f.level <= level)


def preset_techniques(level: int) -> tuple:
    families = preset_families(level)
    return tuple(t for f in FAMILIES if f.name in families for t in f.techniques)


def normalize(scores: Mapping, universe: Iterable) -> dict:
    """Min-max normalize to [0, 1] over the whole element universe.

    Unscored elements count as raw 0. +inf maps to 1 and -inf to 0, and both
    are excluded from the finite range; a degenerate (constant) score vector
    maps to all zeros. A NaN score is a CombineError.
    """
    universe = list(universe)
    if not universe:
        raise CombineError("empty element universe")
    raw = {e: float(scores.get(e, 0.0)) for e in universe}
    finite = [v for v in raw.values() if math.isfinite(v)]
    out = {}
    if finite:
        lo, hi = min(finite), max(finite)
    else:
        lo = hi = 0.0
    for e, v in raw.items():
        if math.isnan(v):
            raise CombineError(f"NaN score for {e}")
        if math.isinf(v):
            out[e] = 1.0 if v > 0 else 0.0
        elif hi == lo:
            out[e] = 0.0
        elif math.isinf(hi - lo):
            # The finite range overflows a float; halved, every term fits.
            out[e] = (v / 2 - lo / 2) / (hi / 2 - lo / 2)
        else:
            out[e] = (v - lo) / (hi - lo)
    return out


@dataclass(frozen=True)
class FaultFeatures:
    """Per-fault feature matrix: one row per element, one column per technique."""

    fault_id: str
    techniques: tuple
    elements: tuple
    matrix: tuple  # one tuple of floats in [0, 1] per element, in element order
    faulty: frozenset
    project: str = ""

    def __post_init__(self):
        width = len(self.techniques)
        if len(self.matrix) != len(self.elements) or any(len(r) != width for r in self.matrix):
            raise CombineError("feature matrix shape mismatch")
        if not all(0.0 <= v <= 1.0 for row in self.matrix for v in row):
            raise CombineError("feature values must lie in [0, 1]")

    @cached_property
    def split_rows(self) -> tuple:
        """(faulty rows, correct rows), each a tuple in element order; a copy
        made by dataclasses.replace splits its own matrix."""
        faulty, correct = [], []
        for elem, row in zip(self.elements, self.matrix):
            (faulty if elem in self.faulty else correct).append(row)
        return tuple(faulty), tuple(correct)


def build_features(
    fault_id: str,
    technique_scores: Mapping[str, Mapping],
    universe: Iterable,
    faulty: Iterable,
    techniques: Sequence[str],
    project: str = "",
) -> FaultFeatures:
    universe = tuple(universe)
    missing = [t for t in techniques if t not in technique_scores]
    if missing:
        raise CombineError(f"fault {fault_id}: missing technique scores for {missing}")
    columns = [normalize(technique_scores[t], universe) for t in techniques]
    matrix = tuple(tuple(col[e] for col in columns) for e in universe)
    return FaultFeatures(
        fault_id, tuple(techniques), universe, matrix, frozenset(faulty), project
    )


def build_pairwise_constraints(
    faults: Iterable[FaultFeatures], seed: int = 0, cap: int = PAIR_CAP
) -> list:
    """(faulty row, correct row) pairs, never crossing faults.

    Each faulty element is contrasted against at most `cap` correct elements of
    the same fault, sampled with the run seed to bound pair explosion.
    """
    rng = None  # seeded on first use: only sampling draws from it
    pairs = []
    for fault in faults:
        faulty, correct = fault.split_rows
        if len(correct) > cap and rng is None:
            rng = random.Random(seed)
        for row in faulty:
            chosen = correct if len(correct) <= cap else rng.sample(correct, cap)
            pairs += [(row, other) for other in chosen]
    return pairs


@dataclass(frozen=True)
class RankModel:
    techniques: tuple
    weights: tuple  # one float per technique
    seed: int
    margin: float = MARGIN

    def __post_init__(self):
        if not self.techniques:
            raise CombineError("model has no techniques")
        if len(set(self.techniques)) != len(self.techniques):
            raise CombineError(f"model repeats a technique: {list(self.techniques)}")
        if type(self.seed) is not int:
            raise CombineError(f"model seed must be an int, got {self.seed!r}")
        if len(self.weights) != len(self.techniques):
            raise CombineError(f"model has {len(self.weights)} weights for {len(self.techniques)} techniques")
        if not all(math.isfinite(w) for w in self.weights):
            raise CombineError("model weights must be finite")

    def to_json(self) -> str:
        return json.dumps(
            {"techniques": list(self.techniques), "weights": list(self.weights), "seed": self.seed},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "RankModel":
        """Parse a saved model; any malformed text raises CombineError."""
        try:
            data = json.loads(text)
            return cls(
                tuple(data["techniques"]), tuple(float(w) for w in data["weights"]), data["seed"]
            )
        except json.JSONDecodeError as exc:
            raise CombineError(f"model file is not JSON: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise CombineError(f"malformed model file: {type(exc).__name__} {exc}") from None


def train(pairs: Sequence, techniques: Sequence[str], seed: int = 0) -> RankModel:
    """Minimize mean hinge(MARGIN - w.(x_faulty - x_correct)) + L2_LAMBDA ||w||^2.

    The problem is solved in its dual, with C = 1/(2 L2_LAMBDA n) for n pairs.
    Identical differences share one dual variable bounded by C x their count;
    all-zero differences are dropped, since their hinge is a constant
    MARGIN. Starting from w = 0, coordinate descent visits the remaining
    differences in order of first appearance, once per epoch. After
    WARMUP_EPOCHS epochs, or an earlier epoch whose projected gradients (and
    0) span at most TOLERANCE, the exact finish of `_solve` runs once and
    returns the optimum, certified by the same test. If it fails, descent
    goes on until that test passes; if EPOCH_CAP epochs pass first, the last
    iterate is returned uncertified: w = sum_j alpha_j d_j for the feasible
    dual point the cap stopped at. `seed` is only recorded in the model.
    """
    if not pairs:
        raise CombineError("no training pairs")
    dim = len(techniques)
    counts: dict = {}
    for f, c in pairs:
        if len(f) != dim or len(c) != dim:
            raise CombineError("pair dimension does not match technique count")
        d = tuple(map(operator.sub, f, c))
        counts[d] = counts.get(d, 0) + 1
    if not all(map(math.isfinite, chain.from_iterable(counts))):
        raise CombineError("pair values must be finite")
    rows, bounds = [], []
    scale = 2.0 * L2_LAMBDA * len(pairs)
    for d, count in counts.items():
        row = [(j, v) for j, v in enumerate(d) if v]
        if row:
            rows.append(row)
            bounds.append(count / scale)
    w, _gap = _solve(rows, bounds, dim)
    return RankModel(tuple(techniques), tuple(w), seed)


def _solve(rows: list, bounds: list, dim: int) -> tuple:
    """Dual coordinate descent for the bias-free hinge SVM, finished exactly.

    `rows` are sparse (column, value) lists, none empty; `bounds` are their
    dual upper bounds. Returns (w, gap): the weight list and the spread of
    the projected gradients, taken together with 0, so every |projected
    gradient| is at most gap. After WARMUP_EPOCHS epochs, or at an earlier
    stop, `_finish` makes one exact attempt from a copy of the iterate; if it
    fails, descent goes on from the iterate. Sums run left to right, as in
    `_dot`, so the weights do not depend on the Python version.
    """
    w = [0.0] * dim
    alpha = [0.0] * len(rows)
    coords = []
    for j, (row, bound) in enumerate(zip(rows, bounds)):
        q = 0.0
        for _, v in row:
            q += v * v
        coords.append((j, row, bound, q))
    gap = math.inf
    for epoch in range(1, EPOCH_CAP + 1):
        hi = lo = 0.0
        for j, row, bound, q in coords:
            g = -MARGIN
            for col, v in row:
                g += w[col] * v
            # The projected gradient is g, or 0 where g pushes alpha[j]
            # against the bound it sits on; then there is nothing to do.
            a = alpha[j]
            if g < 0.0:
                if a == bound:
                    continue
                if g < lo:
                    lo = g
            elif g > 0.0:
                if a == 0.0:
                    continue
                if g > hi:
                    hi = g
            else:
                continue
            new = a - g / q
            if new < 0.0:
                new = 0.0
            elif new > bound:
                new = bound
            step = new - a
            alpha[j] = new
            for col, v in row:
                w[col] += step * v
        gap = hi - lo
        if epoch <= WARMUP_EPOCHS and (gap <= TOLERANCE or epoch == WARMUP_EPOCHS):
            exact = _finish(rows, bounds, dim, alpha[:])
            if exact is not None:
                return exact
        if gap <= TOLERANCE:
            break
    return w, gap


def _finish(rows: list, bounds: list, dim: int, alpha: list) -> Optional[tuple]:
    """Primal active-set solve (Nocedal & Wright, ch. 16.5) of the dual
    min 1/2 ||sum_j alpha_j d_j||^2 - MARGIN sum_j alpha_j, 0 <= alpha_j <= bound_j,
    from the feasible `alpha`, which it overwrites.

    The free set starts as the strictly free alpha. Each iteration takes, in
    index order, the free rows independent of those before them (the basis,
    by incremental Cholesky of their Gram matrix) and makes the Newton step
    that zeroes their gradients with every other alpha fixed, cut at the
    first bound it meets, which fixes that alpha. After a full step it
    returns (w, gap) if the projected gradients at w = sum_j alpha_j d_j span
    at most TOLERANCE, the test of `_solve`. Otherwise it takes the alpha with
    the worst projected gradient: a fixed one is freed, and a free one in the
    basis' span moves against its gradient, with the basis moving so that w
    stays put, until a bound blocks. It returns None after 2 x len(rows) + dim
    iterations.
    """
    dense = []
    for row in rows:
        d = [0.0] * dim
        for col, v in row:
            d[col] = v
        dense.append(d)
    free = [j for j, a in enumerate(alpha) if 0.0 < a < bounds[j]]
    w, grads = _gradients(rows, alpha, dim)
    for _ in range(2 * len(rows) + dim):
        basis, factor, spans = [], [], {}
        for k in free:
            # Row k of the Cholesky factor solves L l = (d_s . d_k) over the basis.
            l = _forward_solve(factor, [_dot(dense[s], dense[k]) for s in basis])
            norm = _dot(dense[k], dense[k])
            pivot = norm
            for x in l:
                pivot -= x * x
            if pivot > INDEPENDENCE * norm:
                l.append(math.sqrt(pivot))
                factor.append(l)
                basis.append(k)
            else:
                spans[k] = l
        step = _back_solve(factor, _forward_solve(factor, [-grads[s] for s in basis]))
        blocker = _advance(basis, step, alpha, bounds, 1.0)
        w, grads = _gradients(rows, alpha, dim)
        if blocker is not None:
            free.remove(blocker)
            continue
        hi = lo = 0.0
        for j, g in enumerate(grads):
            if g < lo and alpha[j] != bounds[j]:
                lo, low = g, j
            elif g > hi and alpha[j] != 0.0:
                hi, high = g, j
        if hi - lo <= TOLERANCE:
            return w, hi - lo
        worst = high if hi >= -lo else low
        if worst in spans:
            # d_worst = sum_s c_s d_s over the basis, so raising alpha_worst by
            # t and lowering each alpha_s by t c_s keeps w, and every gradient.
            sign = 1.0 if grads[worst] < 0.0 else -1.0
            coords = [worst] + basis
            direction = [sign] + [-sign * c for c in _back_solve(factor, spans[worst])]
            free.remove(_advance(coords, direction, alpha, bounds, math.inf))
            w, grads = _gradients(rows, alpha, dim)
        elif worst not in free:
            free.append(worst)
            free.sort()
        # A basis row is left to the next Newton step, which refines it.
    return None


def _gradients(rows: list, alpha: list, dim: int) -> tuple:
    """w = sum_j alpha_j d_j and every gradient d_j . w - MARGIN."""
    w = [0.0] * dim
    for row, a in zip(rows, alpha):
        if a:
            for col, v in row:
                w[col] += a * v
    grads = []
    for row in rows:
        g = -MARGIN
        for col, v in row:
            g += w[col] * v
        grads.append(g)
    return w, grads


def _advance(coords: list, direction: list, alpha: list, bounds: list, limit: float):
    """Move alpha[coords] by t x direction for the largest t <= limit that
    keeps every alpha in its box. Returns the first coordinate whose bound
    cut the step, set exactly to that bound, or None."""
    t, blocker = limit, None
    for s, p in zip(coords, direction):
        if p < 0.0:
            ts = alpha[s] / -p
        elif p > 0.0:
            ts = (bounds[s] - alpha[s]) / p
        else:
            continue
        if ts < t or (ts == t and blocker is None):
            t, blocker, edge = ts, s, 0.0 if p < 0.0 else bounds[s]
    for s, p in zip(coords, direction):
        alpha[s] += t * p
    if blocker is not None:
        alpha[blocker] = edge
    return blocker


def _forward_solve(factor: list, rhs: list) -> list:
    """Solve L y = rhs for the lower-triangular rows `factor`."""
    y = []
    for i, li in enumerate(factor):
        x = rhs[i]
        for m in range(i):
            x -= li[m] * y[m]
        y.append(x / li[i])
    return y


def _back_solve(factor: list, y: list) -> list:
    """Solve L^T x = y for the lower-triangular rows `factor`."""
    x = [0.0] * len(y)
    for i in range(len(y) - 1, -1, -1):
        v = y[i]
        for m in range(i + 1, len(y)):
            v -= factor[m][i] * x[m]
        x[i] = v / factor[i][i]
    return x


def violations(model: RankModel, pairs: Sequence) -> int:
    """Pairwise constraints where the faulty element does not outscore the correct one."""
    count = 0
    for f, c in pairs:
        if _dot(model.weights, f) <= _dot(model.weights, c):
            count += 1
    return count


def predict(model: RankModel, features: FaultFeatures) -> dict:
    if features.techniques != model.techniques:
        raise CombineError(
            f"feature techniques {features.techniques} do not match model {model.techniques}"
        )
    return {e: _dot(row, model.weights) for e, row in zip(features.elements, features.matrix)}


def combined_e_inspect(model: RankModel, fault: FaultFeatures) -> Fraction:
    return expected_first_faulty_rank(predict(model, fault), fault.faulty)


def kfold_cv(faults: Sequence[FaultFeatures], k: int = 10, seed: int = 0) -> dict:
    """Seeded k-fold cross-validation; returns fault_id -> E_inspect (exact)."""
    faults = list(faults)
    if k < 2:
        raise CombineError(f"k-fold cross-validation needs k >= 2, got k={k}")
    if len(faults) < k:
        raise CombineError(f"need at least k={k} faults, got {len(faults)}")
    order = list(range(len(faults)))
    random.Random(seed).shuffle(order)
    return _cross_validate(faults, [order[i::k] for i in range(k)], seed)


def cross_project_cv(faults: Sequence[FaultFeatures], seed: int = 0) -> dict:
    """Leave-one-project-out cross-validation; returns fault_id -> E_inspect."""
    faults = list(faults)
    projects = sorted({f.project for f in faults})
    if len(projects) < 2:
        raise CombineError("cross-project validation needs at least two projects")
    folds = [[i for i, f in enumerate(faults) if f.project == p] for p in projects]
    return _cross_validate(faults, folds, seed)


def _cross_validate(faults: list, folds: list, seed: int) -> dict:
    """Per fold (a list of indices into `faults`), train on the other faults
    and score the fold's; results are in fold order."""
    results = {}
    for fold in folds:
        train_faults = [f for i, f in enumerate(faults) if i not in fold]
        pairs = build_pairwise_constraints(train_faults, seed=seed)
        model = train(pairs, faults[0].techniques, seed=seed)
        for i in fold:
            results[faults[i].fault_id] = combined_e_inspect(model, faults[i])
    return results
