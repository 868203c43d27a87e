"""Seeded input generator for the conormal benchmark.

    python3 perfbench/gen.py --workload decide --seed 1 --seconds 25

prints one JSON object on stdout: ``germs`` maps a germ id to germ-file text
(``ring``/``gen``/``flag``/``form``/``param`` lines) and ``ops`` is the fixed,
shuffled op list.  Every op carries the answer it must get, known by
construction and never by running the decision under test:

* "yes" conormal forms are polynomial combinations of the trivial forms
  ``f_j*dx_S`` and ``df_j ^ dx_T`` (built here from partial derivatives),
  plus multiples of the corpus's conormal forms; "yes" fields are
  combinations of the weighted Euler field, the Jacobian-minor fields and
  ``f_j * d/dx_i``.
* "no" forms and fields carry a rational regular point p of X at which the
  form does not vanish on T_pX (``omega ^ df_1 ^ ... ^ df_m`` is nonzero at
  p) or the field is not tangent.  The check uses ``conormal.poly.evaluate``
  and ``partial_derivative`` only.
* hyperplane sections of a quasi-homogeneous surface f with weights w are
  decided by a univariate argument: by Euler's identity, a regular point of
  X where H = {h.x = 0} is tangent lies on the line spanned by
  q = h x (w*h), so tangency is a common nonzero root of f(tq) and the 2x2
  minors of (grad f(tq), h), found by a univariate gcd over Q.

Every germ is a quasi-homogeneous cone (all components pass through 0), so
the polynomial-ring answer is also the answer at the germ.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conormal.cli import parse_germ_text  # noqa: E402
from conormal.geometry import random_hyperplane  # noqa: E402
from conormal.poly import (  # noqa: E402
    Polynomial,
    PolynomialRing,
    evaluate,
    parse_polynomial,
    partial_derivative,
)

XYZ = "x y z"
XYZT = "x y z t"
ABCDE = "a b c d e"

# name -> (variables, generators, weights); every generator is
# weighted-homogeneous for the weights (checked in Family.__init__).
FAMILIES = {
    "A2": (XYZ, ["x*y - z^3"], (1, 5, 2)),
    "A4": (XYZ, ["x*y - z^5"], (1, 9, 2)),
    "A6": (XYZ, ["x*y - z^7"], (1, 13, 2)),
    "D4": (XYZ, ["x^2 + y^2*z + z^3"], (3, 2, 2)),
    "D5": (XYZ, ["x^2 + y^2*z + z^4"], (4, 3, 2)),
    "D6": (XYZ, ["x^2 + y^2*z + z^5"], (5, 4, 2)),
    "E6": (XYZ, ["x^2 + y^3 + z^4"], (6, 4, 3)),
    "E7": (XYZ, ["x^2 + y^3 + y*z^3"], (9, 6, 4)),
    "E8": (XYZ, ["x^2 + y^3 + z^5"], (15, 10, 6)),
    "BP237": (XYZ, ["x^2 + y^3 + z^7"], (21, 14, 6)),
    "BP456": (XYZ, ["x^4 + y^5 + z^6"], (15, 12, 10)),
    "U2": (XYZ, ["z^2 - x^2*y^2"], (2, 1, 3)),
    "U3": (XYZ, ["z^2 - x^3*y^2"], (2, 1, 4)),
    "U4": (XYZ, ["z^2 - x^4*y^2"], (2, 1, 5)),
    "CI4a": (XYZT, ["x*y - z*t", "x*t - y^2"], (1, 1, 1, 1)),
    "CI4b": (XYZT, ["x*y - z^2", "z*t - x^3"], (1, 3, 2, 1)),
    "CI4c": (XYZT, ["x*t - y*z", "x^2 + y*t - z^2"], (1, 1, 1, 1)),
    "CI5a": (ABCDE, ["a*d - b*c", "a*e - c^2 + b^3"], (1, 2, 3, 4, 5)),
    "CI5b": (ABCDE, ["a*b - c*d", "a*e - d^2"], (1, 1, 1, 1, 1)),
}
# The bundled corpus, with weights that make each generator quasi-homogeneous.
CORPUS = {
    "coordinate_subspace": (1, 1, 1, 1),
    "cusp3": (1, 1, 2),
    "segre": (1, 1, 1, 1),
    "umbrella": (2, 1, 2),
}
# Positive-dimensional components of Sing X, as rational directions of lines.
SING_LINES = {
    "U2": [(1, 0, 0), (0, 1, 0)],
    "U3": [(1, 0, 0), (0, 1, 0)],
    "U4": [(1, 0, 0), (0, 1, 0)],
}
# Umbrella-type parametrizations (u, v) -> (u^2, v, u^k*v).
PARAMS = {"U2": "u v -> u^2, v, u^2*v", "U3": "u v -> u^2, v, u^3*v", "U4": "u v -> u^2, v, u^4*v"}

DECIDE_POOL = [
    "coordinate_subspace", "cusp3", "segre", "umbrella",
    "A2", "A4", "D4", "D5", "E6", "E7", "E8", "BP237", "U2", "U3",
    "CI4a", "CI4c", "CI5b",
]
# (germ, k) classes for is_trivial_form; each costs 10..300 ms per op.
TRIVIAL_CLASSES = [("CI4a", 2), ("CI4b", 2), ("CI4c", 3), ("CI5a", 1), ("CI5b", 4)]
SECTION_POOL = ["A2", "A4", "A6", "D4", "D5", "D6", "E6", "U2", "U3", "U4", "cusp3", "BP456"]

# Ops per second of --seconds for each workload, sized on a 2-core x86
# sandbox with Python 3.11: trivial and sections ops take about --seconds,
# decide ops about half of it, since its set-up parses as much text as the
# ops decide and runs 3 times.
OPS_PER_SECOND = {"decide": 450, "trivial": 10, "sections": 9}
MIN_OPS = {"decide": 40, "trivial": 10, "sections": 6}


class Family:
    """A germ with generators, weights and a few rational regular points."""

    def __init__(self, name, variables, gens, weights, forms=(), sing_lines=(), param=None):
        self.name = name
        self.ring = PolynomialRing(variables.split())
        self.gens = gens
        self.weights = tuple(weights)
        self.forms = list(forms)  # known conormal forms (degree, {index tuple: coefficient})
        self.sing_lines = list(sing_lines)
        self.param = param
        n = self.ring.nvars
        self.dim = n - len(gens)
        self.grads = [[partial_derivative(f, i) for i in range(n)] for f in gens]
        for f in gens:
            degrees = {sum(w * e for w, e in zip(self.weights, m)) for m in f.terms}
            if len(degrees) != 1:
                raise ValueError(f"{name}: {f} is not quasi-homogeneous for {self.weights}")
        self.points = self._regular_points()

    def _regular_points(self, limit=12):
        n = self.ring.nvars
        found = []
        box = range(-2, 3)
        for p in product(box, repeat=n):
            if not any(p) or any(evaluate(f, p) for f in self.gens):
                continue
            jac = [[evaluate(g, p) for g in row] for row in self.grads]
            if _rank(jac) == len(self.gens):
                found.append(p)
                if len(found) == limit:
                    break
        if not found:
            raise ValueError(f"{self.name}: no rational regular point found")
        return found

    def germ_text(self, forms=(), param=False):
        lines = ["ring " + " ".join(self.ring.variables)]
        lines += [f"gen {f}" for f in self.gens]
        if len(self.gens) == 1:
            lines.append("flag hypersurface")
        lines.append("flag complete_intersection")
        lines += [f"form {name} {text}" for name, text in forms]
        if param and self.param:
            lines.append(f"param {self.param}")
        return "\n".join(lines) + "\n"


def _rank(rows):
    m = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def load_family(name):
    if name in CORPUS:
        text = (ROOT / "src" / "conormal" / "corpus" / f"{name}.germ").read_text()
        gf = parse_germ_text(text, source=name)
        ring = gf.germ.ring
        forms = [(parts[0].degree, dict(parts[0].coefficients()))
                 for parts in gf.forms.values() if len(parts) == 1]
        return Family(name, " ".join(ring.variables), list(gf.germ.generators),
                      CORPUS[name], forms=forms)
    variables, gens, weights = FAMILIES[name]
    ring = PolynomialRing(variables.split())
    return Family(name, variables, [parse_polynomial(g, ring) for g in gens], weights,
                  sing_lines=SING_LINES.get(name, ()), param=PARAMS.get(name))


# ---- polynomial and form construction ---------------------------------------------


def rand_poly(ring, rng, max_deg, nterms, allow_zero=False):
    n = ring.nvars
    while True:
        terms = {}
        for _ in range(nterms):
            exps = [0] * n
            for _ in range(rng.randint(0, max_deg)):
                exps[rng.randrange(n)] += 1
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
        p = Polynomial(ring, terms)
        if p or allow_zero:
            return p


def _add_term(form, idx, coeff):
    total = form.get(idx, coeff.ring.zero) + coeff
    if total:
        form[idx] = total
    else:
        form.pop(idx, None)


@functools.lru_cache(maxsize=None)
def trivial_generators(fam, k):
    """f_j dx_S and df_j ^ dx_T as dicts {index tuple: coefficient}."""
    n = fam.ring.nvars
    out = []
    for f in fam.gens:
        out += [{S: f} for S in combinations(range(n), k)]
    for grad in fam.grads:
        for T in combinations(range(n), k - 1):
            form = {}
            for i in range(n):
                if i in T or not grad[i]:
                    continue
                sign = -1 if sum(1 for t in T if t < i) % 2 else 1
                _add_term(form, tuple(sorted(T + (i,))), grad[i].scale(sign))
            if form:
                out.append(form)
    return out


def combine(pieces):
    """sum of coeff * form over (coeff, form) pairs."""
    out = {}
    for coeff, form in pieces:
        for idx, c in form.items():
            _add_term(out, idx, coeff * c)
    return out


def _form_text(ring, form):
    return " + ".join(
        f"({c})*" + "*".join("d" + ring.variables[i] for i in idx) for idx, c in sorted(form.items())
    )


# ---- witnesses: exact arithmetic at rational points ---------------------------------


def _num_wedge(a, b):
    out = {}
    for s, x in a.items():
        for t, y in b.items():
            if set(s) & set(t):
                continue
            inversions = sum(1 for i in s for j in t if i > j)
            key = tuple(sorted(s + t))
            out[key] = out.get(key, 0) + (-x * y if inversions % 2 else x * y)
    return {k: v for k, v in out.items() if v}


def form_fails_at(fam, form, p):
    """Whether omega restricted to T_pX is nonzero at the regular point p."""
    value = {idx: evaluate(c, p) for idx, c in form.items()}
    for grad in fam.grads:
        value = _num_wedge(value, {(i,): evaluate(g, p) for i, g in enumerate(grad) if g})
    return bool(value)


def field_fails_at(fam, field, p):
    """Whether V(f_j)(p) != 0 for some generator f_j."""
    vals = [evaluate(c, p) for c in field]
    return any(sum(v * evaluate(g, p) for v, g in zip(vals, grad)) for grad in fam.grads)


def find_witness(fam, fails):
    """The first stored regular point where `fails` holds, as strings, or None."""
    return next(([str(x) for x in p] for p in fam.points if fails(p)), None)


# ---- tangent vector fields --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def tangent_generators(fam):
    ring = fam.ring
    n = ring.nvars
    zero = ring.zero
    euler = [ring.var(i).scale(w) for i, w in enumerate(fam.weights)]
    out = [euler]
    m = len(fam.gens)
    for cols in combinations(range(n), m + 1):
        field = [zero] * n
        for pos, i in enumerate(cols):
            rest = [c for c in cols if c != i]
            if m == 1:
                minor = fam.grads[0][rest[0]]
            else:
                g1, g2 = fam.grads
                minor = g1[rest[0]] * g2[rest[1]] - g1[rest[1]] * g2[rest[0]]
            field[i] = minor if pos % 2 == 0 else -minor
        if any(field):
            out.append(field)
    for f in fam.gens:
        for i in range(n):
            out.append([f if j == i else zero for j in range(n)])
    return out


# ---- hyperplane sections: univariate reference -------------------------------------


def _upoly(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _on_line(p, q):
    """Coefficients (ascending in t) of p(t*q)."""
    out = {}
    for exps, c in p.terms.items():
        v = c
        for qi, e in zip(q, exps):
            v *= Fraction(qi) ** e
        d = sum(exps)
        out[d] = out.get(d, 0) + v
    top = max(out, default=-1)
    return _upoly([Fraction(out.get(d, 0)) for d in range(top + 1)])


def _umod(a, b):
    a = list(a)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        _upoly(a)
        if not a:
            break
    return a


def _ugcd(a, b):
    a, b = _upoly(list(a)), _upoly(list(b))
    while b:
        a, b = b, _umod(a, b)
    return [c / a[-1] for c in a] if a else []


def _strip_t(a):
    i = 0
    while i < len(a) and a[i] == 0:
        i += 1
    return a[i:]


def _uderiv(a):
    return _upoly([i * c for i, c in enumerate(a)][1:])


def _udiv(a, b):
    a, quotient = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        quotient[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        _upoly(a)
    return quotient


def section_confirms(fam, normal):
    """Whether bertini_check must answer ConfirmsTheorem for H = {normal.x = 0}.

    It must exactly when H contains no line of Sing X and H is tangent to X
    at no regular point; otherwise it must answer TransversalityFails.
    """
    h = list(normal)
    if any(sum(a * b for a, b in zip(h, line)) == 0 for line in fam.sing_lines):
        return False
    wh = [w * x for w, x in zip(fam.weights, h)]
    q = [h[1] * wh[2] - h[2] * wh[1], h[2] * wh[0] - h[0] * wh[2], h[0] * wh[1] - h[1] * wh[0]]
    grad = [_on_line(g, q) for g in fam.grads[0]]
    polys = [_on_line(fam.gens[0], q)]
    for i, j in combinations(range(3), 2):
        minor = [Fraction(0)] * max(len(grad[i]), len(grad[j]))
        for d, c in enumerate(grad[i]):
            minor[d] += c * h[j]
        for d, c in enumerate(grad[j]):
            minor[d] -= c * h[i]
        polys.append(_upoly(minor))
    common = []
    for p in polys:
        common = _ugcd(common, p)
    if not common:
        return False  # tangent along the whole line t*q
    common = _strip_t(common)  # only points t*q with t != 0
    if len(common) <= 1:
        return True
    squarefree = _udiv(common, _ugcd(common, _uderiv(common)))
    singular = squarefree
    for g in grad:
        singular = _ugcd(singular, g)
    return len(_udiv(squarefree, singular)) <= 1


def _degenerate(fam, normal):
    # Euler's identity only pins tangency to a line when w*h is not parallel
    # to h, i.e. when h has nonzero entries of two different weights.
    return len({w for w, x in zip(fam.weights, normal) if x}) < 2


# ---- workloads ------------------------------------------------------------------


def gen_decide(rng, n_ops):
    fams = {name: load_family(name) for name in DECIDE_POOL}
    forms = {name: [] for name in fams}
    ops = []
    for i in range(n_ops):
        name = DECIDE_POOL[i % len(DECIDE_POOL)]
        fam = fams[name]
        want_yes = rng.random() < 0.75
        expect = "CertifiedYes" if want_yes else "CertifiedNo"
        if rng.random() < 0.75:
            # a k-form with k > dim X vanishes on every tangent space
            k = rng.randint(1, fam.ring.nvars - 1 if want_yes else fam.dim)
            label = f"f{len(forms[name])}"
            text, witness = _conormal_form(fam, k, rng, want_yes)
            forms[name].append((label, text))
            op = {"kind": "conormal", "germ": name, "input": label, "class": f"{name}/k{k}"}
        else:
            text, witness = _tangent_field(fam, rng, want_yes)
            op = {"kind": "tangent", "germ": name, "input": text, "class": f"{name}/field"}
        ops.append(_with_answer(op, expect, witness))
    germs = {name: fams[name].germ_text(forms[name]) for name in fams}
    return germs, ops


def _with_answer(op, expect, witness):
    op["expect"] = expect
    if witness is not None:
        op["witness"] = witness  # the point of X that refutes the claim
    return op


def _pieces_text(ring, pieces):
    """sum of coeff * form, left unexpanded: the parser multiplies it out."""
    return " + ".join(f"({c})*({_form_text(ring, form)})" for c, form in pieces)


def _trivial_pieces(fam, k, rng, max_deg, count):
    gens = trivial_generators(fam, k)
    while True:
        pieces = [(rand_poly(fam.ring, rng, max_deg, 3), rng.choice(gens)) for _ in range(count)]
        known = [form for deg, form in fam.forms if deg == k]
        if known and rng.random() < 0.5:
            pieces.append((rand_poly(fam.ring, rng, max_deg, 3), rng.choice(known)))
        if combine(pieces):
            return pieces


def _conormal_form(fam, k, rng, want_yes):
    """(text, witness) of a k-form that is conormal (want_yes; witness None)
    or fails at the regular point witness."""
    ring = fam.ring
    if want_yes:
        return _pieces_text(ring, _trivial_pieces(fam, k, rng, 2, rng.randint(1, 3))), None
    idxs = list(combinations(range(ring.nvars), k))
    while True:
        form = {}
        for _ in range(rng.randint(1, 2)):
            _add_term(form, rng.choice(idxs), rand_poly(ring, rng, 1, 2))
        witness = form and find_witness(fam, lambda p: form_fails_at(fam, form, p))
        if witness:
            return _form_text(ring, form), witness


def _tangent_field(fam, rng, want_yes):
    """(text, witness) of a field that is tangent (want_yes; witness None) or
    fails at the regular point witness."""
    ring = fam.ring
    n = ring.nvars
    if want_yes:
        gens = tangent_generators(fam)
        while True:
            pieces = [(rand_poly(ring, rng, 2, 3), rng.choice(gens)) for _ in range(rng.randint(1, 3))]
            field = [sum((c * g[i] for c, g in pieces), ring.zero) for i in range(n)]
            if any(field):
                return ", ".join(
                    " + ".join(f"({c})*({g[i]})" for c, g in pieces if g[i]) or "0" for i in range(n)
                ), None
    while True:
        field = [rand_poly(ring, rng, 1, 1, allow_zero=True) for _ in range(n)]
        witness = find_witness(fam, lambda p: field_fails_at(fam, field, p))
        if witness:
            return ", ".join(str(c) for c in field), witness


def gen_trivial(rng, n_ops):
    fams = {name: load_family(name) for name in {g for g, _ in TRIVIAL_CLASSES}}
    forms = {name: [] for name in fams}
    ops = []
    for i in range(n_ops):
        name, k = TRIVIAL_CLASSES[i % len(TRIVIAL_CLASSES)]
        fam = fams[name]
        want_yes = i // len(TRIVIAL_CLASSES) % 2 == 0
        if want_yes:
            text, witness = _pieces_text(fam.ring, _trivial_pieces(fam, k, rng, 1, rng.randint(2, 3))), None
        elif k > fam.dim:
            text, witness = _nonzero_at_origin(fam, k, rng)
        else:
            text, witness = _conormal_form(fam, k, rng, want_yes=False)
        label = f"f{len(forms[name])}"
        forms[name].append((label, text))
        op = {"kind": "trivial", "germ": name, "input": label, "class": f"{name}/k{k}"}
        ops.append(_with_answer(op, want_yes, witness))
    germs = {name: fams[name].germ_text(forms[name]) for name in fams}
    return germs, ops


def _nonzero_at_origin(fam, k, rng):
    """A trivial combination plus a constant term.  Every trivial form
    vanishes at 0 when all df_j(0) are 0, so a form that does not is outside
    the differential ideal."""
    ring = fam.ring
    origin = (0,) * ring.nvars
    if any(evaluate(g, origin) for row in fam.grads for g in row):
        raise ValueError(f"{fam.name}: generators are not singular at 0")
    idx = rng.choice(list(combinations(range(ring.nvars), k)))
    while True:
        pieces = _trivial_pieces(fam, k, rng, 1, rng.randint(2, 3))
        pieces.append((ring.const(rng.choice([-2, -1, 1, 2])), {idx: ring.one}))
        if any(evaluate(c, origin) for c in combine(pieces).values()):
            return _pieces_text(ring, pieces), ["0"] * ring.nvars


def gen_sections(rng, n_ops):
    fams = {name: load_family(name) for name in SECTION_POOL}
    ops = []
    for i in range(n_ops):
        name = SECTION_POOL[i % len(SECTION_POOL)]
        fam = fams[name]
        while True:
            hyperplane = random_hyperplane(fam.ring, rng.randrange(2**31), 10)
            if not _degenerate(fam, hyperplane.normal):
                break
        text = str(hyperplane.linear_form())
        use_param = fam.param is not None and i // len(SECTION_POOL) % 2 == 0
        expect = "ConfirmsTheorem" if section_confirms(fam, hyperplane.normal) else "TransversalityFails"
        ops.append({"kind": "section", "germ": name, "input": text, "param": use_param,
                    "class": name, "expect": expect})
    germs = {name: fams[name].germ_text(param=True) for name in fams}
    return germs, ops


GENERATORS = {"decide": gen_decide, "trivial": gen_trivial, "sections": gen_sections}


def op_count(workload, seconds):
    return max(MIN_OPS[workload], math.ceil(OPS_PER_SECOND[workload] * seconds))


def generate(workload, seed, seconds):
    rng = random.Random(f"{workload}:{seed}")
    germs, ops = GENERATORS[workload](rng, op_count(workload, seconds))
    rng.shuffle(ops)
    return {"workload": workload, "seed": seed, "germs": germs, "ops": ops}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    json.dump(generate(args.workload, args.seed, args.seconds), sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
