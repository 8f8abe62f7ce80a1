"""The three benchmark workloads: request streams, the timed call, the check.

Every workload is a closed loop with one client: the worker sends a
request, waits for it, checks it, then sends the next.  A request stream is
an infinite generator seeded from the workload seed.  It cycles through a
fixed catalogue of request shapes (type, order, precision, size class) in
a fresh seeded order each cycle, and the seed draws the values inside each
shape, so every seed gives different inputs with the same cost profile
and the cost profile of a run depends little on the seed.  ``execute`` is the only timed part;
``check`` runs afterwards and uses :mod:`exact`, never fiblike, so a wrong
result is caught by a route independent of the layer under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import exact

IDENTITIES = (
    "canonical",
    "knacci-like",
    "horadam-like",
    "periodic2",
    "periodic2-edson",
    "swap",
    "periodic3",
    "periodic-k",
)


@dataclass
class Request:
    kind: str
    params: dict


class Workload:
    name = ""

    def requests(self, rng) -> Iterator[Request]:
        raise NotImplementedError

    def warmup(self, rng) -> list[Request]:
        raise NotImplementedError

    def execute(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request, result) -> Optional[str]:
        """None when ``result`` is right, else the reason it is not."""
        raise NotImplementedError


def _cycle(rng, shapes: list) -> Iterator:
    """The catalogue of shapes over and over, shuffled anew each time."""
    while True:
        order = list(shapes)
        rng.shuffle(order)
        yield from order


def _inits(rng, k: int, top: int = 9) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(0, top)) for _ in range(k - 1)) + (Fraction(rng.randint(1, top)),)


def _ordered(rng, k: int) -> tuple[Fraction, ...]:
    """Wu-Zhang ordered coefficients q1 >= ... >= qk >= 1."""
    return tuple(Fraction(q) for q in sorted((rng.randint(1, 5) for _ in range(k)), reverse=True))


def _rel_close(a: Fraction, b: Fraction, digits: int) -> bool:
    return abs(a - b) <= Fraction(1, 10**digits) * max(1, abs(b))


# ------------------------------------------------------ identity-sweep ----


def _parse_params(text: str) -> dict:
    """``"leading=1/2,3 inits=0,1"`` as printed by ``verify`` -> Fractions."""
    out = {}
    for item in text.split():
        key, value = item.split("=", 1)
        out[key] = tuple(Fraction(v) for v in value.split(","))
    return out


def check_verify(identity: str, trials: int, lo: int, hi: int, code: int, text: str) -> Optional[str]:
    """Check ``verify --output json`` for a range that needs no clamping.

    Every printed formula is a theorem, so it must hold with exactly
    trials * range checks.  periodic-k's two variants are re-adjudicated by
    the benchmark's own brute force, case by case.
    """
    if code != 0:
        return f"verify exited {code}"
    payload = json.loads(text)
    formulas = ["printed", "shift-from-zero"] if identity == "periodic-k" else ["printed"]
    if payload["identity"] != identity or sorted(payload["verdicts"]) != sorted(formulas):
        return "wrong identity or formula set"
    if len(payload["cases"]) != trials:
        return f"{len(payload['cases'])} cases, expected {trials}"
    width = hi - lo + 1
    refuted = dict.fromkeys(formulas, False)
    for case in payload["cases"]:
        if (case["n_lo"], case["n_hi"]) != (lo, hi):
            return "index range was altered"
        for formula in formulas:
            if case["results"][formula]["checks"] != width:
                return f"{formula}: {case['results'][formula]['checks']} checks, expected {width}"
        if identity == "periodic-k":
            params = _parse_params(case["params"])
            for formula, offset in (("printed", 1), ("shift-from-zero", 0)):
                own = exact.periodic_k_failures(params["leading"], params["inits"], lo, hi, offset)
                res = case["results"][formula]
                first = res["first_counterexample"]
                if res["failures"] != len(own) or (first["n"] if first else None) != (own[0] if own else None):
                    return f"{formula}: failures disagree with brute force on {case['params']}"
                refuted[formula] |= bool(own)
    for formula in formulas:
        if payload["totals"][formula]["checks"] != trials * width:
            return f"{formula}: total checks != trials * range"
        expected = "refuted" if refuted[formula] else "holds"
        if payload["verdicts"][formula] != expected:
            return f"{formula}: verdict {payload['verdicts'][formula]}, expected {expected}"
    if payload["all_hold"] is not True:
        return "printed formula reported as failing"
    return None


class IdentitySweep(Workload):
    """In-process ``verify`` over all identities (criteria 2-4 and 10)."""

    name = "identity-sweep"
    trials = 2
    shapes = [(identity, size) for identity in IDENTITIES for size in range(5)]

    def __init__(self) -> None:
        from fiblike import cli

        self.cli = cli

    def _request(self, rng, identity: str, lo: int, hi: int) -> Request:
        return Request(identity, {"seed": rng.randrange(1 << 31), "lo": lo, "hi": hi})

    def requests(self, rng):
        for identity, size in _cycle(rng, self.shapes):
            lo = 6 + 7 * size + rng.randint(0, 6)  # >= every identity's minimum index: no clamping
            yield self._request(rng, identity, lo, lo + rng.randint(16, 32))

    def warmup(self, rng):
        return [self._request(rng, identity, 6, 12) for identity in IDENTITIES]

    def execute(self, req):
        p = req.params
        argv = ["verify", req.kind, "--trials", str(self.trials), "--seed", str(p["seed"]),
                "--n", f"{p['lo']}..{p['hi']}", "--output", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def check(self, req, result):
        return check_verify(req.kind, self.trials, req.params["lo"], req.params["hi"], *result)


# ---------------------------------------------------------- deep-terms ----


class DeepTerms(Workload):
    """One-shot deep terms and prefixes on fresh random specs (criterion 9)."""

    name = "deep-terms"
    # Per request type, 70 shapes pair every k in 2..8 with every tenth of
    # the log-n range; 18 of them are periodic and 21 rational.
    shapes = [
        (kind, i % 4 == 0, i % 10 in (1, 4, 7), 2 + i % 7, i // 7)
        for kind in ("deep", "prefix")
        for i in range(70)
    ]

    def __init__(self) -> None:
        from fiblike import sequences

        self.sequences = sequences

    def _request(self, rng, shape: tuple) -> Request:
        kind, periodic, rational, k, tenth = shape

        def coefficient() -> Fraction:
            return Fraction(rng.randint(1, 5), rng.randint(1, 3) if rational else 1)

        coeffs = tuple(coefficient() for _ in range(rng.randint(2, 4) if periodic else k))
        if kind == "deep" and not periodic:
            # evaluate_fast: keep the costliest corner (large k, rational) near 0.1 s
            top = 4.5 - (k - 2) / 12 - (1.0 if rational else 0.0)
        else:
            top = 3.0 if rational else 3.3  # the naive O(n^2)-digit prefix path
        n = round(10 ** (2 + (tenth + rng.random()) / 10 * (top - 2)))
        family = "periodic" if periodic else "constant"
        return Request(f"{kind}-{family}", {"coeffs": coeffs, "inits": _inits(rng, k), "n": n})

    def requests(self, rng):
        for shape in _cycle(rng, self.shapes):
            yield self._request(rng, shape)

    def warmup(self, rng):
        return [self._request(rng, (kind, periodic, False, 3, 0))
                for kind in ("deep", "prefix") for periodic in (False, True)]

    def execute(self, req):
        seq = self.sequences
        p = req.params
        if req.kind.endswith("periodic"):
            spec = seq.periodic_spec(p["coeffs"], p["inits"])
        else:
            spec = seq.RecurrenceSpec(k=len(p["coeffs"]), coeffs=p["coeffs"], inits=p["inits"])
        if req.kind == "deep-constant":
            return seq.evaluate_fast(spec, p["n"])
        if req.kind == "deep-periodic":
            return seq.evaluate(spec, p["n"])
        return seq.terms(spec, p["n"])

    def check(self, req, result):
        p = req.params
        run = exact.periodic_residues if req.kind.endswith("periodic") else exact.constant_residues
        n = p["n"]
        if req.kind.startswith("deep"):
            if exact.residue(result) != run(p["coeffs"], p["inits"], n + 1)[n]:
                return f"term {n} differs mod 2^61-1"
            return None
        if len(result) != n:
            return f"{len(result)} terms, expected {n}"
        if exact.digest(map(exact.residue, result)) != exact.digest(run(p["coeffs"], p["inits"], n)):
            return f"prefix of {n} terms differs mod 2^61-1"
        return None


# ------------------------------------------------------------ spectral ----


def _check_ratio(last_n: int, estimate: Fraction, reference: Optional[Fraction], p: dict) -> Optional[str]:
    """Estimate against the exact last ratio, reference against an
    independent certificate, and the gap against 1e-8."""
    from mpmath import mp, mpf

    prec = p["precision"]
    n = p["n_max"]
    if p.get("sub") == ("odd" if n % 2 == 0 else "even"):
        n -= 1
    if last_n != n:
        return f"last sample at n={last_n}, expected {n}"
    if p["family"] == "periodic2":
        seq = exact.periodic_terms(p["leading"], p["inits"], n + 1)
    else:
        seq = exact.constant_terms(p["coeffs"], p["inits"], n + 1)
    if not _rel_close(estimate, seq[n] / seq[n - 1], prec - 2):
        return "estimate is not the exact last ratio"
    if reference is None:
        return "no reference limit"
    delta = Fraction(1, 10 ** (prec - 3))
    if p["family"] == "periodic2":
        a, b = p["leading"]
        with mp.workdps(prec + 10):
            ab = mpf(a.numerator * b.numerator) / (a.denominator * b.denominator)
            alpha = (ab + mp.sqrt(ab * ab + 4 * ab)) / 2
            divisor = b if p["sub"] == "even" else a
            own = exact.mpf_to_fraction(alpha * divisor.denominator / divisor.numerator)
        if not _rel_close(reference, own, prec - 3):
            return "2-periodic reference differs from alpha/b or alpha/a"
    elif p["family"] == "product":
        if abs(reference - max(p["roots"])) > delta:
            return f"reference {float(reference):.6g} is not the largest root {max(p['roots'])}"
    elif not (exact.single_positive_root(p["coeffs"]) and exact.brackets_root(p["coeffs"], reference, delta)):
        return "reference is not the certified dominant root"
    if abs(estimate - reference) >= Fraction(1, 10**8):
        return "estimate has not converged to the reference"
    return None


class Spectral(Workload):
    """Roots, nearest-integer closed form and ratio limits (criteria 5-8).

    A cycle holds every (type, precision, k) with k in 2..10, all inside
    the range fiblike 0.1.0 answers correctly.  The inputs it answers
    wrongly (a product-form polynomial with three positive roots,
    dresden_round past its working precision) are not in the timed loop:
    ``known_wrong`` draws a fixed set of them, which ``run.py`` checks in
    a process of its own and reports as ``known_wrong_share``.
    """

    name = "spectral"
    types = ("dominant_root", "all_roots", "dresden_round", "ratio_limit")
    known_wrong_kinds = ("root", "dresden", "ratio")
    known_wrong_per_kind = 3
    shapes = [(kind, prec, k) for kind in types for prec in (50, 200) for k in range(2, 11)]

    def __init__(self) -> None:
        from fiblike import charpoly, convergence, sequences

        self.charpoly, self.convergence, self.sequences = charpoly, convergence, sequences

    def _regular(self, rng, kind: str, prec: int, k: int) -> Request:
        if kind == "dominant_root":  # one coefficient sign change: a single positive root
            coeffs = tuple(Fraction(rng.randint(0, 5)) for _ in range(k - 1)) + (Fraction(rng.randint(1, 5)),)
            return Request(kind, {"coeffs": coeffs, "precision": prec})
        if kind == "all_roots":
            return Request(kind, {"coeffs": _ordered(rng, k), "precision": prec})
        if kind == "dresden_round":
            # stays below the working precision: n * log10(alpha) < 0.8 * prec
            n = rng.randint(0, int(0.8 * prec / math.log10(2)))
            return Request(kind, {"k": k, "n": n, "precision": prec})
        if k % 2 == 0:
            return Request(kind, {"family": "constant", "coeffs": _ordered(rng, k),
                                  "inits": _inits(rng, k, 5), "n_max": 300, "precision": prec})
        leading = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(2))
        return Request(kind, {"family": "periodic2", "leading": leading, "inits": _inits(rng, 2),
                              "sub": rng.choice(("even", "odd")), "n_max": 400, "precision": prec})

    def _known_wrong(self, rng, kind: str) -> Request:
        prec = rng.choice((50, 200))
        roots = sorted(rng.sample(range(1, 7), 3))
        if kind == "dresden":
            return Request("dresden_round", {"k": rng.randint(3, 6), "n": rng.randint(300, 400),
                                             "precision": 50})
        if kind == "ratio":
            return Request("ratio_limit", {"family": "product", "roots": roots,
                                           "coeffs": exact.product_coeffs(roots), "inits": _inits(rng, 3),
                                           "n_max": 300, "precision": prec})
        # fiblike 0.1.0's 1024-step scan over (0, 1 + sum|q|] stops at the smallest
        # positive root; a step below 1/2 keeps that deterministic.
        roots += [-rng.randint(1, 2)] * rng.randint(0, 1)
        return Request(rng.choice(("dominant_root", "all_roots")),
                       {"coeffs": exact.product_coeffs(roots), "roots": roots, "precision": prec})

    def known_wrong(self, rng) -> list[Request]:
        return [self._known_wrong(rng, kind) for kind in self.known_wrong_kinds
                for _ in range(self.known_wrong_per_kind)]

    def requests(self, rng):
        for kind, prec, k in _cycle(rng, self.shapes):
            yield self._regular(rng, kind, prec, k)

    def warmup(self, rng):
        return [self._regular(rng, kind, prec, 3) for kind in self.types for prec in (50, 200)]

    def execute(self, req):
        p = req.params
        prec = p["precision"]
        if req.kind == "dresden_round":
            return self.charpoly.dresden_round(p["k"], p["n"], prec)
        if req.kind == "ratio_limit":
            if p["family"] == "periodic2":
                spec = self.sequences.periodic_spec(p["leading"], p["inits"])
                return self.convergence.ratio_limit(spec, subsequence=p["sub"], n_max=p["n_max"], precision=prec)
            spec = self.sequences.RecurrenceSpec(k=len(p["coeffs"]), coeffs=p["coeffs"], inits=p["inits"])
            return self.convergence.ratio_limit(spec, n_max=p["n_max"], precision=prec)
        poly = self.charpoly.CharPoly(k=len(p["coeffs"]), coeffs=p["coeffs"])
        if req.kind == "dominant_root":
            return self.charpoly.dominant_root(poly, prec)
        return self.charpoly.all_roots(poly, prec)

    def check(self, req, result):
        p = req.params
        if req.kind == "dresden_round":
            expected = exact.knacci_terms(p["k"], p["n"] + 1)[p["n"]]
            return None if result == expected else f"dresden_round({p['k']}, {p['n']}) is off by {result - expected}"
        if req.kind == "ratio_limit":
            reference = None if result.reference is None else exact.mpf_to_fraction(result.reference)
            return _check_ratio(result.samples[-1][0], exact.mpf_to_fraction(result.estimate), reference, p)
        dominant = result if req.kind == "dominant_root" else result.dominant
        reason = _check_dominant(p, exact.mpf_to_fraction(dominant))
        if reason or req.kind == "dominant_root":
            return reason
        return _check_spectrum(p, result)


def _check_dominant(p: dict, root: Fraction) -> Optional[str]:
    coeffs, delta = p["coeffs"], Fraction(1, 10 ** (p["precision"] - 3))
    if not exact.brackets_root(coeffs, root, delta):
        return "no exact sign change around the reported root"
    if "roots" in p:
        if abs(root - max(p["roots"])) > delta:
            return f"reported root {float(root):.6g} is not the largest root {max(p['roots'])}"
    elif not exact.single_positive_root(coeffs):
        return "cannot certify that the root is the largest"
    return None


def _check_spectrum(p: dict, roots) -> Optional[str]:
    """Vieta's sum and product of the full spectrum, plus each residual."""
    from mpmath import mp, mpf

    coeffs, prec = p["coeffs"], p["precision"]
    k = len(coeffs)
    if len(roots.others) != k - 1:
        return f"{len(roots.others)} non-dominant roots, expected {k - 1}"
    with mp.workdps(prec + 10):
        qs = [mpf(q.numerator) / q.denominator for q in coeffs]
        zs = [roots.dominant, *roots.others]
        tol = mpf(10) ** (-(prec // 2))
        if abs(mp.fsum(zs) - qs[0]) > tol * max(1, abs(qs[0])):
            return "roots do not sum to q1"
        if abs(mp.fprod(zs) - (-1) ** (k + 1) * qs[-1]) > tol * max(1, abs(qs[-1])):
            return "roots do not multiply to (-1)^(k+1) qk"
        for z in zs:
            value = mpf(1)
            for q in qs:
                value = value * z - q
            if abs(value) > tol * max(1, abs(z)) ** k:
                return "a root leaves a large residual"
    return None


WORKLOADS = {cls.name: cls for cls in (IdentitySweep, DeepTerms, Spectral)}
