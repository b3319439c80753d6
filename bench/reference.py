"""50-digit mpmath references for the EvalResult evaluators, and a call recorder.

Every two-parameter family is b * exp((E(p) - E(q)) / (p - q)) for a
family-specific E(t) of z = t * ln(a/b), with E'((p+q)/2) at p = q.  The
references below evaluate that form directly in high precision, adding
as many digits as the difference p - q cancels; they share no code with
the closed forms under test.
"""

from __future__ import annotations

import math
import random

from tracer import rebound

DIGITS = 50
EPS = 2.0 ** -52

# evaluators whose results carry est_rel_error, with their family tag
RECORDED = {"stolarsky": "stolarsky", "gini": "gini", "two_param_identric": "identric2",
            "two_param_heronian": "heronian2", "four_param_F": "four_param", "hd_eval": "hd"}


def _family_E(family: str, r: float, s: float):
    """E(t; w) in mpmath for one family; w = ln(a/b)."""
    import mpmath as mp

    def log_exprel(z):
        return mp.mpf(0) if z == 0 else mp.log(mp.expm1(z) / z)

    def exprel_logd(z):
        return mp.mpf(1) / 2 if z == 0 else mp.exp(z) / mp.expm1(z) - 1 / z

    if family == "stolarsky":
        return lambda t, w: log_exprel(t * w)
    if family == "gini":
        return lambda t, w: mp.log(1 + mp.exp(t * w))
    if family == "identric2":
        return lambda t, w: t * w * exprel_logd(t * w)
    if family == "heronian2":
        return lambda t, w: mp.log(1 + mp.exp(t * w / 2) + mp.exp(t * w))
    if family == "hd":
        return lambda t, w: mp.log(abs(mp.expm1(t * w)))
    if family == "four_param":
        r_, s_ = mp.mpf(r), mp.mpf(s)
        if r == s:
            return lambda t, w: t * w * exprel_logd(t * r_ * w)
        return lambda t, w: (log_exprel(t * r_ * w) - log_exprel(t * s_ * w)) / (r_ - s_)
    raise ValueError(family)


def reference_value(family: str, p: float, q: float, a: float, b: float,
                    r: float = 0.0, s: float = 0.0) -> float:
    """The mean (or H_D) to full double precision from a 50-digit evaluation."""
    import mpmath as mp

    if a == b:
        return a
    lost = 0
    for x, y in ((p, q), (r, s)):
        if x != y:
            lost = max(lost, int(-math.log10(abs(x - y) / (1.0 + abs(x) + abs(y)))) + 1)
    with mp.workdps(DIGITS + lost):
        E = _family_E(family, r, s)
        w = mp.log(mp.mpf(a)) - mp.log(mp.mpf(b))
        P, Q = mp.mpf(p), mp.mpf(q)
        if p == q:
            ln = mp.diff(lambda t: E(t, w), P)
        else:
            ln = (E(P, w) - E(Q, w)) / (P - Q)
        return float(mp.mpf(b) * mp.exp(ln))


def err_ratio(call: tuple) -> float:
    """|v - ref| / (ref * max(est_rel_error, 2^-52)) for one recorded call."""
    family, p, q, r, s, a, b, value, est = call
    ref = reference_value(family, p, q, a, b, r, s)
    return abs(value - ref) / (ref * max(est, EPS))


class CallRecorder:
    """Seeded reservoir sample of the outermost EvalResult evaluator calls."""

    def __init__(self, size: int, seed: int):
        self.size = size
        self.rng = random.Random(seed)
        self.seen = 0
        self.sample: list[tuple] = []
        self.depth = 0

    def _wrap(self, fn, family: str):
        def recorded(*args):
            self.depth += 1
            try:
                result = fn(*args)
            finally:
                self.depth -= 1
            if self.depth == 0:
                pp, pt = args[0], args[-1]
                r, s = (args[1].r, args[1].s) if family == "four_param" else (0.0, 0.0)
                self._offer((family, pp.p, pp.q, r, s, pt.a, pt.b,
                             result.value, result.est_rel_error))
            return result

        return recorded

    def _offer(self, call: tuple) -> None:
        self.seen += 1
        if len(self.sample) < self.size:
            self.sample.append(call)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.size:
                self.sample[j] = call

    def recording(self):
        """Context manager that records the evaluator calls made inside it."""
        from parmeans import core, hgf

        replacements = {}
        for name, family in RECORDED.items():
            fn = getattr(core, name, None) or getattr(hgf, name)
            replacements[id(fn)] = self._wrap(fn, family)
        return rebound(replacements)
