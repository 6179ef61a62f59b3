"""Cross-check of the closed form against the grid oracle.

:func:`verify_reduction` solves one weight pair twice, with the closed form
of :mod:`twospring.solver` and with the brute-force scan of
:mod:`twospring.oracle`, and reports in a :class:`VerificationVerdict`
whether the two agree.  This is the one module that imports both: the
oracle imports only the model, so the check stays independent of what it
checks.

:func:`verify_campaign` runs the randomized campaign of ``twospring
verify``: it draws the weight pairs from a seed, checks each in both
wirings and counts the verdicts.  It draws them one pair at a time with
numpy's own ``SeedSequence`` and ``PCG64`` algorithms written out on
Python ints, so it gives numpy's pairs but never imports ``numpy.random``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .model import Topology, Weights, _direct_init
from .oracle import GridSpec, oracle_solve
from .solver import solve_reduced

__all__ = ["VerificationVerdict", "verify_reduction", "verify_campaign"]

# numpy's SeedSequence: hash and mix constants, 32-bit words, a 4-word pool
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_POOL_WORDS = 4
# PCG64: a 128-bit LCG with numpy's default multiplier, XSL-RR output
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645


@_direct_init
@dataclass(frozen=True, slots=True)
class VerificationVerdict:
    """Comparison of the grid scan against the closed form for one instance.

    ``status`` is one of ``agree``, ``agree-infeasible``, ``agree-truncated``,
    ``cost-mismatch``, ``split-mismatch``, ``feasibility-mismatch``.
    """

    agree: bool
    status: str
    closed_cost: float
    oracle_cost: float
    cost_gap: float
    allowance: float
    argmin_gap: float | None
    beyond_grid: bool


def verify_reduction(w: Weights, k: Topology, g: GridSpec, tol: float) -> VerificationVerdict:
    """Check that grid search and closed form agree for one weight pair.

    Agreement means matching infeasibility, or both feasible with costs
    within ``tol + 2*step`` (the scan overshoots by at most one step per
    coordinate).  Serial agreement additionally requires the scanned argmin
    to sit within one step of the diagonal.  When the closed-form optimum
    cannot be represented inside the search square at all, an empty scan is
    agreement too, reported as ``agree-truncated``.

    The costs and ``argmin_gap`` are always the two results' own (``inf`` and
    ``None`` where infeasible); ``cost_gap`` is ``inf`` when exactly one side
    is feasible and ``0.0`` when neither is.  ``tol`` must be positive and
    finite.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    closed = solve_reduced(w, k)
    scanned = oracle_solve(w, k, g)
    allowance = tol + 2.0 * g.step
    gap, beyond = math.inf, False
    if closed.feasible and scanned.feasible:
        gap = scanned.best_cost - closed.total_cost
        if abs(gap) > allowance:
            status = "cost-mismatch"
        elif k is Topology.SERIAL and scanned.argmin_gap > g.step + 1e-12:
            status = "split-mismatch"
        else:
            status = "agree"
    elif not (closed.feasible or scanned.feasible):
        status, gap = "agree-infeasible", 0.0
    elif scanned.feasible:
        status = "feasibility-mismatch"  # a witness where the closed form has none
    else:
        # empty scan: legitimate iff the optimal design exceeds the square
        top = (g.size - 1) * g.step  # == axis()[-1]
        beyond = closed.x_star > (2.0 * top if k is Topology.PARALLEL else top)
        status = "agree-truncated" if beyond else "feasibility-mismatch"
    agree = status.startswith("agree")
    return VerificationVerdict(
        agree, status, closed.total_cost, scanned.best_cost, gap, allowance, scanned.argmin_gap, beyond
    )


def _pcg64_seeded(seed: int) -> tuple[int, int]:
    """The 128-bit ``(state, inc)`` of ``numpy.random.PCG64(seed)`` on Python
    ints: ``SeedSequence(seed).generate_state(4, uint64)``, then PCG64's
    seeding (O'Neill 2014).  A negative ``seed`` raises ``ValueError``, as
    ``SeedSequence`` does.

    The hash is written inline, as it runs for every campaign.  Each hash
    xors in a hash constant, advances the constant, multiplies by it and
    folds the high half into the low; a mix folds a hashed word into a pool
    word."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    # the first words of entropy, zero-padded, hashed into the pool ...
    h = _INIT_A
    pool = []
    for value in (words + [0] * _POOL_WORDS)[:_POOL_WORDS]:
        value ^= h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        pool.append(value ^ value >> 16)
    # ... each pool word hashed and mixed into every other, then each further
    # entropy word, kept past the pool, into every pool word
    pool += words[_POOL_WORDS:]
    for src in range(len(pool)):
        for dst in range(_POOL_WORDS):
            if src != dst:
                value = pool[src] ^ h
                h = h * _MULT_A & _MASK32
                value = value * h & _MASK32
                value = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ value >> 16) & _MASK32
                pool[dst] = value ^ value >> 16
    # generate_state(4, uint64): eight hashed 32-bit words, paired little-endian
    h, state32 = _INIT_B, []
    for value in pool[:_POOL_WORDS] * 2:
        value ^= h
        h = h * _MULT_B & _MASK32
        value = value * h & _MASK32
        state32.append(value ^ value >> 16)
    s0, s1, s2, s3, s4, s5, s6, s7 = state32
    initstate = (s1 << 32 | s0) << 64 | s3 << 32 | s2
    initseq = (s5 << 32 | s4) << 64 | s7 << 32 | s6
    # PCG64's seeding: from state 0, step, add initstate, step
    inc = (initseq << 1 | 1) & _MASK128
    state = (inc + initstate) & _MASK128
    return (state * _PCG_MULT + inc) & _MASK128, inc


def _pcg64_words(state: int, inc: int) -> Iterator[int]:
    """The raw words of a PCG64 from its ``(state, inc)``, endlessly, as
    ``random_raw`` gives them: each steps the LCG, then rotates the xor of
    the state's halves right by the state's top 6 bits."""
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        yield (word >> rot | word << 64 - rot) & _MASK64


def _uniform(word: int) -> float:
    """A raw 64-bit word as a float on ``[0, 1.5)``: its top 53 bits,
    scaled, as ``Generator.uniform(0.0, 1.5)`` draws."""
    return (word >> 11) * 2.0**-53 * 1.5


def _uniform_pairs(samples: int, seed: int) -> Iterator[list[float]]:
    """``samples`` pairs uniform on ``[0, 1.5)^2``: the raw words of
    ``PCG64(seed)``, two a pair, through :func:`_uniform`, as
    ``default_rng(seed).uniform`` draws them.  numpy keeps only the bit
    generator's stream stable across releases (NEP 19), so the conversion is
    written here.

    The seed is hashed when this is called, so a negative one raises here;
    the pairs are drawn one at a time as they are taken, so the draw's
    memory does not grow with ``samples``.  A pair costs about 1 µs, seven
    times what numpy's ``PCG64`` takes, but no campaign imports
    ``numpy.random`` or builds its ``PCG64``."""
    words = map(_uniform, _pcg64_words(*_pcg64_seeded(seed)))
    # zip asks range first, so it draws no word past the last pair
    return ([u, v] for _, u, v in zip(range(samples), words, words))


def verify_campaign(samples: int, seed: int, g: GridSpec, tol: float) -> dict:
    """The fields the ``twospring verify`` summary computes, in its key order,
    for ``samples`` pairs drawn by :func:`_uniform_pairs`, each checked
    parallel then serial.

    ``failures`` holds the pair, wiring, status and costs of each
    disagreeing verdict, in check order; ``worst_cost_gap`` is the largest
    finite ``|cost_gap|`` of an agreeing one.  ``samples`` and ``seed`` are
    nonnegative (a negative one raises ``ValueError``), ``tol`` as for
    :func:`verify_reduction`.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples!r}")
    truncated, worst_gap, failures = 0, 0.0, []
    for a, b in _uniform_pairs(samples, seed):
        w = Weights(a, b)
        for k in (Topology.PARALLEL, Topology.SERIAL):
            verdict = verify_reduction(w, k, g, tol)
            truncated += verdict.beyond_grid
            if not verdict.agree:
                failures.append(
                    {
                        "a": w.a,
                        "b": w.b,
                        "topology": k.name.lower(),
                        "status": verdict.status,
                        "closed_cost": verdict.closed_cost,
                        "oracle_cost": verdict.oracle_cost,
                    }
                )
            elif math.isfinite(verdict.cost_gap):
                worst_gap = max(worst_gap, abs(verdict.cost_gap))
    checks = 2 * samples
    return {
        "checks": checks,
        "agreements": checks - len(failures),
        "disagreements": len(failures),
        "truncated": truncated,
        "worst_cost_gap": worst_gap,
        "failures": failures,
    }
