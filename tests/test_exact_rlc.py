"""The plain decoder's simulated column against its closed form.

Every other oracle replays the driver's own RNG streams, so a bias that
the driver and the oracles shared (a threshold off by one ulp, a biased
bit of P, rows that are not independent substreams) would pass them all.
The plain decoder's success probability has a closed form that uses no
stream (`oracles.rlc_success_probability`), so rlc-only runs are checked
against it here, at the ROADMAP grids and at the rlc column of the four
acceptance operating points.
"""

import math
from itertools import product

import pytest

from rlcgrand.gf2 import BitMatrix
from rlcgrand.simcli import SimConfig, run_experiment

from oracles import rank_by_row_space, rlc_success_probability

# Fixed before the runs were made: each point passes at |z| <= 4.  Over
# the 10 points a correct simulator fails one with probability below
# 1e-3 (normal approximation).
Z_BOUND = 4.0
TRIALS = 10_000

# (eps, burst length, B, N values), all at K = 10 and master seed 1.
RUNS = [
    (0.05, 4.0, 64, (11, 15, 20)),  # N = 20 is acceptance criterion 1
    (0.01, 4.0, 64, (10, 12, 15, 20)),
    (0.03, 7.0, 64, (16,)),  # criterion 2a
    (0.03, 3.0, 64, (20,)),  # criterion 2b
    (0.03, 3.0, 96, (20,)),  # criterion 3
]


@pytest.mark.parametrize("eps, burst_len, b, n_list", RUNS)
def test_rlc_column_matches_closed_form(eps, burst_len, b, n_list):
    cfg = SimConfig(
        n_list=n_list, b=b, eps=eps, burst_len=burst_len, decoders=("rlc",), trials=TRIALS
    )
    for r in run_experiment(cfg):
        exact = rlc_success_probability(cfg.k, r.n, b, cfg.channel_params.p01)
        z = (r.decoding_probability - exact) / math.sqrt(exact * (1.0 - exact) / TRIALS)
        print(f"eps={eps} lambda={burst_len} B={b} N={r.n}: "
              f"simulated {r.decoding_probability:.4f}, exact {exact:.4f}, z {z:+.2f}")
        assert abs(z) <= Z_BOUND, (r.n, r.decoding_probability, exact, z)


def test_closed_form_at_the_acceptance_points():
    # The frozen rlc targets of tests/test_acceptance.py (0.18, 0.72,
    # 0.41, 0.08) are these exact values rounded.
    points = [
        (0.05, 4.0, 64, 20, 0.1797),
        (0.03, 7.0, 64, 16, 0.7208),
        (0.03, 3.0, 64, 20, 0.4096),
        (0.03, 3.0, 96, 20, 0.0795),
    ]
    for eps, burst_len, b, n, want in points:
        p01 = SimConfig(eps=eps, burst_len=burst_len).channel_params.p01
        assert rlc_success_probability(10, n, b, p01) == pytest.approx(want, abs=5e-5)


@pytest.mark.parametrize("k, n", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 5)])
@pytest.mark.parametrize("q", [0.0, 0.3, 0.8, 1.0])
def test_closed_form_equals_enumeration(k, n, q):
    # Every P and every clean/corrupted pattern, each weighted by its
    # probability: P uniform, each row clean with probability q.
    p01 = 1.0 - q  # B = 1, so q = 1 - p01
    total = 0.0
    for p_bits in product((0, 1), repeat=k * (n - k)):
        rows = [1 << i for i in range(k)] + [
            sum(bit << j for j, bit in enumerate(p_bits[i * k : (i + 1) * k]))
            for i in range(n - k)
        ]
        for clean in product((0, 1), repeat=n):
            weight = math.prod(q if c else 1.0 - q for c in clean) / 2 ** len(p_bits)
            g_r = BitMatrix.trusted(sum(clean), k, tuple(r for r, c in zip(rows, clean) if c))
            if rank_by_row_space(g_r) == k:
                total += weight
    assert rlc_success_probability(k, n, 1, p01) == pytest.approx(total, abs=1e-12)
