"""Distribution validation, support bounds, and sample statistics.

Samples come from the simulator's own path: one ``RngRegistry.derived``
substream, one scalar draw at a time.
"""

import math

import numpy as np
import pytest

from vaxsim import distributions as d
from vaxsim.engine import RngRegistry

N = 100_000


def stream(seed=123):
    return RngRegistry(seed).derived("distribution", "check")


def draws(dist, seed=123, n=N):
    g = stream(seed)
    return np.fromiter((dist.sample(g) for _ in range(n)), dtype=float, count=n)


def assert_mean_close(dist, sample):
    # 4 standard errors keeps the false-failure rate negligible at n=1e5
    se = math.sqrt(dist.variance() / len(sample)) if dist.variance() else 0.0
    assert abs(sample.mean() - dist.mean()) <= 4 * se + 1e-12


class TestTriangular:
    def test_mean_and_support(self):
        dist = d.triangular(6, 8, 12)
        x = draws(dist)
        assert abs(x.mean() - (6 + 8 + 12) / 3) < 0.02
        assert x.min() >= 6.0 and x.max() <= 12.0
        assert_mean_close(dist, x)

    def test_degenerate_point_mass(self):
        dist = d.triangular(8, 8, 8)
        assert dist.sample(stream(0)) == 8.0
        assert np.all(draws(dist, seed=0, n=50) == 8.0)

    def test_mode_at_boundary(self):
        x = draws(d.triangular(0, 0, 1))
        assert x.min() >= 0 and x.max() <= 1
        assert abs(x.mean() - 1 / 3) < 0.01

    def test_rejects_unordered_params(self):
        with pytest.raises(d.DistributionError):
            d.triangular(5, 3, 10)
        with pytest.raises(d.DistributionError):
            d.triangular(5, 8, 7)


class TestLognormal:
    def test_median_and_positivity(self):
        dist = d.lognormal(2.0, 1.5)
        x = draws(dist)
        assert np.all(x > 0)
        assert abs(np.median(x) - 2.0) < 0.03
        assert_mean_close(dist, x)

    def test_draw_is_median_times_libm_exp(self):
        # the C library's exp gives the same bits on every CPU; numpy's exp
        # does not, so stores would depend on the machine that wrote them
        dist = d.lognormal(2.0, 1.5)
        g, ref = stream(), stream()
        for _ in range(10_000):
            z = ref.standard_normal()
            assert dist.sample(g) == 2.0 * math.exp(math.log(1.5) * z)

    def test_scale_one_is_degenerate(self):
        dist = d.lognormal(3.0, 1.0)
        x = draws(dist, n=100)
        assert np.allclose(x, 3.0)

    def test_rejects_bad_params(self):
        with pytest.raises(d.DistributionError):
            d.lognormal(-1.0, 1.5)
        with pytest.raises(d.DistributionError):
            d.lognormal(2.0, 0.5)


class TestConstant:
    def test_exact_no_draw(self):
        g = stream(9)
        assert d.constant(4.25).sample(g) == 4.25
        assert g.random() == stream(9).random()


class TestUniform:
    def test_support_and_mean(self):
        dist = d.uniform(3, 9)
        x = draws(dist)
        assert x.min() >= 3 and x.max() <= 9
        assert_mean_close(dist, x)

    def test_rejects_inverted(self):
        with pytest.raises(d.DistributionError):
            d.uniform(4, 2)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("node,kind", [
        ({"constant": 2.0}, "constant"),
        ({"triangular": [6, 8, 12]}, "triangular"),
        ({"lognormal": {"median": 1.5, "scale": 1.4}}, "lognormal"),
        ({"lognormal": [1.5, 1.4]}, "lognormal"),
        ({"uniform": [0, 1]}, "uniform"),
        (3.5, "constant"),
    ])
    def test_parses(self, node, kind):
        assert d.from_config(node).kind == kind

    def test_round_trip(self):
        for node in [{"triangular": [6.0, 8.0, 12.0]},
                     {"lognormal": {"median": 1.5, "scale": 1.4}},
                     {"constant": 2.0}]:
            assert d.to_config(d.from_config(node)) == node

    def test_rejects_unknown_kind(self):
        with pytest.raises(d.DistributionError):
            d.from_config({"beta": [1, 2]})

    def test_rejects_malformed(self):
        with pytest.raises(d.DistributionError):
            d.from_config({"triangular": [1, 2]})
        with pytest.raises(d.DistributionError):
            d.from_config("fast")

    @pytest.mark.parametrize("node", [
        {"triangular": ["1", "2", "3"]},
        {"constant": True},
        {"uniform": [0, None]},
        {"bernoulli": "0.5"},
        {"lognormal": {"median": 1, "scale": 1.3, "shift": 5}},
        {"lognormal": {"median": 1}},
        10 ** 400,
    ])
    def test_rejects_non_numbers_and_unknown_keys(self, node):
        with pytest.raises(d.DistributionError):
            d.from_config(node)


def test_sampling_is_deterministic_per_seed():
    dist = d.triangular(1, 2, 4)
    a = draws(dist, seed=55, n=64)
    b = draws(dist, seed=55, n=64)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dist", [d.constant(2.0), d.triangular(6, 8, 12),
                                  d.lognormal(2.0, 1.5), d.uniform(3, 9)])
def test_draws_are_python_floats(dist):
    # numpy scalars would leak into event times, integrals and results
    assert type(dist.sample(stream())) is float


# Known answers: each row is (distribution, stream label, the value's bits as
# float.hex, the uniforms the sample consumes). The streams are
# RngRegistry(20260).derived("known", label); label 0 draws u=0.570 first,
# label 1 u=0.395, label 2 u=0.126 and label 3 u=0.032. Every store byte
# rests on these draws, so a faster sample must reproduce them bit for bit.
KNOWN_ANSWERS = [
    # triangular(6, 8, 12) turns at u = 1/3: label 0 takes the right branch,
    # labels 2 and 3 the left
    (d.triangular(6, 8, 12), 0, "0x1.1926e4fe8bcaep+3", 1),
    (d.triangular(6, 8, 12), 2, "0x1.cec88ee28a12fp+2", 1),
    (d.triangular(6, 8, 12), 3, "0x1.a7d4b1eef73d0p+2", 1),
    (d.triangular(0, 0, 1), 0, "0x1.603300cb4d0f2p-2", 1),
    (d.triangular(0, 1, 1), 0, "0x1.8269b403c2b9ep-1", 1),
    (d.triangular(8, 8, 8), 0, "0x1.0000000000000p+3", 1),  # lo == hi still draws
    (d.lognormal(1.5, 1.4), 0, "0x1.20be5896639ffp+0", 2),
    (d.lognormal(1.5, 1.4), 1, "0x1.32f0a790ef1e5p+0", 2),
    (d.lognormal(2.0, 1.0), 0, "0x1.0000000000000p+1", 2),
    (d.uniform(2, 5), 0, "0x1.dab9197030555p+1", 1),
    (d.uniform(2, 5), 1, "0x1.978bc9842430dp+1", 1),
    (d.uniform(4, 4), 0, "0x1.0000000000000p+2", 1),
    (d.constant(3.25), 0, "0x1.a000000000000p+1", 0),
]


@pytest.mark.parametrize("dist, label, bits, used", KNOWN_ANSWERS)
def test_sample_known_answers(dist, label, bits, used):
    g = RngRegistry(20260).derived("known", label)
    value = dist.sample(g)
    assert type(value) is float and value.hex() == bits
    # the draw after the sample is the fresh stream's draw number used + 1
    fresh = RngRegistry(20260).derived("known", label)
    expected = [fresh.random() for _ in range(used + 1)][-1]
    assert g.random() == expected
