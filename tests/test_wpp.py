"""A global oracle at an orbifold point: rational curves in P(1,1,c),
whose virtual genus c - 1 sits entirely in the point term at the Z_c
point (see tests/wpp_gen.py)."""

import json
from fractions import Fraction

import pytest

from golden_commands import run_command
from wpp_gen import TRUNC, _mul, p11c_config, random_form, root_series

SEEDS = range(1, 21)


def _adjunction(tmp_path, c: int, seed: int) -> tuple[int, str]:
    path = tmp_path / f"p11{c}_{seed}.json"
    path.write_text(json.dumps(p11c_config(c, seed)), encoding="utf-8")
    return run_command(["adjunction", str(path)])


@pytest.mark.parametrize("c", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_root_series_is_the_inverse_c_th_root(c, seed):
    # u^c * f2(1, t) = 1 below t^TRUNC
    form = random_form(c, seed)
    u = root_series(form, c)
    power = [Fraction(1)] + [Fraction(0)] * (TRUNC - 1)
    for _ in range(c):
        power = _mul(power, u)
    assert _mul(power, form) == [1] + [0] * (TRUNC - 1)


@pytest.mark.parametrize("c", [2, 4])
def test_genus_sits_at_the_orbifold_point(tmp_path, c):
    # mu_c lies in Q(i): the report holds with lhs = rhs = c - 1, all of
    # it the point term of the germ's Z_c orbit
    for seed in SEEDS:
        code, out = _adjunction(tmp_path, c, seed)
        report = json.loads(out)
        assert code == 0, seed
        assert (report["lhs"], report["rhs"], report["holds"]) == (str(c - 1), str(c - 1), True)
        assert [(it["kind"], it["value"]) for it in report["contributions"]] == [
            ("domain_genus", "0"), ("point", str(c - 1))]
        assert report["verdict"] == {"verdict": "Singular", "defect": str(c - 1)}


@pytest.mark.parametrize("c", [3, 5])
def test_odd_c_needs_roots_of_unity_outside_q_i(tmp_path, capsys, c):
    # the identity holds here too, but the translates of the germ need
    # mu_c, which Q(i) lacks: the exit 1 is the package's known gap, and
    # this test changes when the coefficient field grows
    for seed in SEEDS:
        assert _adjunction(tmp_path, c, seed) == (1, ""), seed
        assert capsys.readouterr().err == (
            f"error: translate by 1 of a Z_{c} action needs a root of unity "
            "outside the Gaussian rationals\n"
        )
