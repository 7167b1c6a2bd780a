import decimal
import math

import pytest

from ftdiff.dgf import AdmissibilityConstants, ParamTriple, builtin_dgf
from ftdiff.errors import InfeasibleError, NotAdmissibleError
from ftdiff.tuning import (
    Table1Row,
    TuningRequest,
    default_gamma,
    generate_table1,
    is_normalized,
    table1_csv,
    tightness_ratio_bound,
    tune,
)

SQRT8 = math.sqrt(8.0)


def make_request(**overrides):
    kwargs = dict(
        dgf_id="ured",
        normalized_triple=ParamTriple(SQRT8, 1.0, 1.0),
        ttilde=6.9,
        T=1.0,
        L=1.0,
        gamma=4.5,
    )
    kwargs.update(overrides)
    return TuningRequest(**kwargs)


class TestDefaultGamma:
    def test_floor_at_one(self):
        assert default_gamma(0.0) == 4.5
        assert default_gamma(0.5) == 4.5

    def test_scales_with_l(self):
        assert default_gamma(2.0) == 9.0


class TestRequestValidation:
    def test_accepts_valid(self):
        req = make_request()
        assert req.resolved_gamma == 4.5

    def test_default_gamma_resolution(self):
        req = make_request(gamma=None, L=2.0)
        assert req.resolved_gamma == 9.0

    @pytest.mark.parametrize("field,value", [
        ("T", 0.0), ("T", -1.0), ("ttilde", 0.0), ("L", -0.5),
    ])
    def test_rejects_bad_scalars(self, field, value):
        with pytest.raises(ValueError):
            make_request(**{field: value})

    def test_gamma_must_exceed_l(self):
        with pytest.raises(InfeasibleError):
            make_request(gamma=1.0, L=1.0)
        with pytest.raises(InfeasibleError):
            make_request(gamma=0.5, L=1.0)

    def test_unnormalized_triple_rejected(self):
        # (1, 1, 1) has a Lipschitz ceiling below one: not normalized
        with pytest.raises(ValueError):
            make_request(normalized_triple=ParamTriple(1.0, 1.0, 1.0))

    def test_k1_5_triple_accepted(self):
        req = make_request(normalized_triple=ParamTriple(5.0, 1.0, 1.0),
                           ttilde=9.3)
        assert req.normalized_triple.k1 == 5.0


class TestIsNormalized:
    def test_boundary_triple(self, ured):
        from ftdiff.dgf import compute_admissibility
        ok, D = is_normalized(ParamTriple(SQRT8, 1.0, 1.0),
                              compute_admissibility(ured))
        assert ok and D == 1.0

    def test_oscillatory_triple_not_normalized(self, ured):
        from ftdiff.dgf import compute_admissibility
        ok, _ = is_normalized(ParamTriple(1.0, 1.0, 1.0),
                              compute_admissibility(ured))
        assert not ok


class TestTune:
    def test_frozen_gains_ured(self):
        result = tune(make_request())
        assert result.kappa.k1 == pytest.approx(6.0, rel=1e-15)
        assert result.kappa.k2 == pytest.approx(4.5, rel=1e-15)
        assert result.kappa.k3 == pytest.approx(4.1820315344461525, rel=1e-15)
        assert abs(result.kappa.k3 - 4.182) <= 1e-3

    def test_frozen_gains_exp(self):
        req = make_request(dgf_id="exp", ttilde=7.1)
        result = tune(req)
        assert result.kappa.k3 == pytest.approx(4.303249839792417, rel=1e-15)
        assert abs(result.kappa.k3 - 4.303) <= 1e-3

    def test_guaranteed_bound_is_prescribed_time(self):
        result = tune(make_request())
        assert result.guaranteed_bound == pytest.approx(1.0, rel=1e-12)
        result2 = tune(make_request(T=2.5))
        assert result2.guaranteed_bound == pytest.approx(2.5, rel=1e-12)

    def test_lbar_scaled_is_gamma(self):
        # the normalized family has unit ceiling, so scaling moves it to gamma
        result = tune(make_request())
        assert result.lbar_scaled == pytest.approx(4.5, rel=1e-12)

    def test_identity_when_unscaled(self):
        req = make_request(L=0.0, gamma=1.0, T=6.9)
        result = tune(req)
        assert result.kappa.k1 == pytest.approx(SQRT8, rel=1e-15)
        assert result.kappa.k2 == pytest.approx(1.0, rel=1e-15)
        assert result.kappa.k3 == pytest.approx(1.0, rel=1e-15)

    def test_k3_inverse_in_t(self):
        half = tune(make_request(T=0.5))
        one = tune(make_request(T=1.0))
        assert half.kappa.k3 == pytest.approx(2.0 * one.kappa.k3, rel=1e-14)

    @pytest.mark.parametrize("gamma", [2.0, 4.5, 10.0])
    def test_damping_shape_invariant_in_gamma(self, gamma):
        # k1^2 / k2 stays fixed: the eigenstructure shape survives scaling
        result = tune(make_request(gamma=gamma))
        ratio = result.kappa.k1 ** 2 / result.kappa.k2
        assert ratio == pytest.approx(8.0, rel=1e-12)

    def test_tightness_frozen(self):
        result = tune(make_request())
        assert result.tightness_ratio_bound == pytest.approx(
            3.9935459452397346, rel=1e-12)
        assert 3.9 <= result.tightness_ratio_bound <= 4.1

    def test_tightness_without_perturbation(self):
        result = tune(make_request(L=0.0))
        assert result.tightness_ratio_bound == pytest.approx(
            3.106091290742016, rel=1e-12)

    def test_sqrt_dgf_rejected(self):
        req = make_request(dgf_id="sqrt")
        with pytest.raises(NotAdmissibleError):
            tune(req)

    def test_unknown_dgf_rejected(self):
        req = make_request(dgf_id="mystery")
        with pytest.raises(ValueError):
            tune(req)

    def test_explicit_constants_accepted(self):
        c = AdmissibilityConstants(B=math.pi, C=1.0 / math.sqrt(3.0), D=1.0,
                                   exact=True)
        result = tune(make_request(), constants=c)
        assert result.kappa.k3 == pytest.approx(4.1820315344461525, rel=1e-15)


class TestTightnessStandalone:
    def test_matches_tune(self):
        req = make_request()
        got = tightness_ratio_bound(req, math.pi)
        assert got == pytest.approx(3.9935459452397346, rel=1e-12)

    @pytest.mark.parametrize("k1", [20.0, 1e4, 1e8])
    def test_against_decimal_reference(self, k1):
        # k1~ - sqrt(k1~^2 - 8 k2~) cancels as k1~ grows; at 1e8 it lost 0.105 of itself
        req = make_request(normalized_triple=ParamTriple(k1, 1.0, 1.0))
        g = req.resolved_gamma
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d1 = decimal.Decimal(k1)
            core = (d1 - (d1 * d1 - 8).sqrt()) * decimal.Decimal(req.ttilde) / (
                2 * decimal.Decimal(math.pi))
            want = core * decimal.Decimal(g) / (decimal.Decimal(g) - decimal.Decimal(req.L))
        got = tightness_ratio_bound(req, math.pi)
        assert got == pytest.approx(float(want), rel=1e-15, abs=0.0)

    def test_gamma_dependence(self):
        # ratio grows as gamma approaches L from above
        tight = tightness_ratio_bound(make_request(gamma=1.2), math.pi)
        loose = tightness_ratio_bound(make_request(gamma=20.0), math.pi)
        assert tight > loose


class TestTable1:
    def test_row_count_and_names(self):
        rows = generate_table1()
        assert len(rows) == 10
        assert [r.dgf_id for r in rows[:5]] == ["ured"] * 5
        assert [r.dgf_id for r in rows[5:]] == ["exp"] * 5

    def test_frozen_raw_values(self):
        rows = {(r.dgf_id, round(r.k1_tilde, 6)): r for r in generate_table1()}
        expected = {
            ("ured", round(SQRT8, 6)): 6.868448552,
            ("ured", 5.0): 9.274604026,
            ("ured", 10.0): 16.45277819,
            ("ured", 15.0): 24.07302437,
            ("ured", 20.0): 31.80718993,
            ("exp", round(SQRT8, 6)): 7.017877798,
            ("exp", 5.0): 9.39464962,
            ("exp", 10.0): 16.53805946,
            ("exp", 15.0): 24.14051977,
            ("exp", 20.0): 31.86363407,
        }
        for key, want in expected.items():
            assert rows[key].t_tilde_raw == pytest.approx(want, rel=1e-9)

    def test_rounded_values(self):
        rows = generate_table1()
        got = [r.t_tilde_rounded for r in rows]
        assert got == [6.9, 9.3, 16.5, 24.1, 31.9, 7.1, 9.4, 16.6, 24.2, 31.9]

    def test_rounded_is_one_decimal_ceiling(self):
        for r in generate_table1():
            assert r.t_tilde_rounded >= r.t_tilde_raw
            assert r.t_tilde_rounded - r.t_tilde_raw < 0.1
            assert round(r.t_tilde_rounded * 10.0) == pytest.approx(
                r.t_tilde_rounded * 10.0, abs=1e-9)

    def test_csv_shape(self):
        text = table1_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "dgf,k1_tilde,t_tilde_raw,t_tilde_rounded"
        assert len(lines) == 11
        assert lines[1].startswith("ured,")
        assert lines[1].endswith(",6.9")

    def test_csv_accepts_explicit_rows(self):
        rows = [Table1Row("ured", 5.0, 9.2746, 9.3)]
        text = table1_csv(rows)
        assert "9.3" in text and text.count("\n") == 2
