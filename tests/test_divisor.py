import hashlib
import json
import random

import pytest

from pdtoda import cli, divisor, lax, lmatrix, verify
from pdtoda.divisor import (
    VARIANTS,
    corner_resultants,
    divisor_poly,
    divisor_report,
    rel_eval,
    shift_conjugation_matrix,
    smoothness_probe,
    track_divisor,
    zeros_factorization_check,
)
from pdtoda.errors import PdTodaError
from pdtoda.lax import (
    band_params_of_matrix,
    char_matrix,
    char_poly,
    curve_of,
    spectral_data,
    transfer_matrix,
)
from pdtoda.lmatrix import antitranspose, minor_signed
from pdtoda.rationals import Q
from pdtoda.toda import TodaState, evolve, index_shift, random_state, state_to_json
from pdtoda.unipoly import UniPoly, gcd_monic, horner, roots_numeric


def test_antitranspose_preserves_spectrum():
    rng = random.Random(71)
    s = random_state(3, 2, rng)
    X = transfer_matrix(s)
    assert char_poly(antitranspose(X), 3, 2).phi == char_poly(X, 3, 2).phi
    assert antitranspose(antitranspose(X)) == X


def test_star_display_4_2():
    rng = random.Random(72)
    s = random_state(4, 2, rng)
    X = transfer_matrix(s)
    p = band_params_of_matrix(X, 4, 2)
    q = band_params_of_matrix(antitranspose(X), 4, 2)
    # the antitranspose reverses both band labels: alpha^(k)_i -> alpha^(k)_(N+k-i)
    assert all(q.a(1, i) == p.a(1, 5 - i) for i in range(1, 5))
    assert all(q.a(2, i) == p.a(2, 6 - i) for i in range(1, 5))
    assert all(q.b(i) == p.b(4 - i) for i in range(1, 5))


def test_star_matrix_entry_by_entry_4_2():
    from pdtoda.bilaurent import BiLaurent
    from pdtoda.lmatrix import LaurentMatrix

    rng = random.Random(70)
    s = random_state(4, 2, rng)
    X = transfer_matrix(s)
    p = band_params_of_matrix(X, 4, 2)
    C = BiLaurent.const
    one = BiLaurent.one()
    ym = BiLaurent.y(-1)
    yy = BiLaurent.y()
    reference = LaurentMatrix([
        [C(p.a(1, 4)), C(p.a(2, 4)), one, ym * p.b(4)],
        [C(p.b(3)), C(p.a(1, 3)), C(p.a(2, 3)), one],
        [yy, C(p.b(2)), C(p.a(1, 2)), C(p.a(2, 2))],
        [yy * p.a(2, 1), yy, C(p.b(1)), C(p.a(1, 1))],
    ])
    assert antitranspose(X) == reference


def test_shift_conjugation_identity():
    rng = random.Random(73)
    for (N, M) in [(2, 1), (3, 2), (4, 2)]:
        s = random_state(N, M, rng)
        X = transfer_matrix(s)
        C = shift_conjugation_matrix(N)
        assert C @ X == transfer_matrix(index_shift(s, -1)) @ C
        assert spectral_data(index_shift(s, -1)).phi == spectral_data(s).phi


def test_shift_correspondence_4_2():
    rng = random.Random(74)
    s = random_state(4, 2, rng)
    p = band_params_of_matrix(transfer_matrix(s), 4, 2)
    q = band_params_of_matrix(antitranspose(transfer_matrix(index_shift(s, -1))), 4, 2)
    assert all(q.a(1, i) == p.a(1, 4 - i) for i in range(1, 5))
    assert all(q.a(2, i) == p.a(2, 1 - i) for i in range(1, 5))
    assert all(q.b(i) == p.b(3 - i) for i in range(1, 5))


def test_corner_resultant_degrees():
    rng = random.Random(75)
    for (N, M), g in [((2, 1), 1), ((3, 1), 2)]:
        X = transfer_matrix(random_state(N, M, rng))
        R, S = corner_resultants(X, char_poly(X, N, M))
        assert R.degree == 2 * g
        assert S.degree == 2 * g


def test_corner_resultant_roots_are_common_zeros():
    # numeric oracle: at each root of R, the spectral polynomial and the
    # corner minor share a y-root on the curve
    rng = random.Random(76)
    s = random_state(3, 1, rng)
    sd = spectral_data(s)
    X = transfer_matrix(s)
    R, _ = corner_resultants(X, sd)
    minor = minor_signed(char_matrix(X), 3, 3)
    phi = sd.phi_cleared
    import numpy as np

    for x0 in roots_numeric(R):
        coeffs = np.trim_zeros(
            np.array([horner([complex(c) for c in phi.y_coeff(j).coeffs], x0) for j in range(sd.M + 2)],
                     dtype=complex), "b"
        )
        ys = [y for y in np.roots(coeffs[::-1]) if abs(y) > 1e-12]
        assert min(rel_eval(minor, x0, y) for y in ys) < 1e-8


def test_divisor_poly_2_1_closed_form():
    rng = random.Random(77)
    for _ in range(5):
        s = random_state(2, 1, rng)
        dp = divisor_poly(s, "X")
        assert dp.degree == 1
        assert dp.x_sum() == s.i(1) + s.v(2)


def test_divisor_poly_other_variants_2_1():
    rng = random.Random(78)
    s = random_state(2, 1, rng)
    # the antitransposed operator swaps the site labels in the closed form
    assert divisor_poly(s, "Xstar").x_sum() == s.i(2) + s.v(1)
    for variant in VARIANTS:
        assert divisor_poly(s, variant).degree == 1


def test_divisor_poly_trivial_genus_zero():
    s = TodaState(N=1, M=1, V=(1,), I=((2,),))
    dp = divisor_poly(s, "X")
    assert dp.degree == 0 and dp.poly == UniPoly.one()


def test_divisor_poly_3_1_degree_two():
    rng = random.Random(79)
    dp = divisor_poly(random_state(3, 1, rng), "X")
    assert dp.degree == 2
    assert dp.poly.lead == 1


@pytest.mark.parametrize("N,M", [(2, 1), (4, 2)])
def test_zeros_factorizations_build_the_curve_once(N, M, count_calls):
    # one phi serves all five operators; only X, sigma^-1 X and sigma X
    # need a transfer matrix
    calls = count_calls([(lax, "char_poly"), (divisor, "transfer_matrix")])
    res = zeros_factorization_check(random_state(N, M, random.Random(86)))
    for label, (lhs, rhs) in res.items():
        assert lhs == rhs, (label, lhs, rhs)
    assert calls == {"char_poly": 1, "transfer_matrix": 3}


def test_zeros_factorizations_take_each_corner_minor_once(count_calls):
    # the four corner minors of X serve its four resultants and the
    # double-minor identity; each other operator takes its two for U from
    # one shared table
    calls = count_calls([(divisor, "minor_signed"), (divisor, "corner_minors")])
    zeros_factorization_check(random_state(4, 2, random.Random(86)))
    assert calls == {"minor_signed": 4, "corner_minors": 4}


def test_double_minor_identity_is_part_of_report():
    rng = random.Random(81)
    lhs, rhs = zeros_factorization_check(random_state(3, 2, rng))["double_minor_identity"]
    assert lhs == rhs


def test_factorizations_beyond_banded_regime():
    # the corner factorizations also hold when M >= N, where the banded
    # template is unavailable and only the product/determinant machinery runs
    rng = random.Random(85)
    for (N, M) in [(2, 2), (2, 3)]:
        for label, (lhs, rhs) in zeros_factorization_check(random_state(N, M, rng)).items():
            assert lhs == rhs, (N, M, label, lhs, rhs)


def test_track_divisor_moves_while_spectrum_frozen():
    rng = random.Random(82)
    s = random_state(2, 1, rng)
    track = track_divisor(s, 10)
    sums = [dp.x_sum() for dp in track]
    assert all(dp.degree == 1 for dp in track)
    assert len(set(sums)) > 1
    report = divisor_report(track, 1)
    assert report["g"] == 1 and len(report["steps"]) == 11
    assert all(len(step["roots"]) == 1 for step in report["steps"])


def test_track_divisor_constant_at_genus_zero():
    s = TodaState(N=1, M=1, V=(1,), I=((2,),))
    track = track_divisor(s, 4)
    assert all(dp.degree == 0 for dp in track)


def test_common_zero_support(check_on):
    rng = random.Random(83)
    check_on("common-zero-support", [random_state(N, M, rng) for (N, M) in [(2, 1), (3, 1), (3, 2)]])


def test_common_zero_support_builds_x_once(check_on, count_calls):
    # phi comes from the same X whose corner minors are screened
    calls = count_calls([(verify, "transfer_matrix"), (lax, "transfer_matrix")])
    check_on("common-zero-support", [random_state(3, 2, random.Random(83))])
    assert calls == {"transfer_matrix": 1}


def test_common_zero_support_takes_each_minor_once(check_on, count_calls):
    # D_N1 and D_NN feed the resultants and the screen alike
    calls = count_calls([(verify, "minor_signed")])
    check_on("common-zero-support", [random_state(3, 2, random.Random(83))])
    assert calls == {"minor_signed": 3}


def test_smoothness_generic_exact_certificate():
    rng = random.Random(84)
    probe = smoothness_probe(spectral_data(random_state(3, 1, rng)))
    assert probe["likely_smooth"]


def test_smoothness_planted_double_point():
    planted = TodaState(N=2, M=1, V=(1, 1), I=((2, 2),))
    probe = smoothness_probe(spectral_data(planted))
    assert not probe["likely_smooth"]
    (x, _), (y, _) = probe["witnesses"][0]
    assert abs(x - 3) < 1e-6 and abs(y + 2) < 1e-6


def test_smoothness_trivial_rational_curve():
    s = TodaState(N=1, M=1, V=(1,), I=((2,),))
    assert smoothness_probe(spectral_data(s))["likely_smooth"]


@pytest.mark.parametrize("N, M", [(4, 2), (5, 2), (4, 3)])
def test_exact_core_matches_oracles_on_grown_heights(N, M):
    # (phi, y D_NN) at t = 10, where the rational heights have grown; the
    # integer resultant and the heuristic gcd must equal the
    # expansion over Q[x] and the Euclidean gcd over Q exactly
    from pdtoda.lmatrix import resultant_y, resultant_y_direct
    from pdtoda.toda import evolve
    from pdtoda.unipoly import gcd_monic, gcd_monic_euclid

    s = random_state(N, M, random.Random(7))
    for _ in range(10):
        s = evolve(s)
    X = transfer_matrix(s)
    phi = spectral_data(s).phi_cleared
    for i, j in ((N, N), (1, N)):
        cleared = minor_signed(char_matrix(X), i, j).mul_y(1)
        assert resultant_y(phi, cleared) == resultant_y_direct(phi, cleared)
    R, S = corner_resultants(X, spectral_data(s))
    U = gcd_monic(R, S)
    assert U == gcd_monic_euclid(R, S)
    assert U == divisor_poly(s).poly and U.degree == spectral_data(s).g


@pytest.mark.parametrize("N, M", [(4, 2), (5, 2), (4, 3)])
def test_integer_forms_scale_the_corner_resultants(N, M):
    # resultant_y is exactly homogeneous, res(a p, b q) = a^deg q b^deg p
    # res(p, q), so eliminating y between integer multiples of phi and of a
    # corner minor changes the resultant by a nonzero constant only
    s = _grown_state(N, M, 7, steps=10)
    sd = spectral_data(s)
    phi, phi_int = sd.phi_cleared, sd.phi_integral
    assert all(c.denominator == 1 for c in phi_int.terms.values())
    assert phi_int.terms.keys() == phi.terms.keys()
    ratios = {phi_int.terms[e] / c for e, c in phi.terms.items()}
    assert len(ratios) == 1 and ratios.pop() > 0
    rng = random.Random(N * 10 + M)

    def rational():
        return Q(rng.choice((-1, 1)) * rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12))

    for minor in lmatrix.corner_minors(char_matrix(transfer_matrix(s))):
        q = minor.mul_y(max(1, -minor.y_min()))
        res = lmatrix.resultant_y(phi, q)
        a, b = rational(), rational()
        assert lmatrix.resultant_y(phi * a, q * b) == res * (a ** q.y_max() * b ** phi.y_max())
        assert divisor._normalized(divisor.minor_resultant(phi_int, minor)) == divisor._normalized(res)


def _grown_state(N, M, seed, steps=0):
    s = random_state(N, M, random.Random(seed))
    for _ in range(steps):
        s = evolve(s)
    return s


def test_track_divisor_builds_the_curve_once(count_calls):
    # phi is conserved, so a track of 11 steps needs one char_poly; every
    # step's U still comes from divisor_poly, on the curve evolve hands on
    calls = count_calls([(lax, "char_poly"), (divisor, "divisor_poly")])
    track = track_divisor(_grown_state(4, 2, 95), 10)
    assert len(track) == 11 and all(dp.degree == 4 for dp in track)
    assert calls == {"char_poly": 1, "divisor_poly": 11}


def test_track_divisor_clears_phi_once(monkeypatch):
    # every step eliminates y against the same integer form of phi, so its
    # y-coefficients are cleared once for the 22 corner resultants; every
    # input of the divisor path is already integral
    cleared = []
    original = lmatrix.cleared
    monkeypatch.setattr(lmatrix, "cleared", lambda polys: cleared.append(polys) or original(polys))
    s = _grown_state(4, 2, 95)
    track_divisor(s, 10)
    phi_coeffs = lmatrix._y_poly(curve_of(s).phi_integral)
    assert len(cleared) == 23 and sum(polys == phi_coeffs for polys in cleared) == 1
    assert all(original(polys)[1] == 1 for polys in cleared)


def test_track_divisor_builds_one_x_per_step(tmp_path, count_calls):
    # the t = 0 step takes the curve from the X it builds for its corner
    # minors, so 10 steps build 11 transfer matrices, as a library call and
    # through the divisor command
    s = _grown_state(4, 2, 95)
    path = tmp_path / "state.json"
    path.write_text(state_to_json(s), encoding="utf-8")
    calls = count_calls([(divisor, "transfer_matrix"), (lax, "transfer_matrix")])
    track_divisor(s, 10)
    assert calls == {"transfer_matrix": 11}
    calls.clear()
    assert cli.main(["divisor", "--input", str(path), "--steps", "10", "--output",
                     str(tmp_path / "track.json")]) == 0
    assert calls == {"transfer_matrix": 11}


def test_track_divisor_passes_one_curve_along(monkeypatch, count_calls):
    # every state of the track carries the curve the t = 0 step built
    s = _grown_state(4, 2, 95)
    states = []
    original = divisor.divisor_poly
    monkeypatch.setattr(divisor, "divisor_poly",
                        lambda state, variant="X": states.append(state) or original(state, variant))
    track_divisor(s, 3)
    assert len(states) == 4 and all(curve_of(st) is curve_of(s) for st in states)
    assert curve_of(s).phi == spectral_data(s).phi
    # a state that already has its curve builds none along its track
    s = _grown_state(4, 2, 95)
    sd = curve_of(s)
    calls = count_calls([(lax, "char_poly")])
    track_divisor(s, 3)
    assert calls == {} and curve_of(s) is sd


def test_divisor_command_builds_the_curve_once(tmp_path, capsys, count_calls):
    path = tmp_path / "state.json"
    path.write_text(state_to_json(_grown_state(4, 2, 95)), encoding="utf-8")
    calls = count_calls([(lax, "char_poly")])
    assert cli.main(["divisor", "--input", str(path), "--steps", "10"]) == 0
    assert calls == {"char_poly": 1}
    assert json.loads(capsys.readouterr().out)["g"] == 4


def test_xstar_divisor_reuses_x(monkeypatch, count_calls):
    # X* = antitranspose(X) comes from the X that phi was built from
    s = _grown_state(4, 2, 95)
    calls = count_calls([(divisor, "transfer_matrix")])
    U = divisor_poly(s, "Xstar").poly
    assert calls == {"transfer_matrix": 1}
    monkeypatch.undo()
    # oracle: the antitransposed X, with its own curve
    Xs = antitranspose(transfer_matrix(s))
    assert U == gcd_monic(*corner_resultants(Xs, char_poly(Xs, 4, 2)))


@pytest.mark.parametrize("variant", VARIANTS)
def test_divisor_poly_builds_one_x_for_every_variant(variant, monkeypatch, count_calls):
    # the operator comes from one X of its index shift; on a state without
    # a curve the operator's own phi serves, as it equals the phi of X
    s = _grown_state(4, 2, 95)
    curve_of(s)
    calls = count_calls([(divisor, "transfer_matrix"), (lax, "transfer_matrix"),
                                        (lax, "char_poly")])
    U = divisor_poly(s, variant).poly
    assert calls == {"transfer_matrix": 1}
    monkeypatch.undo()
    assert U == divisor_poly(_grown_state(4, 2, 95), variant).poly


@pytest.mark.parametrize("s", [TodaState(N=1, M=1, V=(1,), I=((2,),)),
                               TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))], ids=["g0", "g1"])
def test_unknown_variant_is_refused_at_every_genus(s):
    with pytest.raises(PdTodaError, match="bogus"):
        divisor_poly(s, "bogus")


@pytest.mark.parametrize("N, M", [(5, 2), (4, 3)])
def test_corner_resultants_take_2g_plus_1_samples(N, M, monkeypatch, count_calls):
    # the assignment bound of these Sylvester matrices is 2g, the true
    # degree, so each resultant evaluates 2g + 1 integer determinants
    s = _grown_state(N, M, 7, steps=10)
    X = transfer_matrix(s)
    sd = spectral_data(s)
    for i, j in ((N, N), (1, N)):
        minor = minor_signed(char_matrix(X), i, j).mul_y(1)
        calls = count_calls([(lmatrix, "_int_det")])
        res = lmatrix.resultant_y(sd.phi_cleared, minor)
        monkeypatch.undo()
        assert calls == {"_int_det": 2 * sd.g + 1} and res.degree == 2 * sd.g


#: sha256 of json.dumps([step["upsilon"] for step in report["steps"]]) of
#: `divisor --steps 10` on random_state(N, M, Random(95)), with the t = 0 U
PINNED_TRACKS = {
    (4, 2): ("2db58f54c6856365f34e5e0ac8f7678c64f3ac0dbb14e45b2598d774f70ea053",
             ["-53060859621/27350", "10968575607/109400", "486184569/218800",
              "-326871/2735", "1"]),
    (5, 2): ("5f4a605b3a3f79306f07bd56bc2e2b1dd6cc9dd30abf774771fc6182076fdd5a",
             ["194141636067089947/10372320000", "-2703643868784287789/248935680000",
              "-155712515497669567/248935680000", "4352846935037411/15558480000",
              "-2140722598163/148176000", "6275519/58800", "1"]),
    (4, 3): ("2b1c9559dc2ffb4ebb10f9b904d7190d571ebaff67ab349461e260551b6a8182",
             ["237211664800915155451617/480200000", "134495813858892964339257/53782400000",
              "-53843291475541477594551/107564800000", "3621687655022511849/960400000",
              "-179669901200809/27440000", "-261783301/98000", "1"]),
}


@pytest.mark.parametrize("N, M", sorted(PINNED_TRACKS))
def test_track_matches_per_state_divisors_and_pinned_upsilon(N, M, tmp_path, capsys):
    # oracle: every U of the track equals divisor_poly of the state evolved
    # to that step, which builds its own X and its own curve
    s = _grown_state(N, M, 95)
    track = track_divisor(s, 10)
    cur = s
    for dp in track:
        assert dp.t == cur.t and dp.poly == divisor_poly(cur).poly
        cur = evolve(cur)

    path = tmp_path / "state.json"
    path.write_text(state_to_json(s), encoding="utf-8")
    assert cli.main(["divisor", "--input", str(path), "--steps", "10"]) == 0
    upsilon = [step["upsilon"] for step in json.loads(capsys.readouterr().out)["steps"]]
    digest, first = PINNED_TRACKS[N, M]
    assert upsilon[0] == first
    assert hashlib.sha256(json.dumps(upsilon).encode()).hexdigest() == digest
