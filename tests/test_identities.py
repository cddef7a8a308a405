import re

import pytest

from partx import counting, identities, partitions
from partx.identities import BOTH, CLOSED_FORM, ORACLE, SPECS, sweep, verify


def test_stanley_table_example():
    report = verify("stanley", 4, backend=ORACLE)
    assert (report.lhs, report.rhs, report.passed) == (7, 7, True)
    assert report.identity == "stanley"
    assert report.params == {"n": 4}


def test_stanley_base_case():
    report = verify("stanley", 1)
    assert (report.lhs, report.rhs, report.passed) == (1, 1, True)


def test_stanley_backends_agree():
    oracle = verify("stanley", 30, backend=ORACLE)
    closed = verify("stanley", 30, backend=CLOSED_FORM)
    assert (oracle.lhs, oracle.rhs) == (closed.lhs, closed.rhs)
    assert oracle.passed and closed.passed


def test_extended_stanley_examples():
    report = verify("extended_stanley", 4, 3)
    # column k=3: Q_3(4)+Q_3(5)+Q_3(6) = 1+2+4
    assert (report.lhs, report.rhs, report.passed) == (7, 7, True)
    report = verify("extended_stanley", 4, 4)
    assert (report.lhs, report.rhs, report.passed) == (7, 7, True)
    k1 = verify("extended_stanley", 4, 1)
    plain = verify("stanley", 4)
    assert (k1.lhs, k1.rhs) == (plain.lhs, plain.rhs)


def test_lemma1_examples():
    report = verify("lemma1", 4, 5)
    assert (report.lhs, report.rhs, report.passed) == (5, 5, True)
    report = verify("lemma1", 1, 1, backend=ORACLE)
    assert (report.lhs, report.rhs, report.passed) == (2, 2, True)
    report = verify("lemma1", 3, 2, backend=ORACLE)
    assert report.passed


def test_lemma2_examples():
    report = verify("lemma2", 4, 1, backend=ORACLE)
    assert (report.lhs, report.rhs, report.passed) == (5, 5, True)
    report = verify("lemma2", 4, 4, backend=ORACLE)
    direct = sum(1 for p in partitions.enumerate_partitions(8) if 4 in p)
    assert report.lhs == 5 and report.rhs == direct == 5
    report = verify("lemma2", 1, 1)
    assert (report.lhs, report.rhs) == (1, 1)


def test_result1_example():
    report = verify("result1", 4)
    assert (report.lhs, report.rhs, report.passed) == (7, 7, True)


def test_result2_examples():
    report = verify("result2", 6, 3)
    assert (report.lhs, report.rhs, report.passed) == (4, 4, True)
    report = verify("result2", 3, 5)
    assert (report.lhs, report.rhs, report.passed) == (0, 0, True)


def test_result2_oracle_matches_direct_sum():
    report = verify("result2", 11, 4, backend=ORACLE)
    assert report.passed
    expected = sum(counting.partition_count(i) for i in range(11) if i % 4 == 11 % 4)
    assert report.rhs == expected


def test_elder_examples():
    assert (verify("elder", 4, 2).lhs, verify("elder", 4, 2).rhs) == (3, 3)
    assert verify("elder", 4, 1).passed
    report = verify("elder", 12, 3)
    assert report.passed and report.backend == ORACLE


def test_ramanujan_p_first_cases():
    for family in (5, 7, 11):
        report = verify("ramanujan_p", family, 0)
        assert report.passed, family
        assert report.lhs == report.rhs == 0
        assert report.params["argument"] == {5: 4, 7: 5, 11: 6}[family]


def test_ramanujan_p_rejects():
    with pytest.raises(ValueError):
        verify("ramanujan_p", 13, 0)
    with pytest.raises(ValueError):
        verify("ramanujan_p", 5, -1)


def test_qk_congruence_mod5():
    report = verify("qk_congruence", 5, 5, 1)  # Q_5(9) = 5
    assert report.passed and report.lhs == 0
    report = verify("qk_congruence", 5, 5, 0)  # Q_5(4) = 0
    assert report.passed


def test_qk_congruence_higher_power_is_refuted():
    # Q_5(24) = P(19)+P(14)+P(9)+P(4) = 660 = 26*25 + 10, so the mod-25
    # pattern fails already at n=0; the verifier must report that honestly.
    report = verify("qk_congruence", 5, 25, 0)
    assert report.lhs == 10
    assert report.passed is False
    oracle_q = partitions.oracle_stats(24).occurrences(5)
    assert oracle_q == 660 and oracle_q % 25 == 10


def test_qk_congruence_rejects_unsupported():
    with pytest.raises(ValueError, match="supported"):
        verify("qk_congruence", 5, 7, 0)
    with pytest.raises(ValueError):
        verify("qk_congruence", 3, 5, 0)


def test_difference_identity():
    report = verify("difference_identity", 0)
    assert (report.lhs, report.rhs, report.passed) == (5, 5, True)
    report = verify("difference_identity", 1, backend=ORACLE)
    assert (report.lhs, report.rhs) == (30, 30)
    assert verify("difference_identity", 3).passed


def test_backend_agreement_sample():
    for n, k in ((2, 1), (7, 3), (12, 5), (20, 8)):
        for identity in ("extended_stanley", "lemma1", "lemma2", "result2"):
            a = verify(identity, n, k, backend=ORACLE)
            b = verify(identity, n, k, backend=CLOSED_FORM)
            assert (a.lhs, a.rhs) == (b.lhs, b.rhs), (identity, n, k)


def test_unknown_backend_rejected():
    # Every identity; one loop keeps the test's id stable.
    for identity, args in (("stanley", (4,)), ("extended_stanley", (4, 2)),
                           ("lemma1", (4, 2)), ("lemma2", (4, 2)),
                           ("result1", (4,)), ("result2", (4, 2)),
                           ("difference_identity", (1,)), ("elder", (4, 2)),
                           ("ramanujan_p", (5, 1)), ("qk_congruence", (5, 5, 1))):
        with pytest.raises(ValueError, match="^unknown backend 'series'$"):
            verify(identity, *args, backend="series")
    with pytest.raises(ValueError, match="^unknown backend 'series'$"):
        verify("lemma2", 0, 1, backend="series")  # before the n = 0 error


def test_elder_refuses_the_closed_form():
    with pytest.raises(ValueError, match="^elder has no closed form; use the oracle backend$"):
        verify("elder", 5, 2, backend=CLOSED_FORM)
    with pytest.raises(ValueError, match="^elder has no closed form; use the oracle backend$"):
        verify("elder", 0, 2, backend=BOTH)  # before the n = 0 error
    assert verify("elder", 5, 2, backend=ORACLE) == verify("elder", 5, 2)


def test_verify_both_runs_each_route(monkeypatch):
    assert verify("lemma2", 4, 1, backend=BOTH) == ("lemma2", {"n": 4, "k": 1}, 5, 5, True,
                                                    ORACLE)
    # The closed form's P(24) mod 5 is off by one and its report is returned; P(24) = 1575.
    values = counting.mod_table(5).extend(24)._values
    values[24] += 1
    try:
        report = verify("ramanujan_p", 5, 4, backend=BOTH)
    finally:
        values[24] -= 1
    assert report == ("ramanujan_p", {"family": 5, "n": 4, "argument": 24, "modulus": 5},
                      1, 1, False, CLOSED_FORM)
    # The closed form passes; the oracle's P(37) is off by one, and its report is returned.
    monkeypatch.setattr(partitions, "oracle_stats", _off_by_one_at(37))
    assert verify("lemma2", 37, 1, backend=BOTH) == ("lemma2", {"n": 37, "k": 1}, 21638, 21637,
                                                     False, ORACLE)
    assert verify("lemma2", 37, 1, backend=CLOSED_FORM).passed
    # Past the oracle's reach, both is the closed form alone, and the oracle refuses.
    assert verify("lemma2", 80, 1, backend=BOTH) == ("lemma2", {"n": 80, "k": 1}, 15796476,
                                                     15796476, True, CLOSED_FORM)
    with pytest.raises(ValueError, match="^lemma2 needs the oracle up to n=81, beyond its "
                                         "limit of 80; use the closed form$"):
        verify("lemma2", 80, 1, backend=ORACLE)
    with pytest.raises(ValueError, match="^elder needs the oracle up to n=81, beyond its "
                                         "limit of 80$"):
        verify("elder", 81, 1)


def test_verify_builds_the_routes_of_a_one_instance_sweep(monkeypatch):
    builds = []
    for name, build in identities._ROUTES.items():
        monkeypatch.setitem(identities._ROUTES, name,
                            lambda top, modulus, build=build: builds.append((top, modulus))
                            or build(top, modulus))
    assert verify("qk_congruence", 5, 25, 3).passed  # Q_5(99) = 0 (mod 25)
    assert builds == [(99, 25)]
    builds.clear()
    assert verify("lemma2", 4, 1).passed
    assert builds == [(5, None)]
    # A congruence reads the residue table: the bigint one stays at P(0).
    monkeypatch.setattr(counting, "_TABLE", counting.CountTable())
    assert verify("ramanujan_p", 5, 4000).passed
    assert len(counting._TABLE) == 1


@pytest.mark.parametrize("identity, args, message", [
    ("lemma2", (0, 1), "n must be a positive integer, got n=0"),
    ("ramanujan_p", (13, 0), "family must be one of [5, 7, 11], got 13"),
    ("qk_congruence", (3, 5, 0), "unsupported congruence (k=3, mod=5); supported: (k=5, mod=5), "
                                 "(k=5, mod=25), (k=5, mod=125), (k=7, mod=7), (k=11, mod=11)"),
])
def test_verify_raises_what_a_one_instance_sweep_raises(identity, args, message):
    params = dict(zip(SPECS[identity].params, args))
    k = params.get("k")
    for call in (lambda: verify(identity, *args),
                 lambda: sweep(identity, (params["n"],) * 2, None if k is None else (k, k),
                               family=params.get("family"), modulus=params.get("mod"))):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


def test_report_as_dict():
    report = verify("extended_stanley", 4, 3)
    assert report._asdict() == {
        "identity": "extended_stanley",
        "params": {"n": 4, "k": 3},
        "lhs": 7,
        "rhs": 7,
        "passed": True,
        "backend": CLOSED_FORM,
    }
    # Reports are named tuples: they unpack into their six fields, compare
    # equal to the plain tuple, and _asdict keeps the field order.
    identity, params, lhs, rhs, passed, backend = report
    assert (identity, params, lhs, rhs, passed, backend) == (
        "extended_stanley", {"n": 4, "k": 3}, 7, 7, True, CLOSED_FORM)
    assert report == tuple(report)
    fields = ["identity", "params", "lhs", "rhs", "passed", "backend"]
    assert list(report._asdict()) == list(report._fields) == fields
    result = sweep("extended_stanley", (4, 4), (3, 3))
    assert result.as_dict() == {
        "identity": "extended_stanley",
        "range": "n=4..4, k=3..3",
        "total": 1,
        "failures": [],
    }


def test_verify_and_sweep_refuse_an_unknown_identity_alike():
    message = "^unknown identity 'bogus'; known: stanley, extended_stanley, "
    with pytest.raises(ValueError, match=message) as by_verify:
        verify("bogus", 1)
    with pytest.raises(ValueError, match=message) as by_sweep:
        sweep("bogus", (1, 1))
    assert str(by_verify.value) == str(by_sweep.value)


def test_verify_takes_the_params_of_its_spec():
    assert verify("qk_congruence", 5, 5, 1).params == {"k": 5, "modulus": 5, "n": 1,
                                                       "argument": 9}
    for identity, args in (("stanley", ()), ("lemma2", (4,)), ("ramanujan_p", (5, 1, 2))):
        with pytest.raises(TypeError, match=f"^{identity} takes "):
            verify(identity, *args)


def test_reports_are_deterministic():
    assert verify("lemma1", 6, 2)._asdict() == verify("lemma1", 6, 2)._asdict()


def test_sweep_extended_stanley_closed():
    result = sweep("extended_stanley", (1, 30), (1, 10))
    assert result.total_checked == 300
    assert result.failures == []
    assert result.ok
    assert result.range_description == "n=1..30, k=1..10"


def test_sweep_single_instance_oracle():
    result = sweep("stanley", (4, 4), backend=ORACLE)
    assert result.total_checked == 1
    assert result.ok


def test_sweep_qk_congruence():
    result = sweep("qk_congruence", (0, 400), family=5)
    assert result.total_checked == 401
    assert result.ok
    assert "mod=5" in result.range_description


def test_sweep_qk_higher_power_collects_failures():
    result = sweep("qk_congruence", (0, 3), family=5, modulus=25)
    assert result.total_checked == 4
    assert not result.ok
    # residues 10, 20, 20 at n=0..2; n=3 (argument 99) happens to land on 0
    assert [(f.params["n"], f.lhs) for f in result.failures] == [(0, 10), (1, 20), (2, 20)]
    payload = result.as_dict()
    assert set(payload) == {"identity", "range", "total", "failures"}
    assert payload["total"] == 4


def test_sweep_both_backend_cross_checks():
    result = sweep("lemma1", (1, 6), (1, 4), backend=BOTH)
    assert result.total_checked == 24
    assert result.ok


def test_sweep_elder():
    result = sweep("elder", (1, 10), (1, 6), backend=ORACLE)
    assert result.total_checked == 60
    assert result.ok


def test_sweep_defaults_to_the_identity_backend(monkeypatch):
    elder_calls = []
    real_elder = partitions.elder_count
    monkeypatch.setattr(
        partitions, "elder_count", lambda n, k: elder_calls.append((n, k)) or real_elder(n, k)
    )
    result = sweep("elder", (1, 5), (1, 3))
    assert elder_calls == [(n, k) for n in range(1, 6) for k in range(1, 4)]
    assert result.total_checked == 15 and result.ok
    assert result == sweep("elder", (1, 5), (1, 3), backend=ORACLE)

    def no_oracle(*args):
        raise AssertionError("the closed-form default ran the oracle")

    monkeypatch.setattr(partitions, "oracle_stats", no_oracle)
    assert sweep("lemma1", (1, 6), (1, 4)) == sweep("lemma1", (1, 6), (1, 4), backend=CLOSED_FORM)
    assert sweep("ramanujan_p", (0, 5), family=7).ok


def test_sweep_errors():
    with pytest.raises(ValueError, match="unknown identity"):
        sweep("nonsense", (1, 5))
    with pytest.raises(ValueError, match="empty"):
        sweep("stanley", (5, 1))
    with pytest.raises(ValueError, match="k range"):
        sweep("lemma1", (1, 5))
    with pytest.raises(ValueError, match="does not take a k range"):
        sweep("stanley", (1, 5), (1, 2))
    with pytest.raises(ValueError, match="family"):
        sweep("ramanujan_p", (0, 5))
    with pytest.raises(ValueError, match="family or modulus"):
        sweep("lemma1", (1, 5), (1, 2), family=5)
    with pytest.raises(ValueError, match="needs the oracle up to n=200, beyond its limit"):
        sweep("stanley", (1, 200), backend=ORACLE)
    with pytest.raises(ValueError, match="needs the oracle up to n=84, beyond its limit of 80"):
        sweep("ramanujan_p", (0, 16), family=5, backend=ORACLE)
    with pytest.raises(ValueError, match="needs the oracle up to n=99, beyond its limit of 80"):
        sweep("qk_congruence", (0, 0), family=5, modulus=125, backend=ORACLE)
    with pytest.raises(ValueError, match="closed form"):
        sweep("elder", (1, 10), (1, 5), backend=CLOSED_FORM)
    with pytest.raises(ValueError, match="elder has no closed form; use the oracle backend"):
        sweep("elder", (1, 5), (1, 3), backend=BOTH)


_KNOWN = ("stanley, extended_stanley, lemma1, lemma2, result1, result2, difference_identity, "
          "elder, ramanujan_p, qk_congruence")


@pytest.mark.parametrize("args, kwargs, error, message", [
    # one fault each
    (("nonsense", (1, 5)), {}, ValueError, f"unknown identity 'nonsense'; known: {_KNOWN}"),
    (("stanley", (1, 5)), {"backend": "series"}, ValueError, "unknown backend 'series'"),
    (("elder", (1, 5), (1, 3)), {"backend": CLOSED_FORM}, ValueError,
     "elder has no closed form; use the oracle backend"),
    (("stanley", 5), {}, ValueError, "n range must be an (lo, hi) pair, got 5"),
    (("stanley", ()), {}, ValueError, "n range must be an (lo, hi) pair, got ()"),
    (("stanley", (1.9, 5)), {}, TypeError, "n range bounds must be integers, got (1.9, 5)"),
    (("stanley", (5, 1)), {}, ValueError, "n range is empty: 5..1"),
    (("lemma1", (1, 5), ()), {}, ValueError, "k range must be an (lo, hi) pair, got ()"),
    (("lemma1", (1, 5), (1, 2.0)), {}, TypeError, "k range bounds must be integers, got (1, 2.0)"),
    (("lemma1", (1, 5), (3, 1)), {}, ValueError, "k range is empty: 3..1"),
    (("stanley", (1, 5), (1, 2)), {}, ValueError, "stanley does not take a k range"),
    (("lemma1", (1, 5)), {}, ValueError, "lemma1 needs a k range"),
    (("ramanujan_p", (0, 5)), {}, ValueError, "ramanujan_p needs a family (5, 7 or 11)"),
    (("ramanujan_p", (0, 5)), {"modulus": 25}, ValueError,
     "ramanujan_p needs a family (5, 7 or 11)"),
    (("qk_congruence", (0, 5)), {}, ValueError, "qk_congruence needs a family (the part k)"),
    (("qk_congruence", (0, 5)), {"modulus": 25}, ValueError,
     "qk_congruence needs a family (the part k)"),
    (("lemma1", (1, 5), (1, 2)), {"family": 5}, ValueError,
     "lemma1 does not take a family or modulus"),
    (("lemma1", (1, 5), (1, 2)), {"modulus": 5}, ValueError,
     "lemma1 does not take a family or modulus"),
    (("ramanujan_p", (0, 5)), {"family": 5, "modulus": 7}, ValueError,
     "ramanujan_p checks mod the family itself"),
    (("ramanujan_p", (0, 5)), {"family": 5, "modulus": 5.0}, TypeError,
     "modulus must be an integer, got 5.0"),
    (("qk_congruence", (0, 5)), {"family": 5.0}, TypeError, "family must be an integer, got 5.0"),
    (("lemma1", (1, 5), (1, 2)), {"family": 5.0}, ValueError,
     "lemma1 does not take a family or modulus"),
    # two faults each: the check that fires first is plan, n range, k range
    # shape, family and mod, then whether the identity takes a k range
    (("nonsense", (5, 1)), {}, ValueError, f"unknown identity 'nonsense'; known: {_KNOWN}"),
    (("stanley", (5, 1), (1, 2)), {}, ValueError, "n range is empty: 5..1"),
    (("stanley", (1, 5), ()), {}, ValueError, "k range must be an (lo, hi) pair, got ()"),
    (("stanley", (1, 5), (3, 1)), {}, ValueError, "k range is empty: 3..1"),
    (("lemma1", (1, 5)), {"family": 5}, ValueError, "lemma1 does not take a family or modulus"),
    (("ramanujan_p", (0, 5), (1, 2)), {}, ValueError, "ramanujan_p needs a family (5, 7 or 11)"),
    (("ramanujan_p", (0, 5), (1, 2)), {"family": 5.0}, TypeError,
     "family must be an integer, got 5.0"),
])
def test_sweep_refusals_are_pinned(monkeypatch, args, kwargs, error, message):
    monkeypatch.setattr(counting, "_MOD_TABLES", {})
    with pytest.raises(error) as raised:
        sweep(*args, **kwargs)
    assert (type(raised.value), str(raised.value)) == (error, message)
    assert counting._MOD_TABLES == {}  # refused before any table


def test_sweep_passes_arguments_in_the_order_of_params(monkeypatch):
    # n before family: every instance, report and the range text follow params.
    calls = []
    after = identities.Spec(lambda at, n, family: calls.append((n, family)) or (at.p(n), family),
                            ("n", "family"), lambda n, family: n)
    monkeypatch.setitem(identities.SPECS, "after", after)
    result = sweep("after", (1, 3), family=50)
    assert calls == [(1, 50), (2, 50), (3, 50)]
    assert result.range_description == "n=1..3, family=50"
    assert [(f.params, f.lhs, f.rhs) for f in result.failures] == [
        ({"n": n, "family": 50}, counting.partition_count(n), 50) for n in (1, 2, 3)]
    assert result.failures == [verify("after", n, 50) for n in (1, 2, 3)]


def test_sweep_and_verify_refuse_arguments_that_are_not_integers(monkeypatch):
    monkeypatch.setattr(counting, "_TABLE", counting.CountTable())
    for bounds in ((1.9, 5), (1, 5.5), ("1", "5")):
        message = f"n range bounds must be integers, got {bounds!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            sweep("stanley", bounds)
    with pytest.raises(TypeError, match=r"^k range bounds must be integers, got \(1, 2.0\)$"):
        sweep("lemma2", (1, 5), (1, 2.0))
    with pytest.raises(TypeError, match="^stanley: n must be an integer, got 5.5$"):
        verify("stanley", 5.5)
    with pytest.raises(TypeError, match="^lemma2: k must be an integer, got '1'$"):
        verify("lemma2", 4, "1")
    with pytest.raises(TypeError, match="^family must be an integer, got 5.0$"):
        sweep("ramanujan_p", (0, 5), family=5.0)
    with pytest.raises(TypeError, match="^family must be an integer, got '5'$"):
        sweep("qk_congruence", (0, 5), family="5")
    with pytest.raises(TypeError, match="^modulus must be an integer, got 25.0$"):
        sweep("qk_congruence", (0, 5), family=5, modulus=25.0)
    assert len(counting._TABLE) == 1  # refused before any table grew


@pytest.mark.parametrize("modulus, error, message", [
    (5.0, TypeError, "modulus must be an integer, got 5.0"),
    ("5", TypeError, "modulus must be an integer, got '5'"),
    (7, ValueError, "ramanujan_p checks mod the family itself"),
])
def test_sweep_checks_a_modulus_given_to_ramanujan_p(monkeypatch, modulus, error, message):
    # 5.0 == 5, so a modulus compared with the family before this check passed silently.
    monkeypatch.setattr(counting, "_MOD_TABLES", {})
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        sweep("ramanujan_p", (0, 3), family=5, modulus=modulus)
    assert counting._MOD_TABLES == {}  # refused before any table
    assert sweep("ramanujan_p", (0, 3), family=5, modulus=5).ok


def test_a_congruence_runs_over_the_ring_its_spec_names(monkeypatch):
    # Its leading parameter is named family but is not its modulus: P(n) mod 2, at family=3.
    parity = identities.Spec(lambda at, family, n: at.p(n), ("family", "n"),
                             lambda family, n: n, ring=lambda family, n: 2)
    monkeypatch.setitem(identities.SPECS, "parity", parity)
    odd = [n for n in range(1, 21) if counting.partition_count(n) % 2]
    for backend in (CLOSED_FORM, ORACLE):
        result = sweep("parity", (1, 20), family=3, backend=backend)
        assert result.range_description == "family=3, n=1..20"
        assert [(f.params, f.lhs, f.rhs, f.passed) for f in result.failures] == [
            ({"family": 3, "n": n}, 1, 1, False) for n in odd]


def test_sweep_elder_refuses_other_routes_before_counting(monkeypatch):
    def no_elder(*args):
        raise AssertionError("elder_count ran before the refusal")

    monkeypatch.setattr(partitions, "elder_count", no_elder)
    with pytest.raises(ValueError, match="^elder has no closed form; use the oracle backend$"):
        sweep("elder", (1, 5), (1, 3), backend=BOTH)
    with pytest.raises(ValueError, match="^unknown backend 'series'$"):
        sweep("elder", (1, 5), (1, 3), backend="series")
    # The route is refused before the arguments: n = 0, a missing k range and
    # an empty n range each raise their own error on the oracle.
    for args in (((0, 5), (1, 3)), ((1, 5), None), ((5, 1), (1, 3))):
        with pytest.raises(ValueError, match="^elder has no closed form; use the oracle backend$"):
            sweep("elder", *args, backend=CLOSED_FORM)
        with pytest.raises(ValueError, match="^unknown backend 'series'$"):
            sweep("elder", *args, backend="series")


def test_sweep_reads_the_oracle_reach_once(monkeypatch):
    monkeypatch.setattr(partitions, "DEFAULT_ENUMERATION_LIMIT", 40)
    seen = []
    real_stats = partitions.oracle_stats
    monkeypatch.setattr(partitions, "oracle_stats", lambda n: seen.append(n) or real_stats(n))
    result = sweep("lemma2", (30, 50), (1, 2), backend=BOTH)
    assert result.total_checked == 42 and result.ok
    assert seen and max(seen) == 40
    with pytest.raises(ValueError, match="needs the oracle up to n=52, beyond its limit of 40; "):
        sweep("lemma2", (30, 50), (1, 2), backend=ORACLE)


@pytest.mark.parametrize("identity, n_range, family, modulus, top, ok", [
    ("ramanujan_p", (0, 3000), 5, None, 15004, True),
    ("ramanujan_p", (7, 1500), 11, None, 16506, True),
    ("qk_congruence", (0, 2400), 5, None, 12004, True),
    ("qk_congruence", (0, 40), 5, 25, 1024, False),  # the refuted pattern
])
def test_congruence_sweep_grows_its_residue_table_once(monkeypatch, identity, n_range, family,
                                                       modulus, top, ok):
    runs = []
    real_extend = counting._extend
    monkeypatch.setattr(counting, "_extend",
                        lambda *args: runs.append(args[1:]) or real_extend(*args))
    seen = []
    real_stats = partitions.oracle_stats
    monkeypatch.setattr(partitions, "oracle_stats", lambda n: seen.append(n) or real_stats(n))
    m = modulus or family
    for backend in (None, BOTH):
        monkeypatch.setattr(counting, "_MOD_TABLES", {})
        runs.clear()
        result = sweep(identity, n_range, family=family, modulus=modulus, backend=backend)
        assert result.ok == ok and result.total_checked == n_range[1] - n_range[0] + 1
        assert runs == [(top, m)]
    # both asks the oracle once for each argument within its cap, and for no other
    assert seen == list(range(m * n_range[0] + top % m, 81, m))
    assert partitions.DEFAULT_ENUMERATION_LIMIT == 80


@pytest.mark.parametrize("backend", [ORACLE, BOTH])
def test_sweep_congruences_run_on_every_backend(backend):
    for family, n_hi in ((5, 15), (7, 10), (11, 6)):  # arguments 79, 75 and 72
        result = sweep("ramanujan_p", (0, n_hi), family=family, backend=backend)
        assert result.ok and result.backend == backend
    refuted = sweep("qk_congruence", (0, 2), family=5, modulus=25, backend=backend)
    routes = [ORACLE] if backend == ORACLE else [CLOSED_FORM, ORACLE]
    assert [(f.backend, f.params["n"], f.lhs) for f in refuted.failures] == [
        (route, n, lhs) for n, lhs in ((0, 10), (1, 20), (2, 20)) for route in routes
    ]


# congruences take the closed form, the oracle or both; any other backend is refused
@pytest.mark.parametrize("backend", ["series"])
def test_sweep_congruences_take_only_closed_form(backend):
    for identity in ("ramanujan_p", "qk_congruence"):
        with pytest.raises(ValueError, match=f"unknown backend '{backend}'"):
            sweep(identity, (0, 3), family=5, backend=backend)
    assert sweep("qk_congruence", (0, 3), family=5, backend=CLOSED_FORM).ok


def test_closed_and_oracle_residues_agree_up_to_the_cap():
    cases = [("ramanujan_p", (m,)) for m in identities.RAMANUJAN_FAMILIES]
    cases += [("qk_congruence", pair) for pair in identities.QK_CONGRUENCES]
    checked = 0
    for identity, lead in cases:
        for n in range(81):
            closed = verify(identity, *lead, n)
            if closed.params["argument"] > partitions.DEFAULT_ENUMERATION_LIMIT:
                break
            oracle = verify(identity, *lead, n, backend=ORACLE)
            assert (oracle.lhs, oracle.params) == (closed.lhs, closed.params), (lead, n)
            checked += 1
    assert checked == 71


def test_sweep_both_stops_the_oracle_at_its_cap(monkeypatch):
    seen = []
    real_stats = partitions.oracle_stats
    monkeypatch.setattr(partitions, "oracle_stats", lambda n: seen.append(n) or real_stats(n))
    result = sweep("lemma2", (70, 90), (1, 2), backend=BOTH)
    assert result.total_checked == 42 and result.ok
    assert max(seen) == partitions.DEFAULT_ENUMERATION_LIMIT == 80


def test_sweep_builds_the_oracle_once_to_its_top(monkeypatch):
    builds = []
    real_grow = partitions._grow_tables

    def grow(size):
        before = len(partitions._p)
        real_grow(size)
        if len(partitions._p) != before:
            builds.append(len(partitions._p) - 1)

    monkeypatch.setattr(partitions, "_grow_tables", grow)
    for args, backend, sizes in ((("lemma2", (5, 36), (1, 6)), BOTH, [42]),
                                 (("elder", (11, 42), (1, 6)), None, [42]),
                                 (("stanley", (70, 90)), BOTH, [80])):  # the oracle's cap
        for name, empty in (("_p", [1]), ("_avoid", [[]]), ("_s", [0])):
            monkeypatch.setattr(partitions, name, empty)
        builds.clear()
        assert sweep(*args, backend=backend).ok
        assert builds == sizes, args


def test_sweep_result_reports_its_backend():
    assert sweep("elder", (1, 4), (1, 2)).backend == ORACLE
    assert sweep("lemma1", (1, 4), (1, 2)).backend == CLOSED_FORM
    result = sweep("lemma1", (1, 4), (1, 2), backend=BOTH)
    assert result.backend == BOTH
    assert list(result.as_dict()) == ["identity", "range", "total", "failures"]


@pytest.mark.parametrize("n", [1, 2, 12, 80, 81, 997, 3000])
def test_closed_form_result_sums_equal_per_term_sums(n):
    report = verify("result1", n)
    assert report.passed and report.rhs == sum(counting.partition_count(i) for i in range(n))
    for k in sorted({1, 2, 3, 7, max(1, n - 1), n, n + 1, n + 5}):  # n % k == 0 and k > n too
        report = verify("result2", n, k)
        expected = sum(counting.partition_count(i) for i in range(n % k, n, k))
        assert report.passed and report.rhs == expected, (n, k)


def test_sweep_both_keeps_one_oracle_call_per_term(monkeypatch):
    seen = []
    real_stats = partitions.oracle_stats
    monkeypatch.setattr(partitions, "oracle_stats", lambda n: seen.append(n) or real_stats(n))
    assert sweep("result1", (1, 80), backend=BOTH).ok
    # lhs Q_1(n), then P(0..n-1): the oracle answers P(0) = 1 too
    assert seen == [m for n in range(1, 81) for m in (n, *range(0, n))]
    seen.clear()
    assert sweep("result2", (1, 80), (1, 4), backend=BOTH).ok
    assert seen == [m for n in range(1, 81) for k in range(1, 5)
                    for m in (n, *range(n % k, n, k))]


def test_sweep_counts_the_instances_each_route_checked():
    result = sweep("lemma2", (70, 90), (1, 2), backend=BOTH)
    assert result.checked == {CLOSED_FORM: 42, ORACLE: 19}  # the oracle where n + k <= 80
    assert sweep("lemma2", (70, 90), (1, 2)).checked == {CLOSED_FORM: 42}
    assert sweep("elder", (1, 5), (1, 3)).checked == {ORACLE: 15}


def _sweep_by_verifier(identity, lead, n_range, k_range, backend, description):
    """The SweepResult of calling :func:`verify` once per instance and route."""
    routes = [CLOSED_FORM, ORACLE] if backend == BOTH else [backend]
    span = identities.SPECS[identity].span
    tails = [()] if k_range is None else [(k,) for k in range(k_range[0], k_range[1] + 1)]
    failures, checked, total = [], dict.fromkeys(routes, 0), 0
    for n in range(n_range[0], n_range[1] + 1):
        for tail in tails:
            args = (*lead, n, *tail)
            total += 1
            for route in routes:
                if route == ORACLE and span(*args) > partitions.DEFAULT_ENUMERATION_LIMIT:
                    continue
                checked[route] += 1
                report = verify(identity, *args, backend=route)
                if not report.passed:
                    failures.append(report)
    return identities.SweepResult(identity, description, total, failures, backend, checked)


def _off_by_one_at(n_off):
    real_stats = partitions.oracle_stats

    def stats(n):
        view = real_stats(n)
        return view._replace(partition_count=view.partition_count + 1) if n == n_off else view

    return stats


@pytest.mark.parametrize("identity, lead, n_range, k_range, backend, description, off", [
    ("qk_congruence", (5, 25), (0, 40), None, CLOSED_FORM, "family=5, mod=25, n=0..40", None),
    ("qk_congruence", (5, 25), (0, 2), None, ORACLE, "family=5, mod=25, n=0..2", None),
    ("qk_congruence", (5, 25), (0, 40), None, BOTH, "family=5, mod=25, n=0..40", None),
    ("elder", (), (1, 12), (1, 4), ORACLE, "n=1..12, k=1..4", None),
    ("lemma2", (), (30, 45), (1, 3), BOTH, "n=30..45, k=1..3", 37),
    ("stanley", (), (1, 40), None, BOTH, "n=1..40", None),
    ("extended_stanley", (), (1, 20), (1, 4), CLOSED_FORM, "n=1..20, k=1..4", None),
    ("lemma1", (), (1, 20), (1, 4), ORACLE, "n=1..20, k=1..4", None),
    ("result1", (), (1, 30), None, ORACLE, "n=1..30", None),
    ("result2", (), (30, 45), (1, 3), BOTH, "n=30..45, k=1..3", 37),
    ("difference_identity", (), (0, 20), None, BOTH, "n=0..20", None),  # oracle to n = 14
    ("ramanujan_p", (7,), (0, 12), None, BOTH, "family=7, n=0..12", None),  # oracle to n = 10
    # arguments 504..554 and 1004..1054, across the residue table's block edges
    ("ramanujan_p", (5,), (100, 110), None, CLOSED_FORM, "family=5, n=100..110", None),
    ("ramanujan_p", (5,), (200, 210), None, CLOSED_FORM, "family=5, n=200..210", None),
])
def test_sweep_equals_the_public_verifiers_per_instance(monkeypatch, identity, lead, n_range,
                                                        k_range, backend, description, off):
    if off is not None:
        monkeypatch.setattr(partitions, "oracle_stats", _off_by_one_at(off))
    # A congruence sweep grows a fresh residue table, which verify then reads
    # too; the end of this test checks its residues against the bigint table.
    monkeypatch.setattr(counting, "_MOD_TABLES", {})
    made = []
    real_report = identities.IdentityReport
    monkeypatch.setattr(identities, "IdentityReport",
                        lambda *fields: made.append(fields) or real_report(*fields))
    family, modulus = (*lead, None, None)[:2]
    result = sweep(identity, n_range, k_range, backend=backend, family=family, modulus=modulus)
    assert len(made) == len(result.failures)  # a report for each failure, none for a pass
    assert result.ok == (off is None and modulus != 25)  # P(37) off, or the refuted pattern
    assert result == _sweep_by_verifier(identity, lead, n_range, k_range, backend, description)
    if family is not None and CLOSED_FORM in result.checked:
        # Each residue the closed route read, against the exact count on the
        # bigint table: the closed failures are exactly the nonzero residues.
        mod = lead[-1]
        count = (counting.partition_count if identity == "ramanujan_p"
                 else lambda m: counting.occurrence_count(family, m))
        exact = {n: count(identities._argument(mod, n)) % mod
                 for n in range(n_range[0], n_range[1] + 1)}
        assert {f.params["n"]: f.lhs for f in result.failures if f.backend == CLOSED_FORM} == {
            n: residue for n, residue in exact.items() if residue}
        top = SPECS[identity].span(*lead, n_range[1])  # every entry, across the block edges
        assert counting.mod_table(mod)._values[:top + 1] == [
            counting.partition_count(m) % mod for m in range(top + 1)]
    if identity == "lemma2":  # P(37) off on the oracle: lhs at n = 37, rhs where n + k = 37
        assert [(f.params["n"], f.params["k"], f.backend) for f in result.failures] == [
            (34, 3, ORACLE), (35, 2, ORACLE), (36, 1, ORACLE),
            (37, 1, ORACLE), (37, 2, ORACLE), (37, 3, ORACLE)]
