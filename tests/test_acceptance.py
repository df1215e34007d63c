"""Acceptance gate: the ten required properties, checked exactly.

Each test prints one [PASS]/[FAIL] line for its criterion.  Every check
is zero-tolerance: a residual form must be identically zero, not small.
"""

import json
import random
import time
from fractions import Fraction

from premetric import (Axion, Chart, FieldConfig, FieldPairZ, MaxwellLorentz,
                       MetricSpec, basis_form,
                       check_factorization, conservation_residual,
                       coordinate_field, double_hodge_sign, force_u, hodge,
                       identity_suite, obstruction_phi_u, pair_tensor,
                       parse_form, print_form, random_form,
                       random_vector_field, recompose, self_reciprocal_pair,
                       sigma_u, split_3plus1, star_z, tensor, wedge)

from oracles import force_u_4d, phi_u_4d, pullback_linear, sigma_u_4d
from test_cli import run_cli
from test_formexpr import CORPUS


def conclude(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_conservation_identity():
    rng = random.Random(101)
    start = time.monotonic()
    count = 0
    pairs_seen = set()
    for n in (2, 3, 4, 5):
        chart = Chart(n)
        for p in range(1, n):
            pairs_seen.add((n, p))
            for _ in range(20):
                F = random_form(rng, chart, p, False, 2)
                G = random_form(rng, chart, n - p, True, 2)
                u = random_vector_field(rng, chart, 2)
                r = conservation_residual(u, FieldConfig(F, G))
                assert r.is_zero(), (n, p)
                count += 1
    elapsed = time.monotonic() - start
    ok = (count >= 200 and elapsed < 60.0
          and pairs_seen == {(n, p) for n in (2, 3, 4, 5) for p in range(1, n)})
    conclude(1, f"conservation residual zero on {count} instances, "
                f"n in 2..5, all p, {elapsed:.1f}s", ok)


def test_criterion_02_intermediate_identities():
    rng = random.Random(202)
    chart4 = Chart(4)
    main = 0
    for _ in range(100):
        F = random_form(rng, chart4, 2, False, 2)
        G = random_form(rng, chart4, 2, True, 2)
        u = random_vector_field(rng, chart4, 2)
        checks = identity_suite(u, FieldConfig(F, G))
        assert all(c.passed for c in checks)
        main += 1
    other = 0
    for n, p in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4)):
        chart = Chart(n)
        for _ in range(8):
            F = random_form(rng, chart, p, False, 2)
            G = random_form(rng, chart, n - p, True, 2)
            u = random_vector_field(rng, chart, 2)
            assert all(c.passed for c in identity_suite(u, FieldConfig(F, G)))
            other += 1
    ok = main >= 100 and other >= 50
    conclude(2, f"identity suite exact on {main} (n=4,p=2) + {other} other (n,p)",
             ok)


def test_criterion_03_phi_vanishes_for_metric_laws():
    rng = random.Random(303)
    chart = Chart(4)
    metric = MetricSpec.minkowski(chart)
    us = [coordinate_field(chart, a) for a in range(4)]
    ml_count = 0
    for z0 in (1, 2, 377):
        law = MaxwellLorentz(metric, z0)
        for _ in range(18):
            F = random_form(rng, chart, 2, False, 2)
            cfg = FieldConfig(F, law.apply(F))
            for u in us:
                assert obstruction_phi_u(u, cfg).is_zero(), z0
            ml_count += 1
    ax_count = 0
    for z0, alpha in ((1, Fraction(5, 7)), (2, Fraction(-3)), (377, Fraction(1))):
        law = Axion(metric, z0, chart.const_poly(alpha))
        for _ in range(18):
            F = random_form(rng, chart, 2, False, 2)
            cfg = FieldConfig(F, law.apply(F))
            for u in us:
                assert obstruction_phi_u(u, cfg).is_zero(), (z0, alpha)
            ax_count += 1
    ok = ml_count >= 50 and ax_count >= 50
    conclude(3, f"phi_u = 0 for {ml_count} vacuum-law F and {ax_count} "
                "constant-axion F, Z0 in {1, 2, 377}, all coordinate u", ok)


def test_criterion_04_nonconstant_axion_witness():
    chart = Chart(4)
    metric = MetricSpec.minkowski(chart)
    law = Axion(metric, 1, chart.variable(1))
    F = parse_form("dx0^dx2 + dx1^dx3", chart, 2)
    cfg = FieldConfig(F, law.apply(F))
    u = coordinate_field(chart, 1)
    phi = obstruction_phi_u(u, cfg)
    residual = conservation_residual(u, cfg)
    expected = basis_form(chart, (0, 1, 2, 3), twist=True).scale(-1)
    ok = (not phi.is_zero()) and residual.is_zero() and phi == expected
    conclude(4, "non-constant axion gives phi_u != 0 while the balance "
                "residual stays exactly zero", ok)


def test_criterion_05_hodge_complex_structure():
    rng = random.Random(505)
    chart = Chart(4)
    lorentz = MetricSpec.minkowski(chart)
    euclid = MetricSpec.euclidean(chart)
    assert double_hodge_sign(lorentz, 2) == -1
    assert double_hodge_sign(euclid, 2) == 1
    counts = {"lorentz": 0, "euclid": 0}
    for name, metric, sign in (("lorentz", lorentz, -1), ("euclid", euclid, 1)):
        for _ in range(50):
            F = random_form(rng, chart, 2, False, 2)
            twice = hodge(metric, hodge(metric, F))
            assert twice == F.scale(sign), name
            counts[name] += 1
    for metric in (lorentz, euclid):
        for p in (1, 2, 3):
            for _ in range(10):
                a = random_form(rng, chart, p, False, 2)
                b = random_form(rng, chart, p, False, 2)
                assert wedge(a, hodge(metric, b)) == wedge(b, hodge(metric, a))
    ok = counts["lorentz"] >= 50 and counts["euclid"] >= 50
    conclude(5, "double Hodge is -1 Lorentzian / +1 Euclidean on "
                f"{counts['lorentz']}+{counts['euclid']} 2-forms; "
                "pairing A^*B = B^*A exact", ok)


Z_VALUES = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 5))


def _random_pair(rng, chart, z):
    F = random_form(rng, chart, 2, False, 2)
    G = random_form(rng, chart, 2, True, 2)
    return FieldPairZ(F, G, z)


def test_criterion_06_reciprocity_suite():
    rng = random.Random(606)
    chart = Chart(4)

    squares = 0
    for z in Z_VALUES:
        for _ in range(25):
            pair = _random_pair(rng, chart, z)
            twice = star_z(star_z(pair))
            assert twice.F == pair.F.scale(-1) and twice.G == pair.G.scale(-1)
            squares += 1

    invariances = 0
    for k in range(25):
        pair = _random_pair(rng, chart, Z_VALUES[k % 4])
        u = random_vector_field(rng, chart, 2)
        st = star_z(pair)
        a, b = FieldConfig(pair.F, pair.G), FieldConfig(st.F, st.G)
        assert sigma_u(u, a) == sigma_u(u, b)
        assert force_u(u, a) == force_u(u, b)
        assert obstruction_phi_u(u, a) == obstruction_phi_u(u, b)
        invariances += 1

    rescalings = 0
    for k in range(25):
        pair = _random_pair(rng, chart, Z_VALUES[k % 4])
        scale = (Fraction(2), Fraction(-5), Fraction(7, 3))[k % 3]
        other = FieldPairZ(pair.F.scale(scale), pair.G.scale(1 / scale), pair.z)
        assert pair_tensor(other) == pair_tensor(pair)
        assert pair_tensor(star_z(pair)) == tensor(-pair.G, pair.F)
        rescalings += 1

    eigens = 0
    for k in range(25):
        pair = _random_pair(rng, chart, Z_VALUES[k % 4]).to_complex()
        for sign in (1, -1):
            eig = self_reciprocal_pair(pair, sign)
            lam = (0, sign)
            st = star_z(eig)
            assert st.F == eig.F.scale(lam) and st.G == eig.G.scale(lam)
            assert eig.F == eig.G.scale((0, -sign * pair.z), pseudo=True)
        plus = self_reciprocal_pair(pair, 1)
        minus = self_reciprocal_pair(pair, -1)
        assert plus.F + minus.F == pair.F.scale(2)
        assert plus.G + minus.G == pair.G.scale(2)
        eigens += 1

    metric = MetricSpec.minkowski(chart)
    factored = 0
    for k in range(25):
        F = random_form(rng, chart, 2, False, 2)
        z0 = (Fraction(1), Fraction(3), Fraction(2, 5))[k % 3]
        checks = check_factorization(metric, z0, F)
        assert all(c.passed for c in checks) and len(checks) == 4
        factored += 1

    ok = min(squares, invariances, rescalings, eigens, factored) >= 25
    conclude(6, f"reciprocity: {squares} squares, {invariances} density "
                f"invariances, {rescalings} tensor rescalings, {eigens} "
                f"eigenpairs, {factored} factorizations, all exact", ok)


def test_criterion_07_split_roundtrip():
    rng = random.Random(707)
    chart = Chart(4)
    count = 0
    for _ in range(50):
        F = random_form(rng, chart, 2, False, 2)
        G = random_form(rng, chart, 2, True, 2)
        J = random_form(rng, chart, 3, True, 2)
        s = split_3plus1(F, G, J)
        flags = [(s.E, False), (s.B, False), (s.H, True), (s.D, True),
                 (s.j, True), (s.rho, True)]
        assert all(f.twist is want for f, want in flags)
        assert all(0 not in idx for f, _ in flags for idx in f.components)
        F2, G2, J2 = recompose(s)
        assert F2 == F and G2 == G and J2 == J
        count += 1
    conclude(7, f"3+1 split/recompose roundtrip exact on {count} triples, "
                "twist flags correct on all six fields", count >= 50)


def test_criterion_08_general_vs_specialized():
    rng = random.Random(808)
    chart = Chart(4)
    count = 0
    for _ in range(50):
        F = random_form(rng, chart, 2, False, 2)
        G = random_form(rng, chart, 2, True, 2)
        u = random_vector_field(rng, chart, 2)
        cfg = FieldConfig(F, G)
        assert sigma_u(u, cfg) == sigma_u_4d(u, cfg)
        assert force_u(u, cfg) == force_u_4d(u, cfg)
        assert obstruction_phi_u(u, cfg) == phi_u_4d(u, cfg)
        count += 1
    conclude(8, f"general signed formulas match the 4d specializations on "
                f"{count} instances", count >= 50)


def test_criterion_09_reflection_law():
    rng = random.Random(909)
    chart = Chart(4)
    refl = [[1 if (r == c) else 0 for c in range(4)] for r in range(4)]
    refl[1][1] = -1
    count = 0
    for k in range(25):
        z = Z_VALUES[k % 4]
        pair = _random_pair(rng, chart, z)
        back_F = pullback_linear(refl, pair.F)
        back_G = pullback_linear(refl, pair.G)
        assert back_F.twist is False and back_G.twist is True
        mirrored = FieldPairZ(back_F, back_G, -z)
        st_here = star_z(pair)
        st_mirror = star_z(mirrored)
        assert st_mirror.F.twist is False and st_mirror.G.twist is True
        assert st_mirror.F == pullback_linear(refl, st_here.F)
        assert st_mirror.G == pullback_linear(refl, st_here.G)
        count += 1
    conclude(9, "reflection x1 -> -x1 with z -> -z commutes with star_z and "
                f"preserves declared twists on {count} pairs", count >= 25)


def test_criterion_10_cli_contract(tmp_path):
    corpus_ok = 0
    for text, n, degree in CORPUS:
        chart = Chart(n)
        form = parse_form(text, chart, degree)
        printed = print_form(form)
        again = parse_form(printed, chart, degree)
        assert again == form, text
        assert print_form(again) == printed, text
        corpus_ok += 1

    base = {"n": 4, "p": 2, "seed": 42, "samples": 3, "mode": "complex"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base), encoding="utf-8")
    runs = [run_cli("reciprocity", "--config", str(cfg), "--format", "structured")
            for _ in range(2)]
    assert runs[0].returncode == 0
    identical = runs[0].stdout == runs[1].stdout and runs[0].stdout != ""

    ok_pass = run_cli("check", "--config", str(cfg)).returncode == 0
    fail_cfg = tmp_path / "fail.json"
    fail_cfg.write_text(json.dumps({
        "n": 4, "p": 2, "seed": 1, "samples": 1,
        "F": "dx0^dx1",
        "constitutive": {"kind": "custom", "G": "(x1)*dx2^dx3"},
    }), encoding="utf-8")
    ok_fail = run_cli("constitutive", "--config", str(fail_cfg)).returncode == 1
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(dict(base, F="dx0^")), encoding="utf-8")
    bad = run_cli("check", "--config", str(bad_cfg))
    ok_usage = bad.returncode == 2 and bad.stdout == "" and "1:" in bad.stderr

    ok = (corpus_ok >= 30 and identical and ok_pass and ok_fail and ok_usage)
    conclude(10, f"parse/print roundtrip on {corpus_ok}-case corpus, "
                 "byte-identical reports, exit statuses 0/1/2 verified", ok)
