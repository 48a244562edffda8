from fractions import Fraction
from itertools import product

import pathlib
import random

import pytest
from conftest import apply, basis_value, flatten, rref, span, unit_vector, vectors, yau_twist

from nhomlie import extension
from nhomlie.algebra import bracket, center, derived_subspace, is_homogeneous, transport, validate
from nhomlie.cli import main
from nhomlie.extension import build_check, check_prop42, check_prop43, phi
from nhomlie.fixtures import (
    FIXTURES, abelian2, aff1, corrupt_jacobi, filippov, homaff1, super2, threeLie4,
)
from nhomlie.linalg import Mat, SubspaceBasis, commutes_with, extend_to_complement, vector
from nhomlie.propositions import _mat_witness, random_even_invertible
from nhomlie.solver import GradedEndo, Kind, omega, solve

F = Fraction
DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "nhomlie" / "data"


class TestBuildCheck:
    def test_abelian_extension(self):
        text = build_check(abelian2())
        assert text.ext.dim == 4
        assert text.ext.table == {}
        assert validate(text.ext).all_ok

    def test_aff1_extension_bracket(self):
        text = build_check(aff1())
        # single product: first-block pair lands at e1 shifted into block two
        assert text.ext.table == {(0, 1): vector([0, 0, 0, 1])}
        assert validate(text.ext).all_ok

    def test_threeLie4_extension_validates(self):
        text = build_check(threeLie4())
        assert text.ext.dim == 8
        assert validate(text.ext).all_ok

    def test_alpha_acts_blockwise(self):
        from nhomlie.fixtures import homaff1
        text = build_check(homaff1())
        expected = Mat.from_rows([
            [1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
        assert text.ext.alpha == expected

    def test_parity_copied_blockwise(self):
        text = build_check(super2())
        assert text.ext.parity == (0, 1, 0, 1)

    def test_second_block_annihilates(self):
        # any argument from the second block kills the bracket
        for name in ("aff1", "super2", "threeLie4"):
            text = build_check(FIXTURES[name]())
            ext = text.ext
            d = text.base.dim
            for t in product(range(2 * d), repeat=ext.arity):
                if any(i >= d for i in t):
                    assert basis_value(ext, t) == vector([0] * 2 * d)

    def test_complement_splits_the_space(self):
        derived_even = derived_subspace(aff1())[0]
        u_even = extend_to_complement(derived_even, [0, 1])
        assert vectors(u_even) == (unit_vector(2, 0),)
        assert vectors(derived_even) == (unit_vector(2, 1),)
        # the projection onto the derived part kills that complement
        assert build_check(aff1()).derived_projection == Mat.from_rows([[0, 0], [0, 1]])

    def test_rejects_invalid_source(self):
        with pytest.raises(ValueError):
            build_check(corrupt_jacobi())

    def test_decompose_validates_the_extension_once(self, monkeypatch):
        # check_prop42 and check_prop43 share one cached extension
        counted = []

        def counting_validate(alg):
            counted.append(alg.name)
            return validate(alg)

        monkeypatch.setattr(extension, "validate", counting_validate)
        assert main(["decompose", str(DATA / "aff1.json"), "--kmax", "0"]) == 0
        assert counted.count("aff1^ext") == 1


class TestPhi:
    def test_zero_pair_gives_zero(self):
        text = build_check(aff1())
        img = phi(text, GradedEndo(Mat.zero(2, 2), 0), Mat.zero(2, 2), 0)
        assert img.mat.is_zero()

    def test_identity_with_doubled_witness(self):
        text = build_check(aff1())
        img = phi(text, GradedEndo(Mat.identity(2), 0), Mat.identity(2).scale(2), 0)
        expected = Mat.from_rows([
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 0],   # complement part of the second block is killed
            [0, 0, 0, 2],   # derived part is scaled by the witness
        ])
        assert img.mat == expected

    def test_witness_choice_is_irrelevant(self):
        text = build_check(aff1())
        d = GradedEndo(Mat.identity(2), 0)
        w1 = Mat.identity(2).scale(2)
        # another valid witness: differs by a map vanishing on the derived line
        w2 = w1 + Mat.from_rows([[5, 0], [7, 0]])
        assert phi(text, d, w1, 0).mat == phi(text, d, w2, 0).mat

    def test_invalid_witness_pair_rejected(self):
        text = build_check(aff1())
        with pytest.raises(ValueError):
            phi(text, GradedEndo(Mat.identity(2), 0), Mat.identity(2), 0)

    def test_linear_in_both_arguments(self):
        text = build_check(aff1())
        alg = text.base
        qd = solve(alg, Kind.QDER, 0, 0)
        (d1, w1), (d2, w2) = list(zip(qd.basis, qd.witnesses))[:2]
        lhs = phi(text, GradedEndo(d1.mat + d2.mat, 0), w1 + w2, 0)
        rhs = phi(text, d1, w1, 0).mat + phi(text, d2, w2, 0).mat
        assert lhs.mat == rhs

    def test_image_satisfies_derivation_rule_in_extension(self):
        from nhomlie.solver import in_space
        for name in ("aff1", "super2"):
            alg = FIXTURES[name]()
            text = build_check(alg)
            for k in (0, 1):
                for xi in (0, 1):
                    qd = solve(alg, Kind.QDER, k, xi)
                    for g, w in zip(qd.basis, qd.witnesses):
                        img = phi(text, g, w, k)
                        assert in_space(text.ext, Kind.DER, k, xi, img)


class TestWitnessSlack:
    @pytest.mark.parametrize("name", [n + s for n in sorted(FIXTURES) for s in ("", "~")])
    def test_directions_are_the_maps_killing_the_derived_part(self, name):
        alg = FIXTURES[name.rstrip("~")]()
        if name.endswith("~"):
            alg = transport(alg, random_even_invertible(alg.parity, random.Random(3)))
        derived = [v for part in derived_subspace(alg) for v in vectors(part)]
        d = alg.dim
        for k, xi in product(range(3), (0, 1)):
            slack = solve(alg, Kind.QDER, k, xi).slack
            for w in slack:
                assert is_homogeneous(alg.parity, xi, w)
                assert commutes_with(w, alg.alpha)
                assert not any(x for v in derived for x in apply(w, v))
            flat = [flatten(w) for w in slack]
            assert span(d * d, flat).dim == len(slack)
            # canonical form, in the canonical order
            SubspaceBasis(d * d, tuple(w.vec_pairs() for w in slack))
            # no direction is missing: count the maps commuting with alpha
            # that kill the derived part, as a kernel inside Omega
            basis = omega(alg, xi).basis
            images = [tuple(x for v in derived for x in apply(b.mat, v)) for b in basis]
            rank = rref(Mat.from_rows(images, cols=d * len(derived))).rank if images else 0
            assert len(slack) == len(basis) - rank
            for kind in Kind:
                if kind not in (Kind.QDER, Kind.GDER):
                    assert solve(alg, kind, k, xi).slack == ()


class TestProp42:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_embedding_checks_pass(self, name):
        report = check_prop42(FIXTURES[name](), 2)
        assert report.passed, [(c.claim_id, c.status) for c in report.claims]

    def test_super2_has_odd_component(self):
        # odd quasiderivations exist, so the odd branch is exercised
        assert solve(super2(), Kind.QDER, 0, 1).dim > 0
        assert check_prop42(super2(), 1).passed


    def test_parity_witness_is_the_first_failing_grade(self, monkeypatch):
        alg = homaff1()
        text = build_check(alg)
        qd = solve(alg, Kind.QDER, 1, 0)
        # the first image at k = 1 is diag(1, 0, 0, 2), an image at no other grade
        planted = phi(text, qd.basis[0], qd.witnesses[0], 1).mat
        real = extension.is_homogeneous
        monkeypatch.setattr(extension, "is_homogeneous",
                            lambda parity, xi, mat: mat != planted and real(parity, xi, mat))
        claim = check_prop42(alg, 2).claim("42.1.parity_preserving")
        assert claim.status == "fail"
        assert claim.witness == ((1, 0), _mat_witness(planted))

    def test_injective_witness_is_the_first_failing_grade(self, monkeypatch):
        real = extension.phi

        def collapsing(text, endo, witness, k):
            img = real(text, endo, witness, k)
            return GradedEndo(Mat.zero(4, 4), img.xi) if k == 2 else img

        monkeypatch.setattr(extension, "phi", collapsing)
        claim = check_prop42(homaff1(), 2).claim("42.2.injective")
        assert claim.status == "fail"
        # (k, xi, dim QDer, dim of the image span)
        assert claim.witness == ((2, 0, 2, 0), ())

    def test_witness_independence_witness_is_the_first_failing_grade(self, monkeypatch):
        real = extension.phi

        def unprojected(text, endo, witness, k):
            # from k = 1 on, the witness is embedded without the projection
            # onto [N, N], so its slack part shows
            img = real(text, endo, witness, k)
            return img if k == 0 else GradedEndo(extension._block_diagonal(endo.mat, witness),
                                                 img.xi)

        monkeypatch.setattr(extension, "phi", unprojected)
        alg = homaff1()
        claim = check_prop42(alg, 2).claim("42.2.witness_independent")
        assert claim.status == "fail"
        # the seeded draws are -3, -3 for the two basis maps at k = 0, then
        # -1 for the first at k = 1; the slack there is diag(1, 0)
        assert solve(alg, Kind.QDER, 1, 0).slack == (Mat.from_rows([[1, 0], [0, 0]]),)
        assert claim.witness == ((1, 0), (("-1", "0"), ("0", "0")))

    def test_image_in_der_witness_is_the_first_failing_grade(self, monkeypatch):
        real = extension.in_space

        def fake(alg, kind, k, xi, endo):
            return (k, xi) not in {(1, 0), (2, 0)} and real(alg, kind, k, xi, endo)

        monkeypatch.setattr(extension, "in_space", fake)
        # homaff1's twist powers are all distinct, so the walk reaches k = 1 and 2
        alg = homaff1()
        report = check_prop42(alg, 2)
        claim = report.claim("42.3.image_in_Der")
        assert claim.status == "fail"
        qd = solve(alg, Kind.QDER, 1, 0)
        first = phi(build_check(alg), qd.basis[0], qd.witnesses[0], 1)
        assert claim.witness == ((1, 0), _mat_witness(first.mat))


@pytest.mark.parametrize("make, calls", [
    (threeLie4, {0: 16, 2: 16}),  # alpha = id
    (lambda: yau_twist(filippov(3), [-1, -1, 1, 1]), {1: 16, 3: 16}),  # alpha^2 = id
    (homaff1, {0: 4, 2: 12}),  # every power distinct; each pair again with slack noise
], ids=["threeLie4", "filippov3_signs", "homaff1"])
def test_decompose_embeds_each_twist_power_once(make, calls, monkeypatch):
    # 4.3 reads the images that 4.2 embedded at each least power
    counted = []
    real = extension.phi

    def counting(*args):
        counted.append(args)
        return real(*args)

    monkeypatch.setattr(extension, "phi", counting)
    for kmax, want in calls.items():
        counted.clear()
        alg = make()
        check_prop42(alg, kmax)
        assert len(counted) == want, kmax
        check_prop43(alg, kmax)
        assert len(counted) == want, kmax


class TestProp43:
    def test_direct_sum_witness_is_the_first_failing_grade(self, monkeypatch):
        # the sum grown by the identity, which is not a derivation of the
        # extension, keeps A and B independent but overshoots Der(ext)
        real = extension.subspace_sum

        def grown(a, b):
            both = real(a, b)
            return real(both, SubspaceBasis(both.ambient_dim, (Mat.identity(4).vec_pairs(),)))

        monkeypatch.setattr(extension, "subspace_sum", grown)
        claim = check_prop43(aff1(), 2).claim("43.direct_sum")
        assert claim.status == "fail"
        assert claim.witness == (((0, 0), "sum does not exhaust the derivation space"),)

    def test_aff1_decomposition_dimensions(self):
        report = check_prop43(aff1(), 2)
        assert report.passed
        detail = report.claim("43.direct_sum").detail
        assert "k=0 xi=0: 4+6=10" in detail

    def test_skips_when_center_nonzero(self):
        report = check_prop43(abelian2(), 2)
        assert all(c.status == "skipped" for c in report.claims)

    def test_threeLie4_decomposition(self):
        report = check_prop43(threeLie4(), 1)
        assert report.passed

    def test_super2_decomposition(self):
        report = check_prop43(super2(), 2)
        assert report.passed

    def test_extension_center_is_second_block(self):
        text = build_check(aff1())
        even, odd = center(text.ext)
        assert vectors(even) == (unit_vector(4, 2), unit_vector(4, 3))
        assert odd.dim == 0
