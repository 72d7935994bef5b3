"""The closed-form class solve: t = P(chi(y)) with P the inverse of the section characters."""

from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import character_reference as ref
from coxstokes import cli, steinberg
from coxstokes.coxeter import bipartition
from coxstokes.rootcore import build_root_system
from coxstokes.steinberg import ConsistencyError, character_map, stokes_from_asymptotics
from coxstokes.weightrep import registered_representation

REGISTERED = ("A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4", "E6")
# the family rules also one rank above the registered ones
CLOSED_FORM_TYPES = REGISTERED + ("B5", "C4", "D6")


def _identity(l):
    return {node: {tuple(int(j == node) for j in range(1, l + 1)): 1} for node in range(1, l + 1)}


def _exponent_maps(name):
    l = build_root_system(name).rank
    return tuple({node: ref.exponents(poly, l) for node, poly in half.items()} for half in character_map(name))


@pytest.mark.parametrize("name", CLOSED_FORM_TYPES)
def test_closed_form_tables_are_exact(name):
    # chi(C(t)), derived exactly from its values on the integer grid of
    # ref.degree_bound after the recipe's weights are checked against the
    # Freudenthal table, is character_map's forward polynomial; its constants
    # chi_i(C(0)) lie in {-1, 0, 1} (Kostant, Adv. Math. 20, 1976); and
    # character_map's t(chi) inverts it as a polynomial map
    l = build_root_system(name).rank
    chi_of_t, t_of_chi = _exponent_maps(name)
    assert chi_of_t == ref.exact_character_map(name)
    assert all(poly.get((0,) * l, 0) in (-1, 0, 1) for poly in chi_of_t.values())
    assert ref.compose(t_of_chi, chi_of_t, l) == _identity(l)
    assert ref.compose(chi_of_t, t_of_chi, l) == _identity(l)


@pytest.mark.parametrize("name", CLOSED_FORM_TYPES)
def test_every_closed_form_coefficient_is_checked(name):
    # a single coefficient moved by one, in either map, fails the exact check
    l = build_root_system(name).rank
    exact = ref.exact_character_map(name)
    maps = _exponent_maps(name)
    for which, half in enumerate(maps):
        for node, poly in half.items():
            for exps in poly:
                tampered = {k: dict(v) for k, v in half.items()}
                tampered[node][exps] += 1
                if which == 0:
                    assert tampered != exact, (node, exps)
                else:
                    assert ref.compose(tampered, exact, l) != _identity(l), (node, exps)


def test_tampered_inverse_fails_the_class_solve(monkeypatch):
    # at run time the forward polynomial checks the inverse: E6 t_4 = chi_4 +
    # chi_2 + chi_1 chi_6 with the chi_1 chi_6 coefficient doubled is caught
    chi_of_t, t_of_chi = character_map("E6")
    tampered = {k: dict(v) for k, v in t_of_chi.items()}
    tampered[4][(1, 6)] = 2
    monkeypatch.setitem(steinberg._EXCEPTIONAL_MAPS, "E6", (chi_of_t, tampered))
    with pytest.raises(ConsistencyError, match=r"closed form: character residual \S+ \(bound 1e-10\) at node 4$"):
        stokes_from_asymptotics("E6", [Q(-1, 3), Q(1, 2), Q(0), Q(1, 4), Q(-1, 5), Q(1, 3)])


def test_no_closed_form_for_e7():
    with pytest.raises(steinberg.UnsupportedRepresentationError, match="E7"):
        character_map("E7")


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(REGISTERED),
    parts=st.lists(st.floats(-2, 2), min_size=12, max_size=12),
)
def test_closed_form_inverts_the_section_characters(name, parts):
    # P(chi(C(t))) = t at random complex t, chi read off the float sections
    l = build_root_system(name).rank
    t = np.array(parts[:l]) + 1j * np.array(parts[6 : 6 + l])
    chi = ref.fundamental_traces(name, t)
    got = steinberg._closed_form(name, ref.gamma_order(name), chi)
    assert np.max(np.abs(got - t)) <= 1e-12 * max(1.0, np.max(np.abs(chi))) ** 2


@pytest.mark.parametrize("name", REGISTERED)
def test_stokes_evaluates_no_character_section(name, monkeypatch):
    # with the section characters forbidden, stokes runs at every vertex of
    # every registered type, and an op evaluates one section: M0's, in the
    # registered representation
    def forbidden(*args):
        raise AssertionError("section characters evaluated")

    monkeypatch.setattr(ref, "fundamental_traces", forbidden)
    monkeypatch.setattr(ref, "character_sections", forbidden)
    reps = []
    section = steinberg.steinberg_section

    def recorded(rep, bip, t):
        reps.append(rep)
        return section(rep, bip, t)

    monkeypatch.setattr(steinberg, "steinberg_section", recorded)
    rs = build_root_system(name)
    l, s = rs.rank, rs.coxeter_number
    vertices = [(0,) * l] + [tuple(rs.epsilon_basis[k][j] / rs.marks[j + 1] for k in range(l)) for j in range(l)]
    for v, y in enumerate(vertices):
        reps.clear()
        sd = stokes_from_asymptotics(name, [s * c - x for c, x in zip(y, rs.r_coeffs)])
        assert reps == [registered_representation(name)], v
        assert np.array_equal(sd.m0, section(reps[0], bipartition(rs), sd.t).full()), v


def test_stokes_op_maps_the_alcove_once(monkeypatch, capsys):
    # the CLI hands its alcove point to stokes_from_asymptotics
    calls = []
    alcove_map = steinberg.alcove_map

    def counted(rs, m):
        calls.append(m)
        return alcove_map(rs, m)

    monkeypatch.setattr(steinberg, "alcove_map", counted)
    monkeypatch.setattr(cli, "alcove_map", counted)
    for name, m in (("B3", "0,1,0"), ("E6", "0,0,0,0,0,0"), ("C3", "1/2,7/4,11/8")):
        calls.clear()
        assert cli.main(["stokes", "--type", name, "--m=" + m]) == cli.EXIT_OK, name
        assert len(calls) == 1, name
    capsys.readouterr()
