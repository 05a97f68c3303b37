"""Acceptance suite: each test prints a pass/fail line with its runtime."""

import random
import sys
import time
from contextlib import contextmanager

from morseflow import (
    QQ,
    ZZ,
    assign_incidence_signs,
    cellular_chain_complex,
    check_mildness,
    entrance_path_category,
    essential_chain,
    face_poset_category,
    flow_category,
    geometric_nerve,
    hom_poset_loc,
    homology,
    invariant_factors,
    matching_to_morse_system,
    normalized_chain_complex,
    order_complex,
    stabilized_flow,
    validate_complex,
    validate_morse_system,
)
from morseflow.cosheaves import constant_cosheaf, cosheaf_homology, morse_chain_complex
from morseflow.localization import zigzag_to_text
from morseflow.matchings import ACYCLIC, CERTIFIED

from helpers import (
    ACCEPTANCE_LINES,
    minors_gcd_invariant_factors,
    random_acyclic_matching,
    random_complex,
    random_int_matrix,
    random_twisted_cosheaf,
)
from morseflow.fixtures import get_fixture


def _announce(line):
    # shown live under -s, and echoed in the terminal summary either way
    print(line, file=sys.__stdout__, flush=True)
    ACCEPTANCE_LINES.append(line)


@contextmanager
def criterion(number, label, budget):
    start = time.time()
    try:
        yield
    except BaseException:
        _announce(f"criterion {number} ({label}): FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    status = "PASS" if elapsed < budget else f"FAIL (over {budget}s budget)"
    _announce(f"criterion {number} ({label}): {status} ({elapsed:.1f}s)")
    assert elapsed < budget


def _nerve_betti(cat, maxdim, ring=QQ):
    skel = geometric_nerve(cat, maxdim)
    return homology(normalized_chain_complex(skel, ring)).betti()[:maxdim]


def test_criterion_1_sphere_baseline():
    with criterion(1, "sphere baseline", 10):
        fx = get_fixture("sphere")
        assert validate_complex(fx.complex).ok
        signs = assign_incidence_signs(fx.complex)
        summary = homology(cellular_chain_complex(fx.complex, signs, ZZ))
        assert summary.betti() == (1, 0, 1)
        assert summary.torsion() == ((), (), ())
        En = entrance_path_category(fx.complex)
        assert _nerve_betti(En, 3) == (1, 0, 1)


def test_criterion_2_sphere_flow_category():
    with criterion(2, "flow category of the sphere matching", 30):
        fx = get_fixture("calc61")
        En = entrance_path_category(fx.complex)
        ms = matching_to_morse_system(fx.complex, fx.matching, En)
        assert validate_morse_system(En, ms).ok
        flow = flow_category(En, ms, None)
        hom = flow.hom("t", "w")
        assert len(hom) == 8
        oc = order_complex(hom.elements, hom.leq)
        assert homology(normalized_chain_complex(oc, QQ)).betti()[:2] == (1, 1)
        assert _nerve_betti(flow.category, 3) == (1, 0, 1)
        assert flow.hom("w", "t").is_empty()


def test_criterion_3_face_poset_failure():
    with criterion(3, "face-poset localization failure", 10):
        fx = get_fixture("calc62")
        Fc = face_poset_category(fx.complex)
        ms = matching_to_morse_system(fx.complex, fx.matching, Fc)
        hom = hom_poset_loc(Fc, ms, "t", "w", None)
        assert len(hom) == 4
        bottom = hom.minimum()
        assert bottom is not None
        assert zigzag_to_text(bottom.canonical) == "t > z < b > y < x > w"
        flow = flow_category(Fc, ms, None)
        assert _nerve_betti(flow.category, 3) == (1, 0, 0)


def test_criterion_4_generalized_matching_stabilizes():
    with criterion(4, "generalized matching stabilization", 60):
        fx = get_fixture("calc63")
        En = entrance_path_category(fx.complex)
        ms = matching_to_morse_system(fx.complex, fx.matching, En)
        assert ms.critical == ("t", "w")
        flow, status = stabilized_flow(En, ms, 4)
        assert status == "stable"
        assert _nerve_betti(flow.category, 3) == (1, 0, 1)


def test_criterion_5_morse_compression():
    with criterion(5, "Morse compression of the circle complex", 5):
        fx = get_fixture("fig2")
        signs = assign_incidence_signs(fx.complex)
        En = entrance_path_category(fx.complex)
        ms = matching_to_morse_system(fx.complex, fx.matching, En)
        assert set(ms.critical) == {"w", "yz"}
        mc = morse_chain_complex(fx.complex, signs, constant_cosheaf(fx.complex, ZZ), fx.matching)
        compressed = homology(mc.chain)
        cellular = homology(cellular_chain_complex(fx.complex, signs, ZZ))
        assert compressed.betti() == cellular.betti() == (1, 1, 0)
        assert compressed.torsion() == cellular.torsion()


def test_criterion_6_randomized_property_suite():
    with criterion(6, "randomized property suite (100 instances)", 600):
        rng = random.Random(20250808)
        checked = 0
        while checked < 100:
            cx = random_complex(rng, 12)
            assert validate_complex(cx).ok
            matching = random_acyclic_matching(rng, cx)
            En = entrance_path_category(cx)
            ms = matching_to_morse_system(cx, matching, En)

            # (a) the four axioms hold for every derived classical system
            assert validate_morse_system(En, ms).ok

            # (b) every arrow is mild with a certified or acyclic verdict
            mild = check_mildness(En, ms)
            assert mild.all_mild
            assert all(e.verdict in (CERTIFIED, ACYCLIC) for e in mild.entries)

            # (c) nerve homology of the path category equals cellular homology
            signs = assign_incidence_signs(cx)
            cell_b = homology(cellular_chain_complex(cx, signs, QQ)).betti()
            dim = max(cx.top_dim, 0)
            assert _nerve_betti(En, dim + 1) == cell_b

            # (d) compression preserves cosheaf homology
            F = random_twisted_cosheaf(rng, cx, QQ)
            full = cosheaf_homology(cx, signs, F)
            small = homology(morse_chain_complex(cx, signs, F, matching).chain)
            assert full.betti() == small.betti()

            # (e) essential chains are constant on explored zigzag classes
            for w in ms.critical:
                for z in ms.critical:
                    if w == z:
                        continue
                    hom = hom_poset_loc(En, ms, w, z, None)
                    for cls in hom.elements:
                        chains = {essential_chain(En, member).arrows for member in cls.members}
                        assert len(chains) == 1
            checked += 1


def test_criterion_7_snf_oracle():
    with criterion(7, "invariant factors vs minors oracle (200 matrices)", 30):
        rng = random.Random(424242)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = random_int_matrix(rng, rows, cols)
            assert invariant_factors(m) == minors_gcd_invariant_factors(m)
