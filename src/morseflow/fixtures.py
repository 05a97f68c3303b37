"""Bundled example complexes and matchings."""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Cell, Complex
from .matchings import Matching


@dataclass
class Fixture:
    name: str
    complex: Complex
    matching: Matching | None = None
    category: str = "entrance-path"


def sphere_complex() -> Complex:
    """Minimal regular decomposition of the 2-sphere: two cells per dimension."""
    cells = [
        Cell("w", 0), Cell("y", 0),
        Cell("x", 1), Cell("z", 1),
        Cell("t", 2), Cell("b", 2),
    ]
    covers = [
        ("x", "w"), ("x", "y"),
        ("z", "w"), ("z", "y"),
        ("t", "x"), ("t", "z"),
        ("b", "x"), ("b", "z"),
    ]
    return Complex(cells, covers)


def fig2_complex() -> Complex:
    """A circle built from a filled triangle with two extra edges."""
    cells = [
        Cell("w", 0), Cell("x", 0), Cell("y", 0), Cell("z", 0),
        Cell("wx", 1), Cell("wy", 1), Cell("xy", 1), Cell("xz", 1), Cell("yz", 1),
        Cell("wxy", 2),
    ]
    covers = [
        ("wx", "w"), ("wx", "x"),
        ("wy", "w"), ("wy", "y"),
        ("xy", "x"), ("xy", "y"),
        ("xz", "x"), ("xz", "z"),
        ("yz", "y"), ("yz", "z"),
        ("wxy", "wx"), ("wxy", "wy"), ("wxy", "xy"),
    ]
    return Complex(cells, covers)


def _fixtures() -> dict:
    sphere = sphere_complex()
    fig2 = fig2_complex()
    sphere_matching = Matching((("x", "y"), ("b", "z")), "classical")
    return {
        "sphere": Fixture("sphere", sphere),
        "fig2": Fixture(
            "fig2",
            fig2,
            matching=Matching((("wx", "x"), ("wy", "y"), ("xz", "z"), ("wxy", "xy")), "classical"),
        ),
        "calc61": Fixture("calc61", sphere, matching=sphere_matching),
        "calc62": Fixture("calc62", sphere, matching=sphere_matching, category="face-poset"),
        "calc63": Fixture("calc63", sphere, matching=Matching((("b", "y"),), "generalized")),
    }


FIXTURES = _fixtures()


def get_fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; available: {sorted(FIXTURES)}") from None
