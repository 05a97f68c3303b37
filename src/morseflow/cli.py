"""Command-line interface: validation, flow hom-posets and homology reports.

Exit codes: 0 success, 1 validation or input failure, 2 computation-level
inconsistency (order violation, a localization move or composite outside
the enumerated zigzags, boundary square nonzero, singular matched
extension) or a computation out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .categories import entrance_path_category, face_poset_category
from .complexes import Complex, SignInconsistency, assign_incidence_signs, cellular_chain_complex, validate_complex
from .cosheaves import Cosheaf, cosheaf_homology, morse_chain_complex
from .fixtures import FIXTURES, get_fixture
from .homology import NotAComplex, homology
from .localization import LocalizationInconsistency, OrderViolation, hom_poset_loc, stabilized_flow, zigzag_to_text
from .matchings import BadPair, Matching, check_acyclic, check_mildness, matching_to_morse_system, validate_morse_system
from .nerves import geometric_nerve, nerve_homology
from .rings import NotInvertible, ring_from_name


def _read(path: str, parse):
    """The input file at ``path``, parsed by a ``from_json``."""
    return parse(Path(path).read_text(encoding="utf-8"))


def _require_valid(complex_) -> None:
    """Refuse a complex that fails validation as bad input."""
    report = validate_complex(complex_)
    if not report.ok:
        raise ValueError(f"complex fails validation: {report}")


def _checked_system(complex_, matching, which: str):
    """The category of a valid complex, the matching's Morse system on it, and
    the system's axiom and mildness reports."""
    cat = face_poset_category(complex_) if which == "face-poset" else entrance_path_category(complex_)
    system = matching_to_morse_system(complex_, matching, cat)
    return cat, system, validate_morse_system(cat, system), check_mildness(cat, system)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    print(f"command: {report['command']}")
    _emit_text(report.get("results", {}), indent="  ")
    for w in report.get("warnings", []):
        print(f"warning: {w}")


def _emit_text(value, indent=""):
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v and not _scalar_list(v):
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
            else:
                print(f"{indent}- {v}")


def _scalar_list(v):
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _summary_dict(summary):
    return {
        "ring": summary.ring_name,
        "betti": list(summary.betti()),
        "torsion": [list(t) for t in summary.torsion()],
        "groups": [summary.group_str(n) for n in range(len(summary.groups))],
    }


def cmd_validate(args) -> int:
    warnings: list[str] = []
    results: dict = {}
    failed = False
    complex_ = _read(args.complex, Complex.from_json)
    report = validate_complex(complex_)
    if report.ok:
        try:
            assign_incidence_signs(complex_)
        except SignInconsistency as exc:
            report.add("orientation", str(exc))
    results["complex"] = report.as_dict()
    failed |= not report.ok
    if args.matching and report.ok:
        matching = _read(args.matching, Matching.from_json)
        acyclic = check_acyclic(complex_, matching)
        results["acyclicity"] = acyclic.as_dict()
        failed |= not acyclic.ok
        if acyclic.ok:
            _, system, axioms, mild = _checked_system(complex_, matching, args.category)
            results["critical"] = list(system.critical)
            results["axioms"] = axioms.as_dict()
            results["mildness"] = mild.as_dict()
            failed |= not axioms.ok or not mild.all_mild
    _emit({"command": "validate", "results": results, "warnings": warnings}, args.format)
    return 1 if failed else 0


def _flow_with_status(complex_, args):
    """The category, system, stabilized flow, status and warnings of a valid
    complex and the matching file in ``args``."""
    matching = _read(args.matching, Matching.from_json)
    _require_valid(complex_)
    cat, system, axioms, mild = _checked_system(complex_, matching, args.category)
    warnings = []
    if not axioms.ok:
        warnings.append("system fails the Morse axioms; homotopy-equivalence claims are not guaranteed")
    if not mild.all_mild:
        warnings.append("system is not mild; homotopy-equivalence claims are not guaranteed")
    flow, status = stabilized_flow(cat, system, args.max_zigzag_len)
    if status == "unstable":
        warnings.append("zigzag enumeration did not stabilize; results are truncated")
    return cat, system, flow, status, warnings


def cmd_flow(args) -> int:
    complex_ = _read(args.complex, Complex.from_json)
    cat, system, flow, status, warnings = _flow_with_status(complex_, args)
    src, dst = args.from_cell, args.to_cell
    hom = flow.hom(src, dst) if (src in flow.objects and dst in flow.objects) else None
    if hom is None:
        hom = hom_poset_loc(cat, system, src, dst, flow.max_len)
    text = {c: zigzag_to_text(c.canonical) for c in hom.elements}
    classes = list(text.values())
    covers = [f"{text[a]}  =>  {text[b]}" for a, b in hom.covers()]
    results = {
        "from": src,
        "to": dst,
        "status": status,
        "critical": list(system.critical),
        "classes": classes,
        "class_count": len(classes),
        "cover_relations": covers,
    }
    _emit({"command": "flow", "results": results, "warnings": warnings}, args.format)
    return 0


def cmd_homology(args) -> int:
    ring = ring_from_name(args.coefficients)
    warnings: list[str] = []
    results: dict = {"mode": args.mode}
    complex_ = _read(args.complex, Complex.from_json)
    needs = {"nerve-flow": "matching", "cosheaf": "cosheaf", "morse": "matching"}.get(args.mode)
    if needs and not args.matching:
        raise ValueError(f"mode {args.mode} needs a {needs} file")
    if args.mode == "complex":
        signs = assign_incidence_signs(complex_)
        summary = homology(cellular_chain_complex(complex_, signs, ring))
        results["homology"] = _summary_dict(summary)
    elif args.mode == "nerve-en":
        _require_valid(complex_)
        cat = entrance_path_category(complex_)
        results["max_nerve_dim"] = args.max_nerve_dim
        results["homology"] = _summary_dict(nerve_homology(geometric_nerve(cat, args.max_nerve_dim), ring))
    elif args.mode == "nerve-flow":
        _, system, flow, status, warnings = _flow_with_status(complex_, args)
        results["status"] = status
        results["critical"] = list(system.critical)
        results["max_nerve_dim"] = args.max_nerve_dim
        results["homology"] = _summary_dict(nerve_homology(flow.nerve(args.max_nerve_dim), ring))
    elif args.mode == "cosheaf":
        cosheaf = _read(args.matching, Cosheaf.from_json)  # second positional is the cosheaf here
        signs = assign_incidence_signs(complex_)
        summary = cosheaf_homology(complex_, signs, cosheaf)
        results["homology"] = _summary_dict(summary)
    else:  # morse
        matching = _read(args.matching, Matching.from_json)
        signs = assign_incidence_signs(complex_)
        cosheaf = _read(args.cosheaf, Cosheaf.from_json) if args.cosheaf else None
        mc = morse_chain_complex(complex_, signs, cosheaf, matching)
        results["generators"] = {str(d): list(cells) for d, cells in enumerate(mc.critical)}
        # without a cosheaf the complex is over Z and reads over any ring; a cosheaf's stays over its own ring
        results["homology"] = _summary_dict(homology(mc.chain if cosheaf else mc.chain.over(ring)))
    _emit({"command": "homology", "results": results, "warnings": warnings}, args.format)
    return 0


def cmd_fixture(args) -> int:
    if args.action == "list":
        _emit(
            {
                "command": "fixture",
                "results": {"fixtures": sorted(FIXTURES)},
                "warnings": [],
            },
            args.format,
        )
        return 0
    fx = get_fixture(args.name)
    outdir = Path(args.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    cx_path = outdir / f"{fx.name}-complex.json"
    cx_path.write_text(fx.complex.to_json() + "\n", encoding="utf-8")
    written.append(str(cx_path))
    if fx.matching is not None:
        m_path = outdir / f"{fx.name}-matching.json"
        m_path.write_text(fx.matching.to_json() + "\n", encoding="utf-8")
        written.append(str(m_path))
    _emit(
        {
            "command": "fixture",
            "results": {"written": written, "category": fx.category},
            "warnings": [],
        },
        args.format,
    )
    return 0


@cache  # built by the first main call, not at import, and reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="morseflow")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="validate a complex and optional matching")
    p.add_argument("complex")
    p.add_argument("matching", nargs="?")
    p.add_argument("--category", choices=("entrance-path", "face-poset"), default="entrance-path")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("flow", help="localized hom-poset between two cells")
    p.add_argument("complex")
    p.add_argument("matching")
    p.add_argument("--from", dest="from_cell", required=True)
    p.add_argument("--to", dest="to_cell", required=True)
    p.add_argument("--max-zigzag-len", type=int, default=4)
    p.add_argument("--category", choices=("entrance-path", "face-poset"), default="entrance-path")
    common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("homology", help="homology of complexes, nerves and compressions")
    p.add_argument("mode", choices=("complex", "nerve-en", "nerve-flow", "cosheaf", "morse"))
    p.add_argument("complex")
    p.add_argument("matching", nargs="?", help="matching file (or cosheaf file for mode 'cosheaf')")
    p.add_argument("cosheaf", nargs="?", help="cosheaf file for mode 'morse'")
    p.add_argument("--coefficients", default="Z",
                   help="Z, Q or Fp:<p>; ignored by 'cosheaf' and by 'morse' with a cosheaf, which use the cosheaf's ring")
    p.add_argument("--max-nerve-dim", type=int, default=3)
    p.add_argument("--max-zigzag-len", type=int, default=4)
    p.add_argument("--category", choices=("entrance-path", "face-poset"), default="entrance-path")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("fixture", help="list bundled fixtures or write their JSON files")
    p.add_argument("action", choices=("list", "dump"))
    p.add_argument("name", nargs="?")
    p.add_argument("dir", nargs="?", default=".")
    common(p)
    p.set_defaults(func=cmd_fixture)

    return parser


def _check_bounds(opts: dict) -> None:
    """Refuse out-of-range bounds before any work (exit 1, not argparse's 2)."""
    if opts.get("max_zigzag_len", 0) < 0:
        raise ValueError(f"--max-zigzag-len must be at least 0, got {opts['max_zigzag_len']}")
    if opts.get("max_nerve_dim", 1) < 1:
        raise ValueError(f"--max-nerve-dim must be at least 1, got {opts['max_nerve_dim']}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(vars(args))
        return args.func(args)
    except (OrderViolation, LocalizationInconsistency, NotAComplex, NotInvertible, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ValueError, BadPair, SignInconsistency, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
