"""Command-line interface: validation, flow hom-posets and homology reports.

Exit codes: 0 success, 1 validation or input failure, 2 computation-level
inconsistency (order violation, a localization move or composite outside
the enumerated zigzags, boundary square nonzero, singular matched
extension).
"""

from __future__ import annotations

import argparse
import json
import sys
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


def _load_complex(path: str) -> Complex:
    return Complex.from_json(Path(path).read_text(encoding="utf-8"))


def _load_matching(path: str) -> Matching:
    return Matching.from_json(Path(path).read_text(encoding="utf-8"))


def _load_cosheaf(path: str) -> Cosheaf:
    return Cosheaf.from_json(Path(path).read_text(encoding="utf-8"))


def _category(complex_, which: str):
    if which == "face-poset":
        return face_poset_category(complex_)
    return entrance_path_category(complex_)


def _valid_category(complex_, which: str):
    """The category of a complex that passes validation; bad input otherwise."""
    report = validate_complex(complex_)
    if not report.ok:
        raise ValueError(f"complex fails validation: {report}")
    return _category(complex_, which)


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
    complex_ = _load_complex(args.complex)
    report = validate_complex(complex_)
    if report.ok:
        try:
            assign_incidence_signs(complex_)
        except SignInconsistency as exc:
            report.add("orientation", str(exc))
    results["complex"] = report.as_dict()
    failed |= not report.ok
    if args.matching and report.ok:
        matching = _load_matching(args.matching)
        acyclic = check_acyclic(complex_, matching)
        results["acyclicity"] = acyclic.as_dict()
        failed |= not acyclic.ok
        if acyclic.ok:
            cat = _category(complex_, args.category)
            system = matching_to_morse_system(complex_, matching, cat)
            results["critical"] = list(system.critical)
            axioms = validate_morse_system(cat, system)
            results["axioms"] = axioms.as_dict()
            failed |= not axioms.ok
            mild = check_mildness(cat, system)
            results["mildness"] = mild.as_dict()
            failed |= not mild.all_mild
    _emit({"command": "validate", "results": results, "warnings": warnings}, args.format)
    return 1 if failed else 0


def _flow_with_status(complex_, matching, category_name, max_len):
    cat = _valid_category(complex_, category_name)
    system = matching_to_morse_system(complex_, matching, cat)
    warnings = []
    axioms = validate_morse_system(cat, system)
    if not axioms.ok:
        warnings.append(
            "system fails the Morse axioms; homotopy-equivalence claims are not guaranteed"
        )
    mild = check_mildness(cat, system)
    if not mild.all_mild:
        warnings.append("system is not mild; homotopy-equivalence claims are not guaranteed")
    flow, status = stabilized_flow(cat, system, max_len)
    if status == "unstable":
        warnings.append("zigzag enumeration did not stabilize; results are truncated")
    return cat, system, flow, status, warnings


def cmd_flow(args) -> int:
    complex_ = _load_complex(args.complex)
    matching = _load_matching(args.matching)
    cat, system, flow, status, warnings = _flow_with_status(
        complex_, matching, args.category, args.max_zigzag_len
    )
    src, dst = args.from_cell, args.to_cell
    hom = flow.hom(src, dst) if (src in flow.objects and dst in flow.objects) else None
    if hom is None:
        hom = hom_poset_loc(cat, system, src, dst, flow.max_len)
    classes = [zigzag_to_text(c.canonical) for c in hom.elements]
    covers = [
        f"{zigzag_to_text(a.canonical)}  =>  {zigzag_to_text(b.canonical)}"
        for a, b in hom.covers()
    ]
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
    complex_ = _load_complex(args.complex)
    if args.mode == "complex":
        signs = assign_incidence_signs(complex_)
        summary = homology(cellular_chain_complex(complex_, signs, ring))
        results["homology"] = _summary_dict(summary)
    elif args.mode == "nerve-en":
        cat = _valid_category(complex_, "entrance-path")
        results["max_nerve_dim"] = args.max_nerve_dim
        results["homology"] = _summary_dict(nerve_homology(geometric_nerve(cat, args.max_nerve_dim), ring))
    elif args.mode == "nerve-flow":
        if not args.matching:
            raise ValueError("mode nerve-flow needs a matching file")
        matching = _load_matching(args.matching)
        cat, system, flow, status, warnings = _flow_with_status(
            complex_, matching, args.category, args.max_zigzag_len
        )
        results["status"] = status
        results["critical"] = list(system.critical)
        results["max_nerve_dim"] = args.max_nerve_dim
        results["homology"] = _summary_dict(nerve_homology(flow.nerve(args.max_nerve_dim), ring))
    elif args.mode == "cosheaf":
        if not args.matching:
            raise ValueError("mode cosheaf needs a cosheaf file")
        cosheaf = _load_cosheaf(args.matching)  # second positional is the cosheaf here
        signs = assign_incidence_signs(complex_)
        summary = cosheaf_homology(complex_, signs, cosheaf)
        results["homology"] = _summary_dict(summary)
    elif args.mode == "morse":
        if not args.matching:
            raise ValueError("mode morse needs a matching file")
        matching = _load_matching(args.matching)
        signs = assign_incidence_signs(complex_)
        cosheaf = _load_cosheaf(args.cosheaf) if args.cosheaf else None
        mc = morse_chain_complex(complex_, signs, cosheaf, matching)
        results["generators"] = {str(d): list(cells) for d, cells in enumerate(mc.critical)}
        # without a cosheaf the complex is over Z and reads over any ring; a cosheaf's stays over its own ring
        results["homology"] = _summary_dict(homology(mc.chain if cosheaf else mc.chain.over(ring)))
    else:
        raise ValueError(f"unknown homology mode {args.mode!r}")
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
    if fx.cosheaf is not None:
        c_path = outdir / f"{fx.name}-cosheaf.json"
        c_path.write_text(fx.cosheaf.to_json() + "\n", encoding="utf-8")
        written.append(str(c_path))
    _emit(
        {
            "command": "fixture",
            "results": {"written": written, "category": fx.category},
            "warnings": [],
        },
        args.format,
    )
    return 0


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
    p.add_argument("--coefficients", default="Z")
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
    except (OrderViolation, LocalizationInconsistency, NotAComplex, NotInvertible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, BadPair, SignInconsistency, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
