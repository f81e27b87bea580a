"""Command-line front end: root listings, hexagram charts, gamma-matrix
reports, graded-algebra Jacobi reports and cubic-norm evaluations.

Exit codes: 0 success (and, for ``ep``, claim matched), 1 usage error,
2 claim mismatch, 3 I/O failure.  Commands write their files before
stdout, so exit 3 prints nothing there.  All output is deterministic for
fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ep as ep_mod
from . import star as star_mod
from .clifford import (
    CliffordNoBilinearError,
    Signature,
    build_rep,
    conjugation,
    reality_class,
    verify_relations,
)
from .linalg import _sign, int_text, rat_str
from .roots import AlgebraLabel, generate_roots, root_count
from .talgebra import (
    TElement,
    cubic_norm,
    entropy_of_norm,
    make_space,
    norm_and_rank,
    norm_gradient,
    rank,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int(text: str) -> int:
    """argparse's int, but a value past the interpreter's digit limit is
    refused by its digit count instead of echoed whole."""
    try:
        int_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return int(text)


_int.__name__ = "int"  # argparse names the type: "invalid int value: 'x'"


def _dump(data) -> str:
    return json.dumps(data, separators=(",", ":"), sort_keys=False)


def _cmd_roots(args) -> int:
    label = AlgebraLabel.parse(args.label)
    rs = generate_roots(label)
    if args.count:
        print(len(rs.roots))
        return 0
    for root in rs.roots:
        print(",".join(rat_str(x) for x in root))
    return 0


def _cmd_star(args) -> int:
    label = AlgebraLabel.parse(args.label)
    # the size refusal first, as for roots, then the host, before any root
    root_count(label)
    star_mod.require_host(label)
    rs = generate_roots(label)
    choice = star_mod.find_a2(rs)
    chart = star_mod.project(rs, choice)
    counts = star_mod.chart_counts(chart)
    counts["candidates_validated"] = choice.candidates_validated
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(star_mod.emit_chart(chart, "svg"))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(star_mod.emit_chart(chart, "csv"))
    print(_dump(counts))
    return 0


def _cmd_clifford(args) -> int:
    rep = build_rep(Signature(args.p, args.q))
    if args.check:
        verify_relations(rep)
    rc = reality_class(rep.sig)
    bilinears = {}
    for t in (1, -1):
        key = "%+d" % t
        try:
            bf = conjugation(rep, t)
            bilinears[key] = {"symmetry": bf.symmetry}
        except CliffordNoBilinearError:
            bilinears[key] = None
    summary = {
        "p": args.p,
        "q": args.q,
        "dim": rep.dim,
        "reality_class": rc.name,
        "chiral": rc.chiral,
        "bilinears": bilinears,
    }
    if args.emit:
        with open(args.emit, "w") as fh:
            for mu, (s, a, b) in enumerate(rep.labels):
                for c in range(rep.dim):
                    fh.write("%d,%d,%d,%d\n" % (mu, c ^ a, c, s * _sign(c & b)))
    print(_dump(summary))
    return 0


def _cmd_ep(args) -> int:
    level, n = args.level, args.n
    ep_mod.signature_for(level, n)  # size check before any work
    if args.samples < 1:
        raise ep_mod.EPError("samples must be at least 1")
    if n == 0 and args.polarization == "primed":
        raise ep_mod.EPError("--polarization primed applies at n >= 1; n = 0 calibrates unprimed")
    report = {
        "level": level,
        "n": n,
        "dimension": ep_mod.dimension(level, n),
        "grade_profile": ep_mod.grade_profiles(level, n),
        "polarization": args.polarization,
        "seed": args.seed,
        "samples": args.samples,
    }
    matched = False
    if n == 0:
        try:
            cal = ep_mod.calibrate(level, 0, seed=args.seed)
            report["calibration"] = {
                "values": {k: rat_str(v) for k, v in sorted(cal.coeffs.values.items())},
                "normalized": list(cal.coeffs.normalized),
                "verified_triples": cal.verified_triples,
            }
            report["jacobi_status"] = "lie-algebra"
            matched = True
        except ep_mod.EPError as exc:
            report["jacobi_status"] = "calibration-failed: %s" % exc
    else:
        res = ep_mod.jacobi_infeasibility(
            level, n, samples=args.samples, seed=args.seed, polarization=args.polarization
        )
        report["calibration"] = None
        report["jacobi_status"] = res.status
        if res.status == "violated":
            matched = True
            report["certificate_rows"] = [
                {"triple": ref[0], "component": str(ref[1]), "coeff": rat_str(c)}
                for ref, c in res.certificate
            ]
            if res.witness is not None:
                report["witness"] = {"triple_index": res.witness_index, **res.witness}
        else:
            report["assignment"] = {k: rat_str(v) for k, v in res.assignment.items()}
    print(_dump(report))
    return 0 if matched else 2


def _cmd_talg(args) -> int:
    space = make_space(args.q, args.n)
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except RecursionError:
        raise ValueError("element file nests too deeply to decode") from None
    el = TElement.from_json(space, data)
    if args.action == "norm":
        print(_dump({"N": rat_str(cubic_norm(space, el))}))
    elif args.action == "rank":
        print(_dump({"rank": rank(space, el)}))
    elif args.action == "entropy":
        norm, rk = norm_and_rank(space, el)
        value, _ = entropy_of_norm(norm)
        print(_dump({"N": rat_str(norm), "rank": rk, "entropy": value}))
    else:  # grad
        print(_dump({"grad": [rat_str(x) for x in norm_gradient(space, el)]}))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="magicstar")
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="list the roots of a simple algebra")
    p_roots.add_argument("label")
    p_roots.add_argument("--count", action="store_true")

    p_star = sub.add_parser("star", help="hexagram projection bucket counts")
    p_star.add_argument("label")
    p_star.add_argument("--svg")
    p_star.add_argument("--csv")

    p_cl = sub.add_parser("clifford", help="gamma matrix summary for a signature")
    p_cl.add_argument("p", type=_int)
    p_cl.add_argument("q", type=_int)
    p_cl.add_argument("--check", action="store_true")
    p_cl.add_argument("--emit")

    p_ep = sub.add_parser("ep", help="graded-algebra calibration / Jacobi report")
    p_ep.add_argument("--level", required=True, choices=list(ep_mod.LEVELS))
    p_ep.add_argument("--n", required=True, type=_int)
    p_ep.add_argument("--samples", type=_int, default=50)
    p_ep.add_argument("--seed", type=_int, default=7)
    p_ep.add_argument("--polarization", choices=["unprimed", "primed"], default="unprimed")

    p_t = sub.add_parser("talg", help="cubic norm evaluations on an element file")
    p_t.add_argument("--q", required=True, type=_int)
    p_t.add_argument("--n", required=True, type=_int)
    p_t.add_argument("action", choices=["norm", "rank", "entropy", "grad"])
    p_t.add_argument("--input", required=True)

    return parser


_COMMANDS = {
    "roots": _cmd_roots,
    "star": _cmd_star,
    "clifford": _cmd_clifford,
    "ep": _cmd_ep,
    "talg": _cmd_talg,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o failure: %s" % exc, file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
