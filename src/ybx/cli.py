"""Command-line front end.

Exit codes: 0 = holds/equivalent/found, 1 = refuted, 2 = inconclusive,
3 = input error.  ``--json`` emits a machine-readable report including the
provenance of every sampled binding; identical seeds give identical reports.

File format (exact; entries are expression strings, row-major)::

    {"kind": "ybo", "N": 2, "level": 1, "backend": "exact-q",
     "params": ["k", "q"], "constraints": ["k", "q"],
     "entries": [["k", "0", "0", "0"], ...]}

Plain matrices use kind "matrix" with "rows"/"cols".  Bindings on the
command line look like ``--bind k=3/2,q=-1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .braid import parse_word
from .catalog import (
    catalog_entry,
    catalog_get,
    catalog_ids,
    enumerate_permutation_solutions,
    involutive_class_count,
    sample_entry_binding,
)
from .config import DEFAULT_TOL
from .core import YBObject, is_ybe, make_ybo, rho
from .constructions import boxplus, cable, ds_transform, lash
from .equivalence import local_invariants, p_equivalent, x_symmetry_check
from .errors import ConstraintViolated, YbxError
from .expressions import ParamBinding, eval_expr, sample_binding
from .scalars import Backend, format_scalar, to_complex
from .structure import (
    duality_verify,
    end_search,
    end_verify,
    extract_from_endo,
    segre_eigenvectors,
)
from .tensor import Matrix

EXIT_HOLDS = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


def _parse_binding(text: str | None) -> ParamBinding:
    values = {}
    if text:
        for piece in text.split(","):
            if not piece.strip():
                continue
            name, _, raw = piece.partition("=")
            if not raw:
                raise YbxError(f"binding piece {piece!r} is not name=value")
            values[name.strip()] = eval_expr(raw.strip())
    return ParamBinding(values)


def _load_doc(path: str, kind: str) -> dict:
    """Read a JSON document of the given kind and check its shape: a non-empty
    rectangular list of expression strings, string params and constraints,
    and for objects integer N and level."""
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise YbxError(f"{path}: expected a JSON object of kind {kind!r}")
    entries = doc.get("entries")
    if (not isinstance(entries, list) or not entries
            or any(not isinstance(row, list) or len(row) != len(entries[0]) for row in entries)
            or any(not isinstance(e, str) for row in entries for e in row)):
        raise YbxError(f"{path}: 'entries' must be a rectangular list of rows of "
                       "expression strings")
    for key in ("params", "constraints"):
        values = doc.get(key, [])
        if not isinstance(values, list) or any(not isinstance(v, str) for v in values):
            raise YbxError(f"{path}: {key!r} must be a list of strings")
    if kind == "ybo":
        for key, default in (("N", None), ("level", 1)):
            value = doc.get(key, default)
            if type(value) is not int or value < 1:
                raise YbxError(f"{path}: {key!r} must be a positive integer")
    return doc


def _entries_to_matrix(doc: dict, binding: ParamBinding) -> Matrix:
    rows = [[eval_expr(e, binding) for e in row] for row in doc["entries"]]
    M = Matrix.from_rows(rows)
    if doc.get("backend") == "complex-f":
        M = M.promote_to(Backend.COMPLEX_F)
    return M


def _doc_params(doc: dict) -> list:
    return list(doc.get("params", []))


def _ybo(doc: dict, binding: ParamBinding) -> YBObject:
    """The document's object at a binding; R must be invertible there.  The
    Yang-Baxter equation is not checked."""
    return make_ybo(doc["N"], _entries_to_matrix(doc, binding), level=doc.get("level", 1),
                    verify=False)


def _load_ybo(path: str, binding: ParamBinding) -> YBObject:
    return _ybo(_load_doc(path, "ybo"), binding)


def _load_matrix(path: str, binding: ParamBinding) -> Matrix:
    return _entries_to_matrix(_load_doc(path, "matrix"), binding)


def _sampled_bindings(doc: dict, given: ParamBinding, samples: int, seed: int):
    """Points of the document's family: the given binding, completed by
    `samples` seeded draws when parameters are missing.  Each must keep every
    constraint of the document nonzero."""
    params = _doc_params(doc)
    missing = [p for p in params if p not in given]
    constraints = list(doc.get("constraints", []))
    out = [given]
    if missing:
        out = [sample_binding(missing, constraints, seed + k, given.values)
               for k in range(samples)]
    for binding in out:
        for cons in constraints:
            if not eval_expr(cons, binding):
                raise ConstraintViolated(f"constraint {cons!r} vanishes at the binding")
    return out


def _matrix_json(M: Matrix):
    if M.backend.is_exact:
        return [[format_scalar(v) for v in row] for row in M.data]
    return [[[to_complex(v).real, to_complex(v).imag] for v in row] for row in M.data]


def _binding_json(binding: ParamBinding):
    return {name: format_scalar(v) for name, v in sorted(binding.values.items())}


def _emit(args, code: int, report: dict) -> int:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        summary = report.get("summary", "")
        if summary:
            print(summary)
    return code


# -- command handlers ----------------------------------------------------------


def _cmd_check(args) -> int:
    if args.samples < 1:
        raise YbxError(f"--samples must be at least 1, got {args.samples}")
    doc = _load_doc(args.file, "ybo")
    given = _parse_binding(args.bind)
    bindings = _sampled_bindings(doc, given, args.samples, args.seed)
    results = []
    worst = 0.0
    all_hold = True
    for binding in bindings:
        report = is_ybe(_ybo(doc, binding), tol=args.tol)
        results.append({"binding": _binding_json(binding), "holds": report.holds,
                        "residual": report.residual})
        worst = max(worst, report.residual)
        all_hold = all_hold and report.holds
    code = EXIT_HOLDS if all_hold else EXIT_REFUTED
    return _emit(args, code, {
        "command": "check", "file": args.file, "samples": results,
        "holds": all_hold, "max_residual": worst, "seed": args.seed,
        "summary": f"YBE {'holds' if all_hold else 'FAILS'} "
                   f"on {len(results)} binding(s); max residual {worst}",
    })


def _cmd_rep(args) -> int:
    doc = _load_doc(args.file, "ybo")
    bindings = _sampled_bindings(doc, _parse_binding(args.bind), 1, args.seed)
    obj = _ybo(doc, bindings[0])
    word = parse_word(args.word, args.strands)
    M = rho(obj, word)
    report = {"command": "rep", "file": args.file, "strands": args.strands,
              "word": args.word, "binding": _binding_json(bindings[0])}
    if args.trace:
        tr = M.trace()
        report["trace"] = format_scalar(tr)
        report["summary"] = f"trace rho_{args.strands}({args.word}) = {format_scalar(tr)}"
    else:
        report["matrix"] = _matrix_json(M)
        report["summary"] = f"rho_{args.strands}({args.word}) is {M.rows}x{M.cols}"
        if not args.json:
            print(M.pretty())
    return _emit(args, EXIT_HOLDS, report)


def _cmd_cable(args) -> int:
    doc = _load_doc(args.file, "ybo")
    bindings = _sampled_bindings(doc, _parse_binding(args.bind), 1, args.seed)
    obj = _ybo(doc, bindings[0])
    out = cable(obj, args.k, tol=args.tol)
    report = {"command": "cable", "k": args.k, "N": out.N, "level": out.level,
              "matrix": _matrix_json(out.R), "binding": _binding_json(bindings[0]),
              "summary": f"{args.k}-cable verified: rank {out.N}, level {out.level}"}
    if not args.json:
        print(out.R.pretty())
    return _emit(args, EXIT_HOLDS, report)


def _cmd_lash(args) -> int:
    A = _load_ybo(args.a, _parse_binding(args.bind))
    B = _load_ybo(args.b, _parse_binding(args.bind))
    out = lash(A, B, tol=args.tol)
    report = {"command": "lash", "N": out.N, "matrix": _matrix_json(out.R),
              "summary": f"lashing product verified: rank {out.N}"}
    return _emit(args, EXIT_HOLDS, report)


def _cmd_dsum(args) -> int:
    A = _load_ybo(args.a, _parse_binding(args.bind))
    B = _load_ybo(args.b, _parse_binding(args.bind))
    mu = eval_expr(args.mu)
    out = boxplus(A, B, mu, tol=args.tol)
    report = {"command": "dsum", "N": out.N, "matrix": _matrix_json(out.R),
              "summary": f"direct sum verified: rank {out.N}"}
    return _emit(args, EXIT_HOLDS, report)


def _cmd_ds_transform(args) -> int:
    binding = _parse_binding(args.bind)
    obj = _load_ybo(args.file, binding)
    Q = _load_matrix(args.q, binding)
    out = ds_transform(obj, Q, tol=args.tol)
    report = {"command": "ds-transform", "matrix": _matrix_json(out.R),
              "summary": "DS transform verified"}
    if not args.json:
        print(out.R.pretty())
    return _emit(args, EXIT_HOLDS, report)


def _cmd_endo(args) -> int:
    binding = _parse_binding(args.bind)
    obj = _load_ybo(args.file, binding)
    if args.verify:
        A = _load_matrix(args.verify, binding)
        ok = end_verify(obj, A, tol=args.tol)
        return _emit(args, EXIT_HOLDS if ok else EXIT_REFUTED, {
            "command": "endo", "verified": ok,
            "summary": f"endomorphism check: {'passes' if ok else 'FAILS'}"})
    strategy = {"diag": "diagonal", "monomial": "monomial", "commutant": "commutant"}[args.strategy]
    result = end_search(obj, strategy, seed=args.seed)
    report = {
        "command": "endo", "strategy": strategy, "complete": result.complete,
        "elements": [{"rank": e.rank, "matrix": _matrix_json(e.A)} for e in result.elements],
        "summary": f"found {len(result.elements)} endomorphism(s) "
                   f"({'complete' if result.complete else 'partial'} search)",
    }
    return _emit(args, EXIT_HOLDS if result.elements else EXIT_INCONCLUSIVE, report)


def _cmd_sub_extract(args) -> int:
    binding = _parse_binding(args.bind)
    obj = _load_ybo(args.file, binding)
    A = _load_matrix(args.endo, binding)
    sub, quot = extract_from_endo(obj, A, tol=args.tol)
    report = {
        "command": "sub-extract", "rank": sub.M,
        "Q": _matrix_json(sub.Q), "S": _matrix_json(sub.S), "P": _matrix_json(quot.P),
        "summary": f"extracted subobject and quotient of rank {sub.M}",
    }
    if not args.json:
        print("Q ="); print(sub.Q.pretty())
        print("S ="); print(sub.S.pretty())
        print("P ="); print(quot.P.pretty())
    return _emit(args, EXIT_HOLDS, report)


def _cmd_segre(args) -> int:
    binding = _parse_binding(args.bind)
    obj = _load_ybo(args.file, binding)
    try:
        result = segre_eigenvectors(obj, side=args.side, complete=True, tol=args.tol)
    except YbxError:
        result = segre_eigenvectors(obj, side=args.side, complete=False, tol=args.tol)
    pairs = [{"vector": _matrix_json(v), "eigenvalue": format_scalar(lam)}
             for v, lam in result.pairs]
    report = {"command": "segre", "side": args.side, "complete": result.complete,
              "pairs": pairs,
              "summary": f"{len(pairs)} product eigenvector ray(s) on the {args.side} "
                         f"({'complete' if result.complete else 'partial'} search)"}
    return _emit(args, EXIT_HOLDS if pairs else EXIT_INCONCLUSIVE, report)


def _cmd_dual_verify(args) -> int:
    binding = _parse_binding(args.bind)
    A = _load_ybo(args.a, binding)
    B = _load_ybo(args.b, binding)
    coev = _load_matrix(args.coev, binding)
    ev = _load_matrix(args.ev, binding)
    ok = duality_verify(A, B, coev, ev, tol=args.tol)
    return _emit(args, EXIT_HOLDS if ok else EXIT_REFUTED, {
        "command": "dual-verify", "holds": ok,
        "summary": f"duality witnesses {'verify' if ok else 'FAIL'}"})


def _cmd_equiv(args) -> int:
    binding = _parse_binding(args.bind)
    A = _load_ybo(args.a, binding)
    B = _load_ybo(args.b, binding)
    cert = p_equivalent(A, B, args.p, seed=args.seed, tol=args.tol)
    code = {"equivalent": EXIT_HOLDS, "not_equivalent": EXIT_REFUTED,
            "inconclusive_singular": EXIT_INCONCLUSIVE}[cert.verdict]
    return _emit(args, code, {
        "command": "equiv", "p": args.p, "verdict": cert.verdict,
        "failed_n": cert.failed_n, "witness": cert.witness,
        "dims": {str(k): v for k, v in cert.dims.items()},
        "traces": {str(k): v for k, v in cert.traces.items()},
        "summary": f"p-equivalence (p = {args.p}): {cert.verdict}"
                   + (f" at n = {cert.failed_n} ({cert.witness})" if cert.failed_n else ""),
    })


def _cmd_invariants(args) -> int:
    binding = _parse_binding(args.bind)
    obj = _load_ybo(args.file, binding)
    rep = local_invariants(obj, L=args.words)
    report = {
        "command": "invariants", "size": rep.size,
        "spectrum": [[str(v), m] for v, m in rep.spectrum],
        "traces": {w: format_scalar(t) for w, t in sorted(rep.traces.items())},
        "jordan": None if rep.jordan is None else [[str(v), list(b)] for v, b in rep.jordan],
        "charge_conserving": rep.charge_conserving,
        "additive_cc": rep.additive_cc,
        "summary": f"spectrum {[(str(v), m) for v, m in rep.spectrum]}; "
                   f"cc={rep.charge_conserving}",
    }
    return _emit(args, EXIT_HOLDS, report)


def _cmd_catalog(args) -> int:
    if args.action == "list":
        ids = catalog_ids()
        return _emit(args, EXIT_HOLDS, {
            "command": "catalog", "ids": ids, "summary": "\n".join(ids)})
    if args.id is None:
        raise YbxError("catalog get needs an entry id (see 'ybx catalog list')")
    entry = catalog_entry(args.id)
    binding = _parse_binding(args.bind)
    missing = [p for p in entry.params if p not in binding]
    if missing:
        sampled = sample_entry_binding(args.id, args.seed)
        merged = dict(sampled.values)
        merged.update(binding.values)
        binding = ParamBinding(merged, args.seed)
    obj = catalog_get(args.id, binding)
    report = {"command": "catalog", "id": entry.id, "N": entry.N,
              "binding": _binding_json(binding), "matrix": _matrix_json(obj.R),
              "verified": obj.verified,
              "summary": f"{entry.id}: verified Yang-Baxter object at "
                         f"{_binding_json(binding)}"}
    if not args.json:
        print(obj.R.pretty())
    return _emit(args, EXIT_HOLDS, report)


def _cmd_enum_perm(args) -> int:
    result = enumerate_permutation_solutions(args.N)
    report = {"command": "enum-perm", "N": args.N, "counts": result.counts,
              "classes": [list(c) for c in result.classes],
              "summary": f"N={args.N}: {result.counts['solutions']} solutions, "
                         f"{result.counts['classes']} classes under relabeling"}
    return _emit(args, EXIT_HOLDS, report)


def _cmd_count_involutive(args) -> int:
    count = involutive_class_count(args.N)
    return _emit(args, EXIT_HOLDS, {
        "command": "count-involutive", "N": args.N, "count": count,
        "summary": str(count)})


def _cmd_x_symmetry(args) -> int:
    binding = _parse_binding(args.bind)
    obj = _load_ybo(args.file, binding)
    X = _load_matrix(args.x, binding)
    report = x_symmetry_check(obj, X, args.n_max, tol=args.tol)
    code = EXIT_HOLDS if report.ok else EXIT_REFUTED
    return _emit(args, code, {
        "command": "x-symmetry", "ok": report.ok, "method": report.method,
        "per_n": {str(n): v for n, v in report.per_n.items()},
        "summary": f"X-symmetry up to n = {args.n_max}: "
                   f"{'pass' if report.ok else 'FAIL'} ({report.method})"})


class _Parser(argparse.ArgumentParser):
    """Usage errors raise YbxError, so they exit with the input-error code 3
    rather than argparse's 2, which here means "inconclusive"."""

    def error(self, message: str):
        raise YbxError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parsing leaves it unchanged."""
    parser = _Parser(prog="ybx", description="Yang-Baxter matrix toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bind=True):
        p.add_argument("--json", action="store_true")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--seed", type=int, default=0)
        if bind:
            p.add_argument("--bind", default=None)

    p = sub.add_parser("check");  common(p)
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=5)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("rep");  common(p)
    p.add_argument("file")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("cable");  common(p)
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_cable)

    p = sub.add_parser("lash");  common(p)
    p.add_argument("a"); p.add_argument("b")
    p.set_defaults(func=_cmd_lash)

    p = sub.add_parser("dsum");  common(p)
    p.add_argument("a"); p.add_argument("b")
    p.add_argument("--mu", required=True)
    p.set_defaults(func=_cmd_dsum)

    p = sub.add_parser("ds-transform");  common(p)
    p.add_argument("file")
    p.add_argument("--q", required=True)
    p.set_defaults(func=_cmd_ds_transform)

    p = sub.add_parser("endo");  common(p)
    p.add_argument("file")
    p.add_argument("--strategy", choices=["diag", "monomial", "commutant"], default="diag")
    p.add_argument("--verify", default=None)
    p.set_defaults(func=_cmd_endo)

    p = sub.add_parser("sub-extract");  common(p)
    p.add_argument("file")
    p.add_argument("--endo", required=True)
    p.set_defaults(func=_cmd_sub_extract)

    p = sub.add_parser("segre");  common(p)
    p.add_argument("file")
    p.add_argument("--side", choices=["left", "right"], default="right")
    p.set_defaults(func=_cmd_segre)

    p = sub.add_parser("dual-verify");  common(p)
    p.add_argument("a"); p.add_argument("b")
    p.add_argument("--coev", required=True)
    p.add_argument("--ev", required=True)
    p.set_defaults(func=_cmd_dual_verify)

    p = sub.add_parser("equiv");  common(p)
    p.add_argument("a"); p.add_argument("b")
    p.add_argument("--p", type=int, default=3)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("invariants");  common(p)
    p.add_argument("file")
    p.add_argument("--words", type=int, default=4)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("catalog");  common(p)
    p.add_argument("action", choices=["list", "get"])
    p.add_argument("id", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    about = "permutation solutions, N = 2, 3; nondegenerate_involutive_classes is the ESS count"
    p = sub.add_parser("enum-perm", help=about, description=about);  common(p, bind=False)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_enum_perm)

    about = "sum of p(k) p(N-k), 20 at N = 4; not Etingof-Schedler-Soloviev's count (23)"
    p = sub.add_parser("count-involutive", help=about, description=about);  common(p, bind=False)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_count_involutive)

    p = sub.add_parser("x-symmetry");  common(p)
    p.add_argument("file")
    p.add_argument("--x", required=True)
    p.add_argument("--n-max", type=int, default=4)
    p.set_defaults(func=_cmd_x_symmetry)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (YbxError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
