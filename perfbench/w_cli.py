"""cli: the console entry point ybx.cli.main, called in-process with its
standard output and error captured.

The only workload where the expression evaluator, the JSON loader, JSON
output and catalog enumeration do most of the work: enumeration sets
pass_ref, the small commands set call_p50_ref.  Inputs: every ybo file under
data/ (check with seeded samples, invariants and rep --trace at seeded
bindings and words), equiv --p 3 on seeded pairs, catalog get for each id at
a seeded --seed, count-involutive for N = 1..6, and enum-perm for N = 2, 3
with the default single process.

Three malformed inputs fail on every run: each must exit with code 3 and a
message and no traceback, and does not yet (see CHANGES.md).  They do not
depend on the seed, so they are the same share of the operations in every
run.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import random
import traceback
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import oracle
from harness import Op, OperationFailed
from oracle import expect

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
TOP_LEVEL_LIST = Path(__file__).resolve().parent / "inputs" / "top-level-list.json"
VALUES = (F(2), F(3), F(-2), F(1, 2), F(-3, 2), F(2, 3), F(3, 4), F(5), F(-4, 3))
EQUIV_PAIRS = (("hietarinta-a.json", "hietarinta-a.json"),
               ("hietarinta-slash.json", "hietarinta-slash.json"),
               ("hietarinta-a.json", "hietarinta-f.json"),
               ("hietarinta-slash.json", "hietarinta-slash-glue-2.json"))

# -- an expression evaluator of the benchmark's own (Python's parser) --------------


def evaluate(text: str, binding: dict):
    """Evaluate a ybx entry expression over Fractions (i as a complex unit)."""
    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return F(node.value)
        if isinstance(node, ast.Name):
            return 1j if node.id == "i" else binding[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = walk(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp):
            a, b = walk(node.left), walk(node.right)
            op = type(node.op)
            if op is ast.Add:
                return a + b
            if op is ast.Sub:
                return a - b
            if op is ast.Mult:
                return a * b
            if op is ast.Div:
                return a / b
            if op is ast.Pow:
                return a ** int(b)
        raise ValueError(f"unsupported expression {text!r}")

    return walk(ast.parse(text.replace("^", "**"), mode="eval"))


def matrix_at(doc: dict, binding: dict):
    return [[evaluate(e, binding) for e in row] for row in doc["entries"]]


def _draw_binding(rng, doc):
    while True:
        binding = {p: rng.choice(VALUES) for p in doc.get("params", [])}
        try:
            if all(evaluate(c, binding) for c in doc.get("constraints", [])) and \
                    oracle.rank(matrix_at(doc, binding)) == 4:
                return binding
        except ZeroDivisionError:
            continue


def _bind_arg(binding: dict) -> list:
    if not binding:
        return []
    return ["--bind", ",".join(f"{k}={v}" for k, v in sorted(binding.items()))]


# -- invoking the console entry point ---------------------------------------------


def invoke(ybx, argv):
    """(exit code, stdout, stderr, traceback or None) of ybx.cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    tb = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ybx.cli.main(argv)
        except SystemExit as exc:          # argparse rejects its input
            code = exc.code
        except Exception:                  # an uncaught error is a traceback
            code, tb = None, traceback.format_exc(limit=3)
    return code, out.getvalue(), err.getvalue(), tb


def _ok_json(result, code=0):
    got, stdout, stderr, tb = result
    if tb is not None:
        raise OperationFailed(f"traceback:\n{tb}")
    expect(got == code, f"exit code {got}, want {code}; stderr {stderr.strip()!r}")
    return json.loads(stdout)


def check_input_error(result):
    """A malformed input: exit code 3, a message, no traceback."""
    code, stdout, stderr, tb = result
    if tb is not None or "Traceback" in stderr:
        raise OperationFailed("uncaught exception (traceback) instead of exit code 3")
    if code != 3 or not stderr.strip():
        raise OperationFailed(f"exit code {code} with {stdout.strip()!r}, want 3 and a message")


# -- setup ------------------------------------------------------------------------


def setup(ybx, seed: int) -> dict:
    importlib.import_module("ybx.cli")   # the package does not import its console module
    rng = random.Random(seed)
    docs = {p.name: json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))}
    ybo = {name: doc for name, doc in docs.items() if doc.get("kind") == "ybo"}
    files = []
    for name, doc in ybo.items():
        binding = _draw_binding(rng, doc)
        letters = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(5)]
        files.append((name, doc, binding, letters))
    pairs = []
    for a, b in EQUIV_PAIRS:
        keys = sorted(set(ybo[a].get("params", [])) | set(ybo[b].get("params", [])))
        while True:
            binding = {k: rng.choice(VALUES) for k in keys}
            try:
                RA, RB = matrix_at(ybo[a], binding), matrix_at(ybo[b], binding)
            except ZeroDivisionError:
                continue
            if oracle.rank(RA) < 4 or oracle.rank(RB) < 4:
                continue
            spectra = [np.sort_complex(np.linalg.eigvals(oracle.to_numpy(M))) for M in (RA, RB)]
            same = np.allclose(spectra[0], spectra[1], atol=1e-9)
            if (a == b) == same:
                break
        pairs.append((a, b, binding, RA, RB))
    return {"files": files, "pairs": pairs, "seed": rng.randrange(10 ** 6),
            "catalog_ids": ybx.catalog_ids()}


# -- ops --------------------------------------------------------------------------


def _file_ops(ybx, name, doc, binding, letters, seed):
    path = str(DATA / name)
    samples = 3

    def check_check(result):
        report = _ok_json(result)
        want = samples if doc.get("params") else 1
        expect(report["holds"] is True and len(report["samples"]) == want,
               f"check reports {report['holds']} on {len(report['samples'])} bindings")
        expect(report["max_residual"] == 0, "exact residual is not 0")
        for sample in report["samples"]:
            b = {k: F(v) for k, v in sample["binding"].items()}
            R = oracle.to_numpy(matrix_at(doc, b))
            expect(oracle.np_ybe_residual(R, 2) < 1e-9, "numpy YBE residual is not 0")

    R = matrix_at(doc, binding)

    def check_invariants(result):
        report = _ok_json(result)
        expect(report["size"] == 4, "size is not 4")
        expect(sum(m for _, m in report["spectrum"]) == 4, "multiplicities do not sum to 4")
        traces = report["traces"]
        RR = oracle.matmul(R, R)
        expect(F(traces["R"]) == sum(R[i][i] for i in range(4)), "trace of R is wrong")
        expect(F(traces["RR"]) == sum(RR[i][i] for i in range(4)), "trace of R^2 is wrong")
        expect(F(traces["P"]) == 2 and F(traces["PP"]) == 4, "traces of the flip are wrong")

    def check_rep(result):
        report = _ok_json(result)
        M = None
        for e in letters:
            g = oracle.generator(oracle.invert(R) if e < 0 else R, 2, 4, abs(e))
            M = g if M is None else oracle.matmul(M, g)
        expect(F(report["trace"]) == sum(M[i][i] for i in range(16)),
               "trace of rho differs from the exact product")

    word = " ".join(str(e) for e in letters)
    bind = _bind_arg(binding)
    return [
        Op(f"check/{name}", lambda: invoke(ybx, ["check", path, "--samples", str(samples),
                                                 "--seed", str(seed), "--json"]), check_check),
        Op(f"invariants/{name}", lambda: invoke(ybx, ["invariants", path, "--json"] + bind),
           check_invariants),
        Op(f"rep/{name}", lambda: invoke(ybx, ["rep", path, "--strands", "4", "--word", word,
                                               "--trace", "--json"] + bind), check_rep),
    ]


def ops(ybx, inputs: dict) -> list:
    seed = inputs["seed"]
    out = []
    for name, doc, binding, letters in inputs["files"]:
        out.extend(_file_ops(ybx, name, doc, binding, letters, seed))
    for a, b, binding, RA, RB in inputs["pairs"]:
        want = 0 if a == b else 1

        def check_equiv(result, want=want):
            report = _ok_json(result, want)
            verdict = "equivalent" if want == 0 else "not_equivalent"
            expect(report["verdict"] == verdict, f"verdict {report['verdict']}, want {verdict}")

        argv = ["equiv", str(DATA / a), str(DATA / b), "--p", "3", "--json"] + _bind_arg(binding)
        out.append(Op(f"equiv/{a}~{b}", lambda argv=argv: invoke(ybx, argv), check_equiv))
    for cid in inputs["catalog_ids"]:
        def check_get(result, cid=cid):
            report = _ok_json(result)
            expect(report["id"] == cid and report["verified"] is True, "object not verified")
            R = [[F(v) for v in row] for row in report["matrix"]]
            expect(oracle.rank(R) == 4, "catalog object is singular")
            expect(oracle.np_ybe_residual(oracle.to_numpy(R), 2) < 1e-9,
                   "catalog object fails YBE")

        out.append(Op(f"catalog-get/{cid}",
                      lambda cid=cid: invoke(ybx, ["catalog", "get", cid, "--seed", str(seed),
                                                   "--json"]), check_get))
    for n in range(1, 7):
        def check_count(result, n=n):
            report = _ok_json(result)
            want = sum(oracle.partition_count(k) * oracle.partition_count(n - k)
                       for k in range(n + 1))
            expect(report["count"] == want, f"count {report['count']}, want {want}")

        out.append(Op(f"count-involutive/{n}",
                      lambda n=n: invoke(ybx, ["count-involutive", "--N", str(n), "--json"]),
                      check_count))
    golden = {2: (5, 5), 3: (73, 29)}
    for n in (2, 3):
        def check_enum(result, n=n):
            report = _ok_json(result)
            counts = report["counts"]
            expect((counts["solutions"], counts["classes"]) == golden[n],
                   f"{counts['solutions']}/{counts['classes']} solutions/classes")
            expect(counts["nondegenerate_involutive_classes"] ==
                   oracle.ESS_NONDEGENERATE_INVOLUTIVE[n],
                   "non-degenerate involutive classes differ from the ESS table")
            expect(all(oracle.perm_is_ybe(c, n) for c in report["classes"]),
                   "a class representative fails the braid relation")

        out.append(Op(f"enum-perm/{n}",
                      lambda n=n: invoke(ybx, ["enum-perm", "--N", str(n), "--json"]),
                      check_enum))
    slash = str(DATA / "hietarinta-slash.json")
    for label, argv in (
            ("singular-binding", ["check", slash, "--bind", "k=0,q=1,p=1,s=1"]),
            ("negative-samples", ["check", slash, "--samples", "-3"]),
            ("top-level-list", ["check", str(TOP_LEVEL_LIST)])):
        out.append(Op(f"malformed/{label}", lambda argv=argv: invoke(ybx, argv),
                      check_input_error))
    return out
