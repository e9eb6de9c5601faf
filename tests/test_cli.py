import json
import pathlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybx.cli import build_parser, main
from ybx.expressions import eval_expr
from ybx.tensor import Matrix

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_slash_five_samples(capsys):
    code, out, err = run(capsys, "check", str(DATA / "hietarinta-slash.json"),
                         "--samples", "5", "--seed", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["holds"] is True
    assert report["max_residual"] == 0
    assert len(report["samples"]) == 5
    assert all("binding" in s for s in report["samples"])


def test_check_refuted(tmp_path, capsys):
    doc = {"kind": "ybo", "N": 2, "level": 1, "backend": "exact-q",
           "entries": [["1", "0", "0", "0"], ["0", "1", "1", "0"],
                       ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
    path = write_json(tmp_path, "bad.json", doc)
    code, out, _ = run(capsys, "check", path)
    assert code == 1


def test_check_bound_binding(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "hietarinta-slash.json"),
                       "--bind", "k=1,q=2,p=3,s=4")
    assert code == 0
    assert "holds" in out


def test_check_partial_binding_samples_the_rest(capsys):
    # the constraint k is evaluated over the given k and the sampled q, p, s
    code, out, _ = run(capsys, "check", str(DATA / "hietarinta-slash.json"),
                       "--bind", "k=1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["holds"] is True and len(report["samples"]) == 5
    assert all(s["binding"]["k"] == "1" for s in report["samples"])
    code, out, _ = run(capsys, "check", str(DATA / "hietarinta-slash.json"), "--bind", "k=1")
    assert code == 0 and "holds" in out


def test_rep_trace_ising(capsys):
    code, out, _ = run(capsys, "rep", str(DATA / "hietarinta-ising.json"),
                       "--strands", "3", "--word", "1 -2", "--trace")
    assert code == 0
    assert out.strip().endswith("= 4")


def test_cable_command(capsys):
    code, out, _ = run(capsys, "cable", str(DATA / "hietarinta-f.json"),
                       "--k", "2", "--bind", "k=1,p=1,q=-2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["level"] == 2 and len(report["matrix"]) == 16


def test_count_involutive(capsys):
    code, out, _ = run(capsys, "count-involutive", "--N", "4")
    assert code == 0
    assert out.strip() == "20"


def test_enum_perm_n2(capsys):
    code, out, _ = run(capsys, "enum-perm", "--N", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["solutions"] == 5


def test_shared_parser_carries_no_state(capsys):
    # the parser is built once per process; a usage error or a --json call before a
    # call must not change what that call does
    build_parser.cache_clear()
    alone = run(capsys, "enum-perm", "--N", "2", "--json")
    build_parser.cache_clear()
    assert run(capsys, "enum-perm")[0] == 3
    assert run(capsys, "enum-perm", "--N", "2", "--json")[:2] == alone[:2]
    code, out, _ = run(capsys, "enum-perm", "--N", "2")
    assert code == 0
    assert out == "N=2: 5 solutions, 5 classes under relabeling\n"


def test_catalog_list_and_get(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "hietarinta:ising" in out
    code, out, _ = run(capsys, "catalog", "get", "hietarinta:ising", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    code, out, err = run(capsys, "catalog", "get", "missing:id")
    assert code == 3


def test_catalog_get_without_id_names_the_missing_id(capsys):
    code, out, err = run(capsys, "catalog", "get")
    assert code == 3
    assert "needs an entry id" in err and "None" not in err


def test_equiv_command(capsys):
    a = str(DATA / "hietarinta-slash.json")
    code, out, _ = run(capsys, "equiv", a, a, "--p", "3",
                       "--bind", "k=1,q=2,p=3,s=4", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "equivalent"


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", str(DATA / "hietarinta-ising.json"),
                       "--words", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["charge_conserving"] is False
    assert len(report["traces"]) == 2 + 4 + 8


def test_segre_and_endo(tmp_path, capsys):
    code, out, _ = run(capsys, "segre", str(DATA / "perm-flip.json"), "--side",
                       "right", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["pairs"]
    code, out, _ = run(capsys, "endo", str(DATA / "hietarinta-ising.json"),
                       "--strategy", "diag", "--json")
    assert code == 0
    assert json.loads(out)["complete"] is True


def test_dsum_and_lash(tmp_path, capsys):
    one = write_json(tmp_path, "one.json",
                     {"kind": "ybo", "N": 1, "level": 1, "entries": [["3"]]})
    flip = str(DATA / "perm-flip.json")
    code, out, _ = run(capsys, "dsum", flip, one, "--mu", "2", "--json")
    assert code == 0
    assert json.loads(out)["N"] == 3
    code, out, _ = run(capsys, "lash", flip, flip, "--json")
    assert code == 0
    assert json.loads(out)["N"] == 4


def test_ds_transform_and_x_symmetry(tmp_path, capsys):
    qfile = write_json(tmp_path, "q.json",
                       {"kind": "matrix", "rows": 2, "cols": 2,
                        "entries": [["0", "5"], ["7", "0"]]})
    code, out, _ = run(capsys, "ds-transform", str(DATA / "hietarinta-slash.json"),
                       "--q", qfile, "--bind", "k=2,p=3,q=3,s=2", "--json")
    assert code == 0
    xfile = write_json(tmp_path, "x.json",
                       {"kind": "matrix", "rows": 4, "cols": 4,
                        "entries": [["2", "0", "0", "0"], ["0", "3", "0", "0"],
                                    ["0", "0", "5", "0"], ["0", "0", "0", "7"]]})
    code, out, _ = run(capsys, "x-symmetry", str(DATA / "match2-Fslash.json"),
                       "--x", xfile, "--n-max", "4",
                       "--bind", "alpha=2,beta=3,gamma=5,chi=7", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_dual_verify(tmp_path, capsys):
    coev = write_json(tmp_path, "coev.json",
                      {"kind": "matrix", "rows": 4, "cols": 1,
                       "entries": [["1"], ["0"], ["0"], ["1"]]})
    ev = write_json(tmp_path, "ev.json",
                    {"kind": "matrix", "rows": 1, "cols": 4,
                     "entries": [["1", "0", "0", "1"]]})
    flip = str(DATA / "perm-flip.json")
    code, out, _ = run(capsys, "dual-verify", flip, flip,
                       "--coev", coev, "--ev", ev)
    assert code == 0


def test_sub_extract(tmp_path, capsys):
    # rank-1 diagonal endomorphism of the flip restricts to a 1-dim object
    afile = write_json(tmp_path, "a.json",
                       {"kind": "matrix", "rows": 2, "cols": 2,
                        "entries": [["1", "0"], ["0", "0"]]})
    code, out, _ = run(capsys, "sub-extract", str(DATA / "perm-flip.json"),
                       "--endo", afile, "--json")
    assert code == 0
    assert json.loads(out)["rank"] == 1


def test_malformed_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 3
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 3


def test_json_reports_deterministic(capsys):
    args = ["check", str(DATA / "hietarinta-a.json"), "--samples", "3",
            "--seed", "11", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_shipped_files_round_trip():
    # parse -> serialize -> parse gives entrywise-identical matrices
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("kind") != "ybo":
            continue  # e.g. the archived invariant report
        redumped = json.loads(json.dumps(doc))
        from ybx.expressions import sample_binding

        binding = sample_binding(doc.get("params", []),
                                 doc.get("constraints", []), seed=5)
        original = Matrix.from_rows(
            [[eval_expr(e, binding) for e in row] for row in doc["entries"]])
        rebuilt = Matrix.from_rows(
            [[eval_expr(e, binding) for e in row] for row in redumped["entries"]])
        assert original.eq(rebuilt)


def assert_input_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def test_top_level_list_exits_3(tmp_path, capsys):
    path = write_json(tmp_path, "list.json", [
        {"kind": "ybo", "N": 2, "level": 1,
         "entries": [["1", "0", "0", "0"], ["0", "0", "1", "0"],
                     ["0", "1", "0", "0"], ["0", "0", "0", "1"]]}])
    assert_input_error(capsys, "check", path)


def test_non_string_entries_exit_3(tmp_path, capsys):
    path = write_json(tmp_path, "numbers.json", {
        "kind": "ybo", "N": 2, "level": 1,
        "entries": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]})
    assert "entries" in assert_input_error(capsys, "check", path)


def test_binding_zeroing_a_constraint_exits_3(capsys):
    err = assert_input_error(capsys, "check", str(DATA / "hietarinta-slash.json"),
                             "--bind", "k=0,q=1,p=1,s=1")
    assert "constraint" in err


def test_binding_making_r_singular_exits_3(tmp_path, capsys):
    # no constraints listed, so only the invertibility check can catch k = 0
    path = write_json(tmp_path, "scaled-flip.json", {
        "kind": "ybo", "N": 2, "level": 1, "params": ["k"],
        "entries": [["k", "0", "0", "0"], ["0", "0", "k", "0"],
                    ["0", "k", "0", "0"], ["0", "0", "0", "k"]]})
    code, _, _ = run(capsys, "check", path, "--bind", "k=2")
    assert code == 0
    assert "invertible" in assert_input_error(capsys, "check", path, "--bind", "k=0")


def test_negative_samples_exit_3(capsys):
    assert "samples" in assert_input_error(
        capsys, "check", str(DATA / "hietarinta-slash.json"), "--samples", "-3")


def test_rep_beyond_size_ceiling_exits_3(capsys):
    assert "ceiling" in assert_input_error(
        capsys, "rep", str(DATA / "hietarinta-ising.json"), "--strands", "40", "--word", "1")


def test_deep_expressions_exit_3(tmp_path, capsys):
    # a long flat sum is a deep left-leaning tree, and nested parentheses recurse
    # in the parser: without a depth limit each overflows Python's recursion limit
    slash = str(DATA / "hietarinta-slash.json")
    flat = "+".join(["1"] * 1200)
    assert "deeper" in assert_input_error(capsys, "check", slash, "--bind",
                                          f"k={flat},q=2,p=3,s=4")
    nested = "(" * 400 + "1" + ")" * 400
    assert "deeper" in assert_input_error(capsys, "check", slash, "--bind",
                                          f"k={nested},q=2,p=3,s=4")
    path = write_json(tmp_path, "deep.json", {
        "kind": "ybo", "N": 1, "level": 1, "entries": [["(" * 500 + "2" + ")" * 500]]})
    assert "deeper" in assert_input_error(capsys, "check", path)


def test_huge_level_exits_3_before_raising_the_power(tmp_path, capsys):
    # 3^(2 * 10^6) has about 950,000 digits; the sizes are compared by bit length first
    path = write_json(tmp_path, "high.json", {
        "kind": "ybo", "N": 3, "level": 10 ** 6,
        "entries": [["1", "0", "0", "0"], ["0", "0", "1", "0"],
                    ["0", "1", "0", "0"], ["0", "0", "0", "1"]]})
    start = time.perf_counter()
    err = assert_input_error(capsys, "check", path)
    assert time.perf_counter() - start < 1.0
    assert "rank 3 level 1000000" in err


def test_flip_words_over_the_ceiling_exit_3(capsys):
    start = time.perf_counter()
    err = assert_input_error(capsys, "invariants", str(DATA / "hietarinta-a.json"),
                             "--bind", "k=2,p=3,q=5", "--words", "40")
    assert time.perf_counter() - start < 1.0
    assert "2^41 - 2 words" in err and "ceiling" in err


def test_oversized_power_in_a_binding_exits_3_naming_it(capsys):
    a = str(DATA / "hietarinta-a.json")
    err = assert_input_error(capsys, "check", a, "--bind", "k=3^100000,p=2,q=5")
    assert "'k=3^100000'" in err and "(3)^100000" in err and "ceiling" in err
    start = time.perf_counter()
    assert "ceiling" in assert_input_error(capsys, "check", a, "--bind", "k=2^100000000,p=3,q=5")
    assert time.perf_counter() - start < 1.0
    code, out, _ = run(capsys, "check", a, "--bind", "k=2^1000,p=3,q=5")
    assert code == 0 and "holds" in out


def test_a_product_of_allowed_powers_in_a_binding_exits_3_naming_the_ceiling(capsys):
    # each (2^4999)^2 has 9,998 bits, under the power ceiling; their product has not
    product = "*".join(["(2^4999)^2"] * 8)
    err = assert_input_error(capsys, "check", str(DATA / "grouptype-single-g.json"),
                             "--bind", f"a={product},b=1,d=2")
    assert "bits, more than the ceiling 10000" in err and "4300 digits" not in err


def test_usage_errors_exit_3(capsys):
    # argparse exits 2 on a usage error, which the CLI reserves for "inconclusive"
    assert_input_error(capsys, "rep", str(DATA / "hietarinta-slash.json"))
    assert_input_error(capsys, "bogus")
    assert "--jobs" in assert_input_error(capsys, "enum-perm", "--N", "3", "--jobs", "4")


def test_help_exits_0(capsys):
    for argv in (["--help"], ["enum-perm", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_given_value_zeroing_a_constraint_is_named_before_sampling(capsys):
    err = assert_input_error(capsys, "check", str(DATA / "hietarinta-slash.json"),
                             "--bind", "k=0")
    assert "'k'" in err and "tries" not in err


def test_vacuous_runs_exit_3(tmp_path, capsys):
    a = str(DATA / "hietarinta-slash.json")
    for p in ("0", "1"):
        assert "p must be" in assert_input_error(capsys, "equiv", a, a, "--p", p,
                                                 "--bind", "k=1,q=2,p=3,s=4")
    assert "N must be" in assert_input_error(capsys, "count-involutive", "--N", "-1")
    for words in ("0", "-3"):  # no word to compare: the traces would say nothing
        assert "L must be" in assert_input_error(
            capsys, "invariants", str(DATA / "hietarinta-eight-vertex.json"),
            "--bind", "p=2,q=3", "--words", words)
    xfile = write_json(tmp_path, "x.json",
                       {"kind": "matrix", "rows": 4, "cols": 4,
                        "entries": [["2", "0", "0", "0"], ["0", "3", "0", "0"],
                                    ["0", "0", "5", "0"], ["0", "0", "0", "7"]]})
    for n_max in ("1", "0", "-2"):
        assert "n_max must be" in assert_input_error(
            capsys, "x-symmetry", str(DATA / "match2-Fslash.json"), "--x", xfile,
            "--bind", "alpha=2/3,beta=1+i,gamma=3/2-2*i,chi=-3", "--n-max", n_max, "--json")


# -- fuzzing the command line ---------------------------------------------------

# Each command's positional slots and flags, by the kind of value they take;
# every command also takes --json and --seed.
_COMMANDS = {
    "check": (["ybo"], {"--samples": "int", "--bind": "bind"}),
    "rep": (["ybo"], {"--strands": "int", "--word": "word", "--trace": "flag",
                      "--bind": "bind"}),
    "cable": (["ybo"], {"--k": "int", "--bind": "bind"}),
    "lash": (["ybo", "ybo"], {"--bind": "bind"}),
    "dsum": (["ybo", "ybo"], {"--mu": "expr", "--bind": "bind"}),
    "ds-transform": (["ybo"], {"--q": "matrix", "--bind": "bind"}),
    "endo": (["ybo"], {"--strategy": "strategy", "--verify": "matrix", "--bind": "bind"}),
    "sub-extract": (["ybo"], {"--endo": "matrix", "--bind": "bind"}),
    "segre": (["ybo"], {"--side": "side", "--bind": "bind"}),
    "dual-verify": (["ybo", "ybo"], {"--coev": "matrix", "--ev": "matrix", "--bind": "bind"}),
    "equiv": (["ybo", "ybo"], {"--p": "int", "--bind": "bind"}),
    "invariants": (["ybo"], {"--words": "int", "--bind": "bind"}),
    "catalog": (["action", "id"], {"--bind": "bind"}),
    "enum-perm": ([], {"--N": "int"}),
    "count-involutive": ([], {"--N": "int"}),
    "x-symmetry": (["ybo"], {"--x": "matrix", "--n-max": "int", "--bind": "bind"}),
}

_FLIP = [["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "1"]]

# documents of the wrong shape, each read where an object or a matrix is expected
_BAD_DOCS = {
    "list.json": [{"kind": "ybo", "N": 2, "entries": _FLIP}],
    "no-entries.json": {"kind": "ybo", "N": 2},
    "string-n.json": {"kind": "ybo", "N": "2", "entries": _FLIP},
    "zero-level.json": {"kind": "ybo", "N": 2, "level": 0, "entries": _FLIP},
    "ragged.json": {"kind": "ybo", "N": 2, "entries": [["1", "0"], ["0"]]},
    "numbers.json": {"kind": "ybo", "N": 2, "entries": [[int(e) for e in r] for r in _FLIP]},
    "wrong-n.json": {"kind": "ybo", "N": 3, "entries": _FLIP},
    "singular.json": {"kind": "ybo", "N": 2, "entries": [["0"] * 4] * 4},
    "unbound.json": {"kind": "ybo", "N": 2, "entries": [["k"] + r[1:] for r in _FLIP]},
    "params-not-list.json": {"kind": "ybo", "N": 2, "params": "k", "entries": _FLIP},
    "bad-expr.json": {"kind": "ybo", "N": 2, "entries": [["1/"] + r[1:] for r in _FLIP]},
    "div-zero.json": {"kind": "matrix", "entries": [["1/0", "0"], ["0", "1"]]},
    "empty-matrix.json": {"kind": "matrix", "entries": []},
}
_GOOD_MATRICES = {
    "q.json": [["0", "5"], ["7", "0"]],
    "x.json": [["2", "0", "0", "0"], ["0", "3", "0", "0"], ["0", "0", "5", "0"],
               ["0", "0", "0", "7"]],
    "coev.json": [["1"], ["0"], ["0"], ["1"]],
    "ev.json": [["1", "0", "0", "1"]],
}

# small integers only, so that no call reaches a large search
_INTS = st.sampled_from(["-1", "0", "1", "2", "", "x"])
_BIND_PIECES = ["", " ", "k", "k=", "=1", "k=0", "k=1", "k=1/0", "k=(", "k=i", "q=2", "p=3",
                "s=4", "alpha=2", "zz=1"]
_VALUES = {
    "int": _INTS,
    "bind": (st.sampled_from(["k=1,q=2,p=3,s=4", "k=1,p=1,q=-2"])
             | st.lists(st.sampled_from(_BIND_PIECES), max_size=4).map(",".join)),
    "word": st.sampled_from(["", "1", "1 -2", "2 1", "0", "3", "x"]),
    "expr": st.sampled_from(["2", "0", "", "x", "1/0", "i"]),
    "strategy": st.sampled_from(["diag", "monomial", "commutant", "bogus"]),
    "side": st.sampled_from(["left", "right", "middle"]),
    "action": st.sampled_from(["list", "get", "bogus"]),
    "id": st.sampled_from(["hietarinta:ising", "hietarinta:slash", "missing:id", ""]),
}


def test_cli_fuzz_exits_with_a_documented_code(tmp_path, capsys):
    for name, doc in _BAD_DOCS.items():
        write_json(tmp_path, name, doc)
    for name, entries in _GOOD_MATRICES.items():
        write_json(tmp_path, name, {"kind": "matrix", "entries": entries})
    (tmp_path / "not-json.json").write_text("{not json")
    (tmp_path / "empty.json").write_text("")
    bad = sorted(str(p) for p in tmp_path.glob("*.json") if p.name not in _GOOD_MATRICES)
    missing = str(tmp_path / "missing.json")
    ybo_files = [str(DATA / n) for n in ("perm-flip.json", "hietarinta-ising.json",
                                         "hietarinta-slash.json", "hietarinta-f.json")]
    values = dict(_VALUES,
                  flag=st.just(None),
                  ybo=st.sampled_from(ybo_files) | st.sampled_from(bad + [missing]),
                  matrix=(st.sampled_from([str(tmp_path / n) for n in _GOOD_MATRICES])
                          | st.sampled_from(bad + [missing])))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def one_call(data):
        command = data.draw(st.sampled_from(sorted(_COMMANDS)))
        slots, flags = _COMMANDS[command]
        argv = [command]
        # positionals and flags are each left out now and then
        kept = len(slots) if data.draw(st.integers(0, 3)) else data.draw(st.integers(0, len(slots)))
        for slot in slots[:kept]:
            argv.append(data.draw(values[slot]))
        for flag, kind in sorted(dict(flags, **{"--json": "flag", "--seed": "int"}).items()):
            if data.draw(st.integers(0, 3)):
                value = data.draw(values[kind])
                argv += [flag] if value is None else [flag, value]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        if code == 3:
            assert err.startswith("error: ") and len(err) > len("error: \n"), argv

    one_call()
