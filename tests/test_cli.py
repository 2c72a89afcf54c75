"""Command-line interface: verbs, payload schemas, exit codes, determinism."""

from __future__ import annotations

import functools
import gc
import hashlib
import io
import json
import math
import subprocess
import sys
import time

import pytest

import hypersym as hs
from hypersym import cli
from hypersym.cli import main


def run(tmp_path, *argv) -> tuple[int, dict | list | None]:
    """Invoke main() writing to a temp file; return (exit code, payload)."""
    out = tmp_path / "out.json"
    code = main([*argv, "--output", str(out)])
    if out.exists():
        return code, json.loads(out.read_text())
    return code, None


def write_fixture(tmp_path, name, r=None) -> str:
    p = tmp_path / f"{name}{r or ''}.json"
    obj = hs.fixture(name, r=r) if r else hs.fixture(name)
    p.write_text(json.dumps(obj.to_json_dict()))
    return str(p)


class TestRho:
    def test_order6(self, tmp_path):
        path = write_fixture(tmp_path, "order6")
        code, data = run(tmp_path, "rho", "--input", path)
        assert code == 0
        assert data["kind"] == "H"
        assert abs(data["lambda"][0] - 1.0) <= 1e-9
        assert data["lambda"][1] == 0
        assert len(data["x"]) == 6

    def test_overflowing_radius_exit_3_with_empty_stdout(self, tmp_path, capsys):
        # finite entries whose spectral radius, 2e308, is past the float range
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"r": 2, "n": 3, "entries": [
            {"i": [i, j], "v": 1e308} for i in (1, 2, 3) for j in (1, 2, 3) if i != j]}))
        assert main(["rho", "--input", str(p)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "not finite" in err

    @pytest.mark.parametrize("entries,rho", [
        # rho = 1e308 is finite, though lo + hi is not
        ([([1, 2], 1e308), ([2, 1], 1e308)], 1e308),
        # the r-norm of the first iterate overflows: the iterate is scaled first
        ([([1, 1], 2e307), ([1, 2], 4e307), ([2, 1], 4e307)], (1 + 17 ** 0.5) * 1e307),
        # the weighted path: the first bracket's upper end, 2e308, overflows
        ([([1, 2], 1e308), ([2, 1], 1e308), ([2, 3], 1e308), ([3, 2], 1e308)], 2 ** 0.5 * 1e308),
    ], ids=["bracket-sum", "iterate-norm", "first-bracket"])
    def test_radius_near_float_limit(self, tmp_path, entries, rho):
        p = tmp_path / "huge.json"
        n = max(max(i) for i, _ in entries)
        p.write_text(json.dumps({"r": 2, "n": n, "entries": [{"i": i, "v": v} for i, v in entries]}))
        code, data = run(tmp_path, "rho", "--input", str(p))
        assert code == 0 and abs(data["lambda"][0] - rho) <= 1e-12 * rho and data["lambda"][1] == 0

    def test_small_radius_exit_0(self, tmp_path):
        # every value below 1/2: rho runs on the tensor times 2**17, then scales back
        p = tmp_path / "small.json"
        p.write_text(json.dumps({"r": 2, "n": 3, "entries": [
            {"i": [1, 2], "v": 1e-6}, {"i": [2, 1], "v": 1e-6},
            {"i": [2, 3], "v": 4e-6}, {"i": [3, 2], "v": 4e-6}]}))
        code, data = run(tmp_path, "rho", "--input", str(p))
        assert code == 0 and data["kind"] == "H"
        assert abs(data["lambda"][0] - 17 ** 0.5 * 1e-6) <= 1e-10 and data["lambda"][1] == 0
        assert data["residual"] <= 1e-10

    @staticmethod
    def _tiny_path(tmp_path, zeros):
        """The path 1-2-3 with values 1 and 4 over 10**zeros: rho = sqrt(17) / 10**zeros."""
        a, b = "1/1" + "0" * zeros, "4/1" + "0" * zeros
        p = tmp_path / f"tiny{zeros}.json"
        p.write_text(json.dumps({"r": 2, "n": 3, "entries": [
            {"i": [1, 2], "v": a}, {"i": [2, 1], "v": a},
            {"i": [2, 3], "v": b}, {"i": [3, 2], "v": b}]}))
        return str(p)

    @pytest.mark.parametrize("verb", ["rho", "check-symmetric"])
    def test_radius_below_float_range_exit_3(self, tmp_path, capsys, verb):
        # rho ~ 4.1e-400: the run on the tensor times 2**1326 converges, and
        # the radius scaled back is 0
        assert main([verb, "--input", self._tiny_path(tmp_path, 400)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "below the float range" in err

    @pytest.mark.parametrize("verb", ["rho", "check-symmetric"])
    def test_subnormal_radius_exit_0(self, tmp_path, verb):
        # rho ~ 4.1e-310 is subnormal, still a positive float
        code, data = run(tmp_path, verb, "--input", self._tiny_path(tmp_path, 310))
        pair = data if verb == "rho" else data["witness_pairs"][0]["plus"]
        assert code == 0 and 0 < pair["lambda"][0] <= 1e-10 and pair["residual"] <= 1e-10
        # resolved, not stopped at the first bracket of the scaled run
        assert abs(pair["lambda"][0] - 17 ** 0.5 * 1e-310) <= 1e-9 * 17 ** 0.5 * 1e-310

    def test_edge_with_170_factorial_orderings_per_tail(self, tmp_path):
        # one edge of r = 171 vertices: rho = 170!, finite, though 171! is not
        path = write_fixture(tmp_path, "edge-r", r=171)
        code, data = run(tmp_path, "rho", "--input", path)
        assert code == 0
        assert abs(data["lambda"][0] - math.factorial(170)) <= 1e-12 * math.factorial(170)
        assert run(tmp_path, "check-symmetric", "--input", path)[0] == 0

    @pytest.mark.parametrize("verb", ["rho", "check-symmetric"])
    def test_edge_past_float_range_exit_3(self, tmp_path, capsys, verb):
        # r = 172: rho = 171! is past the float range, and so is each kernel weight
        path = write_fixture(tmp_path, "edge-r", r=172)
        assert run(tmp_path, verb, "--input", path) == (3, None)
        assert "past the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, where", [
        ("rho", [(1, 2), (2, 1)]),
        ("check-symmetric", [(1, 2), (2, 1)]),
        ("verify-eigenpair", [(1, 2), (2, 1)]),
        # the shift of the power iteration is 1 + the largest diagonal entry
        ("rho", [(1, 1)]),
        ("verify-eigenpair", [(1, 1)]),
    ], ids=["rho-off-diagonal", "check-symmetric-off-diagonal", "verify-eigenpair-off-diagonal",
            "rho-diagonal", "verify-eigenpair-diagonal"])
    def test_integer_value_past_float_range_exit_3(self, tmp_path, capsys, verb, where):
        # 10**400 written out as a JSON integer: exact, but not a float
        big = 10 ** 400
        entries = {(1, 2): 1, (2, 1): 1} | {i: big for i in where}
        p = tmp_path / "big.json"
        p.write_text('{"r": 2, "n": 2, "entries": [%s]}' % ", ".join(
            f'{{"i": [{i}, {j}], "v": {v}}}' for (i, j), v in entries.items()))
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"kind": "H", "lambda": [1, 0], "residual": 0,
                                    "x": [[1, 0], [1, 0]]}))
        argv = [verb, "--input", str(p)] + (["--pair", str(pair)] if verb == "verify-eigenpair" else [])
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"the value {big} is past the float range" in err

    def test_graph_input_uses_adjacency(self, tmp_path):
        g = hs.Hypergraph(4, 4, [(1, 2, 3, 4)])
        p = tmp_path / "edge.json"
        p.write_text(json.dumps(g.to_json_dict()))
        code, data = run(tmp_path, "rho", "--input", str(p))
        assert code == 0
        assert abs(data["lambda"][0] - 6.0) <= 1e-8

    def test_convergence_failure_exit_4(self, tmp_path):
        g = hs.Hypergraph(2, 3, [(1, 2), (2, 3)])
        p = tmp_path / "path3.json"
        p.write_text(json.dumps(g.to_json_dict()))
        code, _ = run(
            tmp_path, "rho", "--input", str(p), "--tol", "1e-300", "--max-iter", "2"
        )
        assert code == 4

    @pytest.mark.parametrize("verb", ["rho", "check-symmetric"])
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-10"])
    def test_tol_not_finite_and_positive_exit_3(self, tmp_path, capsys, verb, tol):
        # --tol inf stopped after one step at the midpoint of the first bracket
        # and exited 0; a 4-cycle is odd-colorable, so check-symmetric iterates
        p = tmp_path / "cycle4.json"
        p.write_text(json.dumps(hs.Hypergraph(2, 4, [(1, 2), (2, 3), (3, 4), (1, 4)]).to_json_dict()))
        assert main([verb, "--input", str(p), f"--tol={tol}"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "tol must be finite and positive" in err

    @pytest.mark.parametrize("verb", ["rho", "check-symmetric"])
    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_max_iter_below_1_exit_3(self, tmp_path, capsys, verb, max_iter):
        # it exited 4 with the bracket [nan, nan]
        p = tmp_path / "cycle4.json"
        p.write_text(json.dumps(hs.Hypergraph(2, 4, [(1, 2), (2, 3), (3, 4), (1, 4)]).to_json_dict()))
        assert main([verb, "--input", str(p), "--max-iter", max_iter]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: max_iter must be a positive integer, got {max_iter}\n"

    @pytest.mark.parametrize("graph", [hs.Hypergraph(3, 3, [(1, 2, 3)]),
                                       hs.Hypergraph(2, 3, [(1, 2), (2, 3), (1, 3)])],
                             ids=["odd-r", "not-colorable"])
    def test_check_symmetric_without_iteration_ignores_max_iter(self, tmp_path, graph):
        p = tmp_path / "graph.json"
        p.write_text(json.dumps(graph.to_json_dict()))
        code, data = run(tmp_path, "check-symmetric", "--input", str(p), "--max-iter", "0")
        assert code == 0 and data["symmetric"] is False

    def test_precondition_failure_exit_3(self, tmp_path):
        path = write_fixture(tmp_path, "h2")  # has a negative entry
        code, _ = run(tmp_path, "rho", "--input", path)
        assert code == 3


class TestParityVerbs:
    def test_coloring_feasible_payload(self, tmp_path):
        g, _ = hs.gen_prop4_graph(1, 4, 4)
        p = tmp_path / "g.json"
        p.write_text(json.dumps(g.to_json_dict()))
        code, data = run(tmp_path, "odd-coloring", "--input", str(p))
        assert code == 0
        assert data["feasible"] is True
        assert data["conflict"] is None
        cert = hs.OddColoring.from_json_dict(data["certificate"])
        assert hs.verify_certificate(g, cert)

    def test_transversal_infeasible_payload(self, tmp_path):
        g, _ = hs.gen_prop4_graph(1, 4, 4)
        p = tmp_path / "g.json"
        p.write_text(json.dumps(g.to_json_dict()))
        code, data = run(tmp_path, "odd-transversal", "--input", str(p))
        assert code == 0
        assert data["feasible"] is False
        assert data["certificate"] is None
        assert data["conflict"]["pattern_indices"]
        assert len(data["conflict"]["patterns"]) == len(
            data["conflict"]["pattern_indices"]
        )

    def test_transversal_feasible_payload(self, tmp_path):
        path = write_fixture(tmp_path, "edge-r", r=4)
        code, data = run(tmp_path, "odd-transversal", "--input", path)
        assert code == 0 and data["feasible"] is True
        assert data["certificate"]["kind"] == "odd-transversal"

    def test_odd_r_coloring_exit_3(self, tmp_path):
        path = write_fixture(tmp_path, "edge-r", r=3)
        code, _ = run(tmp_path, "odd-coloring", "--input", path)
        assert code == 3


class TestConvertCertificate:
    def test_transversal_to_coloring(self, tmp_path):
        path = write_fixture(tmp_path, "edge-r", r=4)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"kind": "odd-transversal", "X": [1]}))
        code, data = run(
            tmp_path, "convert-certificate", "--input", path, "--cert", str(cert)
        )
        assert code == 0
        assert data == {"kind": "odd-coloring", "r": 4, "phi": [2, 0, 0, 0]}

    def test_coloring_to_transversal_r6(self, tmp_path):
        path = write_fixture(tmp_path, "edge-r", r=6)
        cert = tmp_path / "cert.json"
        cert.write_text(
            json.dumps({"kind": "odd-coloring", "r": 6, "phi": [3, 0, 0, 0, 0, 0]})
        )
        code, data = run(
            tmp_path, "convert-certificate", "--input", path, "--cert", str(cert)
        )
        assert code == 0
        assert data == {"kind": "odd-transversal", "X": [1]}

    def test_coloring_to_transversal_needs_r_2_mod_4(self, tmp_path):
        path = write_fixture(tmp_path, "edge-r", r=4)
        cert = tmp_path / "cert.json"
        cert.write_text(
            json.dumps({"kind": "odd-coloring", "r": 4, "phi": [2, 0, 0, 0]})
        )
        code, _ = run(
            tmp_path, "convert-certificate", "--input", path, "--cert", str(cert)
        )
        assert code == 3

    def test_invalid_certificate_rejected(self, tmp_path):
        # shape-valid but does not verify against the instance
        path = write_fixture(tmp_path, "edge-r", r=6)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"kind": "odd-transversal", "X": [1, 2]}))
        code, _ = run(
            tmp_path, "convert-certificate", "--input", path, "--cert", str(cert)
        )
        assert code == 3

    def test_unknown_kind_exit_2(self, tmp_path):
        path = write_fixture(tmp_path, "edge-r", r=4)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"kind": "mystery"}))
        code, _ = run(
            tmp_path, "convert-certificate", "--input", path, "--cert", str(cert)
        )
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "odd-coloring"},
            {"kind": "odd-coloring", "phi": [3, 0, 0, 0, 0, 0]},
            {"kind": "odd-coloring", "r": 6},
            {"kind": "odd-transversal"},
            # ill-typed fields; a bool is no residue or vertex, though these
            # two would verify if true counted as 1
            {"kind": "odd-coloring", "r": "6", "phi": [3, 0, 0, 0, 0, 0]},
            {"kind": "odd-coloring", "r": 6, "phi": 5},
            {"kind": "odd-coloring", "r": 6, "phi": [2, True, 0, 0, 0, 0]},
            {"kind": "odd-transversal", "X": 5},
            {"kind": "odd-transversal", "X": [1, "a"]},
            {"kind": "odd-transversal", "X": [True]},
        ],
    )
    def test_certificate_missing_key_exit_2(self, tmp_path, capsys, doc):
        path = write_fixture(tmp_path, "edge-r", r=6)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, data = run(
            tmp_path, "convert-certificate", "--input", path, "--cert", str(cert)
        )
        assert code == 2 and data is None
        assert capsys.readouterr().err.startswith("error: ")


class TestCheckSymmetric:
    def test_pair_graph_symmetric(self, tmp_path):
        g, _ = hs.gen_prop4_graph(1, 4, 4)
        p = tmp_path / "g.json"
        p.write_text(json.dumps(g.to_json_dict()))
        code, data = run(tmp_path, "check-symmetric", "--input", str(p))
        assert code == 0
        assert data["symmetric"] is True and data["branch"] == "colorable"
        assert data["certificate"]["kind"] == "odd-coloring"
        assert len(data["witness_pairs"]) == 1

    def test_triangle_not_symmetric(self, tmp_path):
        g = hs.Hypergraph(2, 3, [(1, 2), (1, 3), (2, 3)])
        p = tmp_path / "k3.json"
        p.write_text(json.dumps(g.to_json_dict()))
        code, data = run(tmp_path, "check-symmetric", "--input", str(p))
        assert code == 0
        assert data["symmetric"] is False and data["branch"] == "not-colorable"

    def test_non_symmetric_tensor_exit_3(self, tmp_path):
        path = write_fixture(tmp_path, "order6")
        code, _ = run(tmp_path, "check-symmetric", "--input", path)
        assert code == 3


class TestCharpolyVerb:
    def test_matrix_fixture(self, tmp_path):
        path = write_fixture(tmp_path, "a1")
        code, data = run(tmp_path, "charpoly", "--input", path)
        assert code == 0
        assert data == {"degree": 4, "coeffs": ["1", "0", "-2", "0", "1"]}

    def test_large_matrix_uses_matrix_route(self, tmp_path):
        ident = hs.CubicalTensor(2, 5, [((i, i), 1) for i in range(1, 6)])
        p = tmp_path / "ident.json"
        p.write_text(json.dumps(ident.to_json_dict()))
        code, data = run(tmp_path, "charpoly", "--input", str(p))
        assert code == 0 and data["degree"] == 5

    def test_out_of_contract_exit_3(self, tmp_path):
        path = write_fixture(tmp_path, "order6")  # n = 6 > 3 at r = 3
        code, _ = run(tmp_path, "charpoly", "--input", path)
        assert code == 3


class TestVerifyVerbs:
    def test_verify_eigenpair_recomputes(self, tmp_path):
        path = write_fixture(tmp_path, "order6")
        pair = tmp_path / "pair.json"
        pair.write_text(
            json.dumps(
                {
                    "kind": "H",
                    "lambda": [1.0, 0.0],
                    "residual": 99.0,
                    "x": [[1.0, 0.0]] * 6,
                }
            )
        )
        code, data = run(
            tmp_path, "verify-eigenpair", "--input", path, "--pair", str(pair)
        )
        assert code == 0
        assert data["residual"] <= 1e-12  # recomputed, not trusted
        assert data["kind"] == "H"

    @pytest.mark.parametrize("lam,x0", [
        ("[1e400, 0]", "[1, 0]"), ("[NaN, 0]", "[1, 0]"), ("[true, 0]", "[1, 0]"),
        ("[1, 0]", "[1, -Infinity]"), ("[1, 0]", "[1%s, 0]" % ("0" * 400)),
        ("[1, 0, 5]", "[1, 0]"), ("[1, 0]", "[1, 0, 3]"),
    ], ids=["lambda-inf", "lambda-nan", "lambda-bool", "x-inf", "x-huge-int",
            "lambda-3-parts", "x-3-parts"])
    def test_non_finite_or_boolean_pair_exit_2(self, tmp_path, capsys, lam, x0):
        path = write_fixture(tmp_path, "order6")
        pair = tmp_path / "pair.json"
        pair.write_text('{"lambda": %s, "residual": 0, "x": [%s%s]}'
                        % (lam, x0, ", [1, 0]" * 5))
        code, data = run(
            tmp_path, "verify-eigenpair", "--input", path, "--pair", str(pair)
        )
        assert code == 2 and data is None
        assert capsys.readouterr().err.startswith("error: bad eigenpair document")

    def test_verify_product(self, tmp_path):
        path = write_fixture(tmp_path, "a2")
        code, data = run(tmp_path, "verify-product", "--input", path)
        assert code == 0
        assert data["equal"] is True
        assert data["lhs"] == {"degree": 4, "coeffs": ["1", "0", "-2", "0", "1"]}


class TestGenAndFixture:
    def test_gen_prop4_with_witness(self, tmp_path):
        wit = tmp_path / "wit.json"
        out = tmp_path / "g.json"
        code = main(
            [
                "gen",
                "prop4",
                "--k",
                "1",
                "--size-a",
                "4",
                "--size-b",
                "4",
                "--output",
                str(out),
                "--witness-output",
                str(wit),
            ]
        )
        assert code == 0
        g = hs.Hypergraph.from_json_dict(json.loads(out.read_text()))
        phi = hs.OddColoring.from_json_dict(json.loads(wit.read_text()))
        assert len(g.edges) == 36
        assert hs.verify_certificate(g, phi)

    def test_gen_prop5(self, tmp_path):
        code, data = run(
            tmp_path,
            "gen",
            "prop5",
            "--k",
            "1",
            "--size-a",
            "6",
            "--size-b",
            "6",
            "--size-c",
            "4",
        )
        assert code == 0
        g = hs.Hypergraph.from_json_dict(data)
        assert g.n == 16 and len(g.edges) == 420

    def test_gen_undersized_exit_3(self, tmp_path):
        code, _ = run(
            tmp_path, "gen", "prop4", "--k", "1", "--size-a", "3", "--size-b", "4"
        )
        assert code == 3

    def test_gen_prop5_missing_size_c_exit_2(self, tmp_path):
        code, _ = run(
            tmp_path, "gen", "prop5", "--k", "1", "--size-a", "6", "--size-b", "6"
        )
        assert code == 2

    def test_fixture_round_trip(self, tmp_path):
        for name in ("h2", "a1", "a2", "order6"):
            code, data = run(tmp_path, "fixture", name)
            assert code == 0
            assert hs.CubicalTensor.from_json_dict(data) == hs.fixture(name)

    def test_fixture_families_are_graphs(self, tmp_path):
        code, data = run(tmp_path, "fixture", "prop4-k1")
        assert code == 0
        g = hs.Hypergraph.from_json_dict(data)
        assert g.n == 8 and len(g.edges) == 36

    def test_fixture_edge_r_requires_r(self, tmp_path):
        code, _ = run(tmp_path, "fixture", "edge-r")
        assert code == 2
        code, data = run(tmp_path, "fixture", "edge-r", "--r", "5")
        assert code == 0
        assert hs.Hypergraph.from_json_dict(data).r == 5

    def test_unknown_fixture_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "fixture", "nope")
        assert code == 2

    @pytest.mark.parametrize("name", [n for n in hs.FIXTURE_NAMES if n != "edge-r"])
    def test_fixture_refuses_r_it_does_not_take(self, name):
        with pytest.raises(ValueError, match=f"^fixture {name!r} takes no r parameter$"):
            hs.fixture(name, r=3)

    @pytest.mark.parametrize("name", ["h2", "prop4-k1"])
    def test_r_on_a_fixture_without_r_exit_2(self, tmp_path, capsys, name):
        code, data = run(tmp_path, "fixture", name, "--r", "3")
        assert code == 2 and data is None
        assert capsys.readouterr().err == f"error: fixture {name!r} takes no r parameter\n"


class TestUsageErrors:
    def test_missing_file_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "rho", "--input", str(tmp_path / "absent.json"))
        assert code == 2

    def test_malformed_json_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _ = run(tmp_path, "rho", "--input", str(p))
        assert code == 2

    def test_schema_violation_exit_2(self, tmp_path):
        p = tmp_path / "odd.json"
        p.write_text(json.dumps({"surprise": True}))
        code, _ = run(tmp_path, "rho", "--input", str(p))
        assert code == 2

    def test_boolean_index_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bool.json"
        p.write_text('{"r": 2, "n": 2, "entries": [{"i": [true, 2], "v": 1}]}')
        code, data = run(tmp_path, "odd-transversal", "--input", str(p))
        assert code == 2 and data is None
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "doc",
        [
            '{"r": 2, "n": 2, "entries": [{"i": 5, "v": 1}]}',
            '{"r": 2, "n": 2, "edges": 5}',
            '{"r": 2, "n": 2, "edges": [5]}',
            # a vertex that does not compare with an int is checked before sorting
            '{"r": 2, "n": 3, "edges": [["1", 2]]}',
            '{"r": 2, "n": 3, "edges": [[1, [2]]]}',
            '{"r": 2, "n": 3, "edges": [[null, 1]]}',
        ],
    )
    def test_non_list_index_exit_2(self, tmp_path, doc):
        p = tmp_path / "scalar.json"
        p.write_text(doc)
        code, data = run(tmp_path, "odd-transversal", "--input", str(p))
        assert code == 2 and data is None

    @pytest.mark.parametrize("value", ["[true, 0]", "[1, false]", "[null, 1]", "Infinity",
                                       "[0, -Infinity]", '"1/0"', '[1, "2/0"]'])
    def test_bad_value_component_exit_2(self, tmp_path, capsys, value):
        p = tmp_path / "value.json"
        p.write_text('{"r": 2, "n": 2, "entries": [{"i": [1, 2], "v": %s}]}' % value)
        code, data = run(tmp_path, "odd-transversal", "--input", str(p))
        assert code == 2 and data is None
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", ['"1e999999999"', '"1e-999999999"', '[0, "2.5E+1_000_000_000"]'])
    def test_huge_decimal_exponent_exits_2_at_once(self, tmp_path, capsys, value):
        # Fraction would build 10**exponent, which runs for hours
        p = tmp_path / "value.json"
        p.write_text('{"r": 2, "n": 2, "entries": [{"i": [1, 2], "v": %s}]}' % value)
        start = time.perf_counter()
        code, data = run(tmp_path, "rho", "--input", str(p))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and data is None
        assert "decimal exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("verb,doc", [
        ("charpoly", '{"r": 2, "n": 2, "entries": [{"i": [1, 2], "v": "1eL"}, '
                     '{"i": [2, 1], "v": 1}]}'),
        ("verify-product", '{"r": 2, "n": 3, "entries": [{"i": [1, 2], "v": "1eL"}, '
                           '{"i": [2, 1], "v": "1eL"}]}'),
    ], ids=["charpoly", "verify-product"])
    def test_coefficient_past_digit_limit_exit_2(self, tmp_path, capsys, verb, doc):
        # 1e4300 parses, but the charpoly has a coefficient of 10^4300 or more
        limit = sys.get_int_max_str_digits()
        p = tmp_path / "value.json"
        p.write_text(doc.replace("L", str(limit)))
        code, data = run(tmp_path, verb, "--input", str(p))
        assert code == 2 and data is None
        assert f"more than {limit} digits" in capsys.readouterr().err

    def test_other_serialization_error_is_no_usage_error(self, tmp_path, monkeypatch):
        # only the digit limit is an input error; anything else stays exit 3
        def broken(self):
            raise ValueError("not a digit limit")
        monkeypatch.setattr(hs.UniPoly, "to_json_dict", broken)
        p = tmp_path / "edge.json"
        p.write_text('{"r": 2, "n": 2, "entries": [{"i": [1, 2], "v": 1}, {"i": [2, 1], "v": 1}]}')
        assert run(tmp_path, "charpoly", "--input", str(p)) == (3, None)

    def test_certificate_integer_past_digit_limit_exit_2(self, tmp_path, capsys):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the int/str digit limit is off")
        path = write_fixture(tmp_path, "edge-r", r=6)
        cert = tmp_path / "cert.json"
        cert.write_text('{"kind": "odd-transversal", "X": [1%s]}' % ("0" * limit))
        code, data = run(tmp_path, "convert-certificate", "--input", path, "--cert", str(cert))
        assert code == 2 and data is None
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {cert}")

    @pytest.mark.parametrize("verb,doc", [
        ("charpoly", '{"r": 2, "n": N, "entries": [{"i": [1, 2], "v": 1}, {"i": [2, 1], "v": 1}]}'),
        ("rho", '{"r": 2, "n": N, "entries": [{"i": [1, 2], "v": 1}, {"i": [2, 1], "v": 1}]}'),
        ("odd-transversal", '{"r": 2, "n": N, "edges": [[1, 2]]}'),
        ("rho", '{"r": N, "n": 2, "entries": []}'),
    ], ids=["charpoly", "rho", "graph", "index-count"])
    def test_size_past_int64_exit_2(self, tmp_path, capsys, verb, doc):
        # index arrays are int64; the input is refused before anything is allocated
        p = tmp_path / "huge.json"
        p.write_text(doc.replace("N", str(2**63)))
        code, data = run(tmp_path, verb, "--input", str(p))
        assert code == 2 and data is None
        assert "must be at most 2**63 - 1" in capsys.readouterr().err

    def test_boolean_vertex_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bool.json"
        p.write_text('{"r": 2, "n": 3, "edges": [[true, 3], [2, 3]]}')
        code, data = run(tmp_path, "odd-transversal", "--input", str(p))
        assert code == 2 and data is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_certificate_not_utf8_exit_2(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "edge-r", r=4)
        cert = tmp_path / "cert.json"
        cert.write_bytes(b'{"kind":"odd-transversal","X":[1]}\xff')
        code, data = run(tmp_path, "convert-certificate", "--input", path, "--cert", str(cert))
        assert code == 2 and data is None
        assert capsys.readouterr().err.startswith(f"error: cannot read {cert}: not UTF-8")

    @pytest.mark.parametrize("verb", ["charpoly", "odd-transversal", "rho"])
    def test_input_too_large_for_memory_exit_3(self, tmp_path, capsys, verb):
        # an n-sized (charpoly: n-squared) structure for n = 2**63 - 1 cannot be allocated;
        # numpy refuses rho's n-by-n arc matrix with a ValueError, not a MemoryError
        p = tmp_path / "huge.json"
        p.write_text('{"r": 2, "n": %d, "entries": [{"i": [1, %d], "v": 1}]}' % (2**63 - 1, 2**63 - 1))
        code, data = run(tmp_path, verb, "--input", str(p))
        assert code == 3 and data is None
        err = capsys.readouterr().err
        assert err == f"error: the input is too large for {verb}: out of memory\n"

    @pytest.mark.parametrize("flag", ["--output", "--witness-output"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_output_path_exit_2(self, tmp_path, capsys, flag, where):
        path = str(tmp_path / "absent" / "x.json" if where == "missing directory" else tmp_path)
        argv = ["gen", "prop4", "--k", "1", "--size-a", "4", "--size-b", "4", flag, path]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot write {path}: ")

    def test_unknown_verb_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestIngestCollectorPause:
    """The cyclic collector is off while a document is built, then as it was."""

    def test_state_restored_on_every_exit(self, tmp_path, monkeypatch):
        seen = []  # the collector's state at the moment the document is built
        parse = cli.parse_tensor_or_graph

        def build(data):
            seen.append(gc.isenabled())
            return parse(data)

        monkeypatch.setattr(cli, "parse_tensor_or_graph", build)
        good = write_fixture(tmp_path, "order6")
        bad = tmp_path / "bad.json"
        bad.write_text('{"r": 2, "n": 2, "entries": [{"i": [true, 2], "v": 1}]}')
        enabled = gc.isenabled()
        try:
            gc.enable()
            assert isinstance(cli._load_input(good), hs.CubicalTensor)
            assert gc.isenabled()
            with pytest.raises(cli._UsageError, match="bad input document"):
                cli._load_input(str(bad))
            assert gc.isenabled()
            assert run(tmp_path, "rho", "--input", str(bad)) == (2, None)
            assert gc.isenabled()
            gc.disable()
            assert isinstance(cli._load_input(good), hs.CubicalTensor)
            assert not gc.isenabled()
            assert run(tmp_path, "rho", "--input", str(bad)) == (2, None)
            assert not gc.isenabled()
        finally:
            if enabled:
                gc.enable()
            else:
                gc.disable()
        assert seen == [False] * 5


class TestSubprocessContract:
    """End-to-end through the real interpreter: stdout bytes and piping."""

    def cmd(self, *args):
        return [sys.executable, "-m", "hypersym.cli", *args]

    def test_stdout_deterministic(self, tmp_path):
        path = write_fixture(tmp_path, "order6")
        runs = [
            subprocess.run(
                self.cmd("rho", "--input", path), capture_output=True, check=True
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.endswith(b"\n")

    def test_stdin_dash(self, tmp_path):
        blob = json.dumps(hs.fixture("order6").to_json_dict()).encode()
        proc = subprocess.run(
            self.cmd("charpoly", "--input", "-"), input=blob, capture_output=True
        )
        assert proc.returncode == 3  # n = 6 out of exact-charpoly contract

    @pytest.mark.parametrize("verb", ["odd-coloring", "odd-transversal", "check-symmetric"])
    @pytest.mark.parametrize("schema", ["entries", "edges"])
    def test_zero_tensor_with_huge_index_count_finishes(self, tmp_path, verb, schema):
        # no step may loop over the r = 3e9 columns of the empty index array
        p = tmp_path / "zero.json"
        p.write_text('{"r": 3000000000, "n": 2, "%s": []}' % schema)
        proc = subprocess.run(self.cmd(verb, "--input", str(p)), capture_output=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data.get("feasible", data.get("symmetric")) is True

    @pytest.mark.parametrize("verb", ["odd-coloring", "check-symmetric"])
    # 2 times a prime of 40 bits, and of 59 bits
    @pytest.mark.parametrize("r", [2199023255378, 1152921504606846866])
    def test_zero_tensor_with_large_prime_factor_finishes(self, tmp_path, verb, r):
        # phi = 0 holds vacuously: neither factoring r nor a residue table of p^e entries
        p = tmp_path / "zero.json"
        p.write_text('{"r": %d, "n": 1, "entries": []}' % r)
        proc = subprocess.run(self.cmd(verb, "--input", str(p)), capture_output=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["certificate"] == {"kind": "odd-coloring", "phi": [0], "r": r}

    def test_pipe_fixture_into_rho(self, tmp_path):
        first = subprocess.run(
            self.cmd("fixture", "prop4-k1"), capture_output=True, check=True
        )
        second = subprocess.run(
            self.cmd("rho", "--input", "-"), input=first.stdout, capture_output=True
        )
        assert second.returncode == 0
        data = json.loads(second.stdout)
        assert abs(data["lambda"][0] - 108.0) <= 1e-6


# Instances for the parity verbs: every fixture, plus `gen` output.
PARITY_SOURCES = {
    "h2": ["fixture", "h2"], "a1": ["fixture", "a1"], "a2": ["fixture", "a2"],
    "order6": ["fixture", "order6"], "prop4-k1": ["fixture", "prop4-k1"],
    "prop5-k1": ["fixture", "prop5-k1"],
    **{f"edge-r{r}": ["fixture", "edge-r", "--r", str(r)] for r in (2, 3, 4, 5, 6, 8)},
    "gen-prop4-4-4": ["gen", "prop4", "--k", "1", "--size-a", "4", "--size-b", "4"],
    "gen-prop4-5-7": ["gen", "prop4", "--k", "1", "--size-a", "5", "--size-b", "7"],
    "gen-prop5-6-6-4": ["gen", "prop5", "--k", "1", "--size-a", "6",
                        "--size-b", "6", "--size-c", "4"],
    "gen-prop5-7-6-5": ["gen", "prop5", "--k", "1", "--size-a", "7",
                        "--size-b", "6", "--size-c", "5"],
}

# sha256 of the stdout of each parity verb that exits 0 on an instance,
# recorded with the list-based elimination the numpy solver replaced.  The
# payloads hold integers only, so the bytes do not depend on float output.
PARITY_STDOUT_SHA256 = {
    ("odd-coloring", "h2"): "8fc817d57296bafed620e8bf159b845a30e42f0cf3360250935d7fed8d72e228",
    ("odd-transversal", "h2"): "8011aafc5ae25dc5f1b40cccf5c8731a86b12c01d54e7e78c2c97a734886bbee",
    ("odd-coloring", "a1"): "8fc817d57296bafed620e8bf159b845a30e42f0cf3360250935d7fed8d72e228",
    ("odd-transversal", "a1"): "c91aa2bfd66299c4619a355a6f39b2bfc5fa58f7fee2f9da256170a3f78b270f",
    ("odd-coloring", "a2"): "b9b1321607ad90c65440d3ac88c435890d1e54da0206c2a932a53a5be4df0167",
    ("odd-transversal", "a2"): "af5abc71900a9f31b3b0335a555c89f0349b0854857f4dafbc8309c39e7a1a7a",
    ("odd-transversal", "order6"): "b0ab7ac55523b8ecf5d3e13c8bf1406682a35beea252a79f216362f4dc1f35e0",
    ("odd-coloring", "prop4-k1"): "28e223d422a860fe8b5df5b9258a87ffdb463d968205ad53995e2eb6cd2abf5b",
    ("odd-transversal", "prop4-k1"): "d7d2dabf5bfe2fbbcfaed91dd09b2fb81ab0e55d034c0ee93193fffb2b358e60",
    ("odd-coloring", "prop5-k1"): "104b8e2cdc312faef06e1b390298c121f2f186dae20079b9fea4d53239893c28",
    ("odd-transversal", "prop5-k1"): "ca83e7f0a71952e0a9305194fbb1392fd5c404e62f2715cb6946a9352d1b1877",
    ("odd-coloring", "edge-r2"): "49a73d20be6667a3730a6f559005c78becbcadc0cfac894ee4f0a96cb33397c3",
    ("odd-transversal", "edge-r2"): "918f666f69a096d21ebd27846421057d526847203e43f6e9d7a7b105f7f6d80a",
    ("odd-transversal", "edge-r3"): "918f666f69a096d21ebd27846421057d526847203e43f6e9d7a7b105f7f6d80a",
    ("odd-coloring", "edge-r4"): "274eb02d8ad14e40f7b2b4260ca1720a8a693d3c91d9d9badce3488897a3cd63",
    ("odd-transversal", "edge-r4"): "918f666f69a096d21ebd27846421057d526847203e43f6e9d7a7b105f7f6d80a",
    ("odd-transversal", "edge-r5"): "918f666f69a096d21ebd27846421057d526847203e43f6e9d7a7b105f7f6d80a",
    ("odd-coloring", "edge-r6"): "4f2ce5c4a26ad83f43e9ea91737a0a99d157bcb93d708f85006174332f641c1a",
    ("odd-transversal", "edge-r6"): "918f666f69a096d21ebd27846421057d526847203e43f6e9d7a7b105f7f6d80a",
    ("odd-coloring", "edge-r8"): "8ec9a0e5adaf1e0009dbdf3cda1fc887a0285ae42e4b83f1d177f0bd4d4e25e6",
    ("odd-transversal", "edge-r8"): "918f666f69a096d21ebd27846421057d526847203e43f6e9d7a7b105f7f6d80a",
    ("odd-coloring", "gen-prop4-4-4"): "28e223d422a860fe8b5df5b9258a87ffdb463d968205ad53995e2eb6cd2abf5b",
    ("odd-transversal", "gen-prop4-4-4"): "d7d2dabf5bfe2fbbcfaed91dd09b2fb81ab0e55d034c0ee93193fffb2b358e60",
    ("odd-coloring", "gen-prop4-5-7"): "b5076c33114c3c57e1ac98dac8ade8c9807ae27323d9870699c4d2eb26e66130",
    ("odd-transversal", "gen-prop4-5-7"): "3a2eacf68d7c4fda04683ad04d320754eda84c22b1419ee695841d20a23d6593",
    ("odd-coloring", "gen-prop5-6-6-4"): "104b8e2cdc312faef06e1b390298c121f2f186dae20079b9fea4d53239893c28",
    ("odd-transversal", "gen-prop5-6-6-4"): "ca83e7f0a71952e0a9305194fbb1392fd5c404e62f2715cb6946a9352d1b1877",
    ("odd-coloring", "gen-prop5-7-6-5"): "01015de573d48aafb3560629ca3aacc4c5a8d1f8a2909d835ece4763ab776c12",
    ("odd-transversal", "gen-prop5-7-6-5"): "6716c7153c3e183ca8b89b16d66b94aa40ac455e5a16d7d35018d4d8c6571351",
}


@pytest.mark.parametrize("verb,source", sorted(PARITY_STDOUT_SHA256))
def test_parity_stdout_bytes_pinned(tmp_path, capsys, verb, source):
    doc = str(tmp_path / "input.json")
    assert main([*PARITY_SOURCES[source], "--output", doc]) == 0
    assert main([verb, "--input", doc]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PARITY_STDOUT_SHA256[verb, source]


# The adjacency tensors of two fixtures written as tensor documents, so that
# the pins below also cover the tensor ingest.
TENSOR_SOURCES = {
    "tensor-edge-r4": lambda: hs.fixture("edge-r", r=4),
    "tensor-prop4-k1": lambda: hs.fixture("prop4-k1"),
}

# sha256 of the stdout of rho on each instance where it exits 0 (h2, a1 and
# a2 exit 3), recorded with the two-pass tensor ingest.  verify-eigenpair on
# the pair rho wrote recomputes it and prints the same bytes.
RHO_STDOUT_SHA256 = {
    "order6": "b34db2988fe3920c450f2851db05620fede5465a78f7807f6b873886de968030",
    "prop4-k1": "2640fa08a2661d85e0058e22f88c42888842885397ad1718df281fc0c76bd459",
    "prop5-k1": "1112fd622815049f1c6122ee20c1037e1238634fd499e88c1bd832733ce95e17",
    "edge-r2": "e68ed0f58e89789b40e5ba73e5539aee2cddd4cf8344722fe715b00cb8e89d15",
    "edge-r3": "1d40a568d8b96a5c0c1f046f66cccb2d407c866bffd9c24467a58477338978a1",
    "edge-r4": "5444a70faf5ad6271d90f3edd66e753da795e0bffe08681e9a61f3e1a0c5fd4a",
    "edge-r5": "8ea2dd726fa54527578b26fbe31eb163cc6924295ea696fc66a77d369b9abf2f",
    "edge-r6": "91f7a5de1a21b35af94207b05b75f9127379d16a770057f030b6bda755f9a4ee",
    "edge-r8": "24013dfb9608990a106b870028f6cd2e10e6562c4c8f5cbe618d4254abc5306d",
    "gen-prop4-4-4": "2640fa08a2661d85e0058e22f88c42888842885397ad1718df281fc0c76bd459",
    "gen-prop4-5-7": "a275adab28c7afe41165e3c44d5b549a7abdc83e8bbe588db42f6deff1a2a0eb",
    "gen-prop5-6-6-4": "1112fd622815049f1c6122ee20c1037e1238634fd499e88c1bd832733ce95e17",
    "gen-prop5-7-6-5": "75b25a98db164d43cb88e4e74cd9111d63fda95c2a838b116f5737842a796d27",
    "tensor-edge-r4": "739febfb7b1c9af280fe06fc3a1383f4767567dbd1fa4a0c53fc8b58be28429d",
    "tensor-prop4-k1": "c18db5251fcb54f16c941699c98658a2711844b24a7ff3dd0bc22f772ce7d1bb",
}


@pytest.mark.parametrize("source", sorted(RHO_STDOUT_SHA256))
def test_rho_and_verify_eigenpair_stdout_bytes_pinned(tmp_path, capsys, source):
    doc = tmp_path / "input.json"
    if source in TENSOR_SOURCES:
        doc.write_text(json.dumps(hs.adjacency_tensor(TENSOR_SOURCES[source]()).to_json_dict()))
    else:
        assert main([*PARITY_SOURCES[source], "--output", str(doc)]) == 0
    assert main(["rho", "--input", str(doc)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == RHO_STDOUT_SHA256[source]
    pair = tmp_path / "pair.json"
    pair.write_bytes(out)
    assert main(["verify-eigenpair", "--input", str(doc), "--pair", str(pair)]) == 0
    assert capsys.readouterr().out.encode() == out


class TestParserReuse:
    """`main` builds its parser once; no call may leak into the next one."""

    SEQUENCE = [
        ["fixture", "order6", "--output", "{dir}/order6.json"],
        ["fixture", "edge-r", "--r", "4", "--output", "{dir}/edge4.json"],
        ["fixture", "h2"],  # the --r of the previous call must not carry over
        ["rho", "--input", "{dir}/path3.json", "--tol", "1e-300", "--max-iter", "2"],  # exits 4
        ["rho", "--input", "{dir}/order6.json"],
        ["odd-coloring"],  # no --input: argparse exits 2
        ["odd-coloring", "--input", "{dir}/edge4.json"],
        ["odd-transversal", "--input", "{dir}/order6.json"],
        ["frobnicate", "--input", "{dir}/order6.json"],  # exits 2
        ["gen", "prop5", "--k", "1", "--size-a", "6", "--size-b", "6", "--size-c", "4"],
        ["gen", "prop4", "--k", "1", "--size-a", "4", "--size-b", "4"],
        ["check-symmetric", "--input", "{dir}/edge4.json"],
        ["charpoly", "--input", "{dir}/order6.json"],  # n = 6: exits 3
        # argvs that the verb's own parser does not finish, or that lean on
        # argparse's own rules
        [],  # no verb: the root parser exits 2
        ["-h"],  # the root parser's help: exits 0
        ["rho", "-h"],
        ["rho", "--input", "{dir}/order6.json", "extra"],  # left over: exits 2
        ["rho", "--inp", "{dir}/order6.json"],  # an abbreviation
        ["rho", "--input={dir}/order6.json"],
        ["--input", "{dir}/order6.json", "rho"],  # the verb comes last: exits 2
    ]

    @staticmethod
    def call(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def test_back_to_back_calls_match_solo_calls(self, tmp_path, capsys):
        path3 = hs.Hypergraph(2, 3, [(1, 2), (2, 3)])
        (tmp_path / "path3.json").write_text(json.dumps(path3.to_json_dict()))
        argvs = [[arg.format(dir=tmp_path) for arg in argv] for argv in self.SEQUENCE]
        in_a_row = [self.call(argv, capsys) for argv in argvs]
        codes = [code for code, _out, _err in in_a_row]
        assert {0, 2, 3, 4} <= set(codes)
        for argv, seen in zip(argvs, in_a_row):
            cli._parser.cache_clear()  # as in a fresh process
            assert self.call(argv, capsys) == seen, argv

    def test_parser_built_once_on_first_call(self, capsys):
        cli._parser.cache_clear()
        assert cli._parser.cache_info().currsize == 0
        main(["fixture", "h2"])
        main(["fixture", "a1"])
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)


# ---------------------------------------------------------------------------
# the old parse as a reference
# ---------------------------------------------------------------------------
# `_reference_main` is `main` as it read while every argv went through the
# root parser, which hands what follows the verb to the verb's parser.  `main`
# now parses with the verb's parser alone where that parser takes every
# argument; exit code, stdout and stderr must not change, usage errors and
# help included.

@functools.cache
def _reference_parser():
    return cli.build_parser()[0]


def _reference_main(argv: list[str]) -> int:
    args = _reference_parser().parse_args(argv)
    try:
        cli._HANDLERS[args.verb](args)
    except cli._UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.USAGE_ERROR
    except hs.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.CONVERGENCE_ERROR
    except (ValueError, TypeError, MemoryError) as exc:
        # numpy refuses an array whose byte size overflows with a ValueError
        if isinstance(exc, MemoryError) or str(exc).startswith("array is too big"):
            exc = f"the input is too large for {args.verb}: out of memory"
        print(f"error: {exc}", file=sys.stderr)
        return cli.PRECONDITION_ERROR
    return 0


class TestParseOracle:
    # (argv, the file that stdin reads or None): TestParserReuse's table, then
    # the shapes of the benchmark's jobs and more of argparse's rules
    CASES = [(argv, None) for argv in TestParserReuse.SEQUENCE] + [
        (["rho", "--input", "{dir}/order6.json", "--tol", "1e-12", "--max-iter", "500"], None),
        (["check-symmetric", "--input", "{dir}/edge4.json", "--tol", "1e-9"], None),
        (["check-symmetric", "--input", "{dir}/edge4.json", "--max-iter", "0"], None),  # exits 3
        (["verify-eigenpair", "--input", "{dir}/order6.json", "--pair", "{dir}/pair.json"], None),
        (["verify-eigenpair", "--input", "{dir}/order6.json", "--pair", "-"], "pair.json"),
        (["rho", "--input", "-", "--output", "-"], "order6.json"),
        (["odd-transversal", "--output", "-", "--input", "{dir}/edge4.json"], None),
        (["odd-coloring", "--input", "{dir}/edge4.json", "--output", "{dir}/out.json"], None),
        (["rho", "--input", "{dir}/absent.json", "--input", "{dir}/order6.json"], None),
        (["rho", "--input"], None),  # the flag lacks its value
        (["rho", "--input", "{dir}/order6.json", "--tol", "tiny"], None),
        (["rho", "--input", "{dir}/order6.json", "--max-iter", "1.5"], None),
        (["rho", "--", "--input", "{dir}/order6.json"], None),
        (["rho", "--h"], None),  # an abbreviation of --help
        (["rho", "--input", "{dir}/order6.json", "-h"], None),
        (["rho", "--input", "{dir}/order6.json", "--bogus", "1"], None),
        (["gen", "prop6", "--k", "1", "--size-a", "4", "--size-b", "4"], None),
        (["gen", "prop4", "--k", "1", "--size-a", "4", "--size-b", "4", "--size-c", "2"], None),
        (["fixture", "h2", "--r", "3", "--bogus"], None),
        (["fixture", "edge-r", "--r", "5"], None),
        (["fixture"], None),
        (["Rho", "--input", "{dir}/order6.json"], None),  # verbs are case-sensitive
        (["frobnicate", "-h"], None),
    ]

    @staticmethod
    def call(entry, argv, stdin, monkeypatch, capsys, written):
        """Exit code, stdout, stderr, and the bytes of the --output file, removed after."""
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        data = written.read_bytes() if written.exists() else None
        written.unlink(missing_ok=True)
        return code, out, err, data

    @pytest.mark.parametrize("argv,stdin", CASES, ids=[" ".join(a) or "(none)" for a, _ in CASES])
    def test_main_matches_the_root_parse(self, tmp_path, monkeypatch, capsys, argv, stdin):
        assert main(["fixture", "order6", "--output", str(tmp_path / "order6.json")]) == 0
        assert main(["fixture", "edge-r", "--r", "4", "--output", str(tmp_path / "edge4.json")]) == 0
        assert main(["rho", "--input", str(tmp_path / "order6.json"),
                     "--output", str(tmp_path / "pair.json")]) == 0
        argv = [arg.format(dir=tmp_path) for arg in argv]
        text = (tmp_path / stdin).read_text() if stdin else ""
        written = tmp_path / "out.json"
        seen = self.call(main, argv, text, monkeypatch, capsys, written)
        assert seen == self.call(_reference_main, argv, text, monkeypatch, capsys, written)
