"""Command-line interface: verbs, payload schemas, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import hypersym as hs
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
        ],
    )
    def test_non_list_index_exit_2(self, tmp_path, doc):
        p = tmp_path / "scalar.json"
        p.write_text(doc)
        code, data = run(tmp_path, "odd-transversal", "--input", str(p))
        assert code == 2 and data is None

    @pytest.mark.parametrize("value", ["[true, 0]", "[1, false]", "[null, 1]", "Infinity",
                                       "[0, -Infinity]"])
    def test_bad_value_component_exit_2(self, tmp_path, capsys, value):
        p = tmp_path / "value.json"
        p.write_text('{"r": 2, "n": 2, "entries": [{"i": [1, 2], "v": %s}]}' % value)
        code, data = run(tmp_path, "odd-transversal", "--input", str(p))
        assert code == 2 and data is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_boolean_vertex_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bool.json"
        p.write_text('{"r": 2, "n": 3, "edges": [[true, 3], [2, 3]]}')
        code, data = run(tmp_path, "odd-transversal", "--input", str(p))
        assert code == 2 and data is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_verb_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


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
