"""Command-line interface: formats, determinism and exit codes."""

import json

import pytest

from quiverkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGamma:
    def test_json_hexagon(self, capsys):
        code, out, _ = run(capsys, "gamma", "--n", "4", "--m", "1", "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "quiverkit/1"
        assert len(payload["vertices"]) == 9
        assert ["(1,3)", "(1,4)"] in payload["arrows"]
        assert payload["tau"]["(2,4)"] == "(1,3)"

    def test_dot_octagon(self, capsys):
        code, out, _ = run(capsys, "gamma", "--n", "3", "--m", "2", "--emit", "dot")
        assert code == 0
        assert out.startswith("digraph gamma_3_2 {")
        assert out.count('style=dashed, label="tau"') == 8

    def test_usage_error_for_small_polygon(self, capsys):
        code, _, err = run(capsys, "gamma", "--n", "1", "--m", "1")
        assert code == 2
        assert "n >= 2" in err

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "gamma", "--n", "5", "--m", "2")
        _, second, _ = run(capsys, "gamma", "--n", "5", "--m", "2")
        assert first == second


class TestPower:
    def test_components_json(self, capsys):
        code, out, _ = run(
            capsys, "power", "--n", "6", "--m", "2", "--components"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 2
        assert [len(c["vertices"]) for c in payload["components"]] == [8, 6, 6]

    def test_whole_power_quiver(self, capsys):
        code, out, _ = run(capsys, "power", "--n", "6", "--m", "2")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["vertices"]) == 20
        assert ["(1,4)", "(1,6)"] in payload["arrows"]

    def test_components_dot_emits_one_digraph_each(self, capsys):
        code, out, _ = run(
            capsys, "power", "--n", "6", "--m", "2", "--components", "--emit", "dot"
        )
        assert code == 0
        assert out.count("digraph component_") == 3


class TestClassify:
    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", "3", "--m", "2", "--report", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["principal"] == {"size": 8, "iso_gamma": True}
        assert payload["others"] == [
            {"size": 6, "match": {"k": 3, "s": 0, "r": 1}},
            {"size": 6, "match": {"k": 3, "s": 0, "r": 1}},
        ]

    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3", "--m", "2")
        assert code == 0
        assert "principal component: 8 vertices" in out
        assert "orbit_quiver(k=3, s=0, r=1)" in out

    def test_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys, "classify", "--n", "4", "--m", "3", "--cap", "10"
        )
        assert code == 3
        assert "size cap" in err


class TestMutate:
    def test_steps(self, capsys):
        code, out, _ = run(
            capsys, "mutate", "--matrix", "[[0,1],[-1,0]]", "--steps", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cluster"] == ["(u_2 + 1) / u_1", "u_2"]
        assert payload["matrix_after"] == [[0, -1], [1, 0]]

    def test_enumerate(self, capsys):
        code, out, _ = run(
            capsys, "mutate", "--matrix", "[[0,1],[-1,0]]", "--enumerate"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 5
        assert payload["cap_reached"] is False
        assert "(u_1 + u_2 + 1) / u_1*u_2" in payload["variables"]

    def test_bad_json_matrix(self, capsys):
        code, _, err = run(capsys, "mutate", "--matrix", "[[0,1],")
        assert code == 2

    def test_non_sign_skew_matrix(self, capsys):
        code, _, err = run(capsys, "mutate", "--matrix", "[[0,1],[1,0]]")
        assert code == 2
        assert "sign-skew" in err

    @pytest.mark.parametrize(
        "matrix",
        [
            "[[0,1e30],[-1,0]]",
            "[[0,100000000000000000000],[-1,0]]",
            '{"a":1}',
            "[[0,1.5],[-1,0]]",
        ],
    )
    def test_non_integer_entries_are_usage_errors(self, capsys, matrix):
        code, out, err = run(capsys, "mutate", "--matrix", matrix)
        assert code == 2
        assert out == ""
        assert "integers within int64" in err


class TestAngulations:
    def test_hexagon_count(self, capsys):
        code, out, _ = run(capsys, "angulations", "--n", "4", "--m", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 14
        assert [[1, 3], [1, 4], [1, 5]] in payload["angulations"]

    def test_cap_exit_code(self, capsys):
        code, _, _ = run(capsys, "angulations", "--n", "15", "--m", "1")
        assert code == 3


class TestOrbit:
    def test_six_vertex_quotient(self, capsys):
        code, out, _ = run(
            capsys, "orbit", "--k", "3", "--s", "0", "--r", "1"
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload["vertices"]) == 6

    def test_identity_rejected(self, capsys):
        code, _, _ = run(capsys, "orbit", "--k", "3", "--s", "0", "--r", "0")
        assert code == 2


class TestVerify:
    def test_only_counting(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "counting")
        assert code == 0
        assert "[PASS] counting" in out

    def test_thread_pool_gives_identical_output(self, capsys):
        _, serial, _ = run(capsys, "verify", "--only", "octagon")
        _, pooled, _ = run(
            capsys, "verify", "--only", "octagon", "--threads", "4"
        )
        strip = lambda text: [line.split("(")[0] + line.split(":", 1)[1]
                              for line in text.splitlines() if ":" in line]
        assert strip(serial) == strip(pooled)

    def test_only_octagon_reproduces_decomposition(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "octagon")
        assert code == 0
        assert "[PASS] octagon-vertices" in out
        assert "component sizes [8, 6, 6]" in out

    def test_unknown_filter(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "nothing-here")
        assert code == 2


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "quiver.json"
        code, out, _ = run(
            capsys, "gamma", "--n", "4", "--m", "1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert len(payload["vertices"]) == 9
